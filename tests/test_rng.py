"""Random streams: Philox keyed by (seed, 0) at counter 0."""

import numpy as np
import pytest

from perpetua import rng
from perpetua.errors import PreconditionViolation
from perpetua.rng import MASK64, derive_seed, ensemble, stream


def philox_oracle(seed):
    """Test oracle: the stream as Philox(key=...) builds it, through a throwaway SeedSequence."""
    return np.random.Generator(np.random.Philox(key=np.array([seed & MASK64, 0], dtype=np.uint64)))


def key_and_counter(rng):
    state = rng.bit_generator.state["state"]
    return state["key"].tolist(), state["counter"].tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1, derive_seed(7, "finiteness", 3)],
                         ids=["0", "1", "2^63", "2^64-1", "-1", "derived"])
def test_stream_is_the_philox_of_key_seed_and_zero(seed):
    got, want = stream(seed), philox_oracle(seed)
    assert key_and_counter(got) == key_and_counter(want) == ([seed & MASK64, 0], [0, 0, 0, 0])
    assert got.standard_normal(257).tobytes() == want.standard_normal(257).tobytes()
    assert got.random(100).tobytes() == want.random(100).tobytes()
    assert got.exponential(2.5, (3, 41)).tobytes() == want.exponential(2.5, (3, 41)).tobytes()
    assert key_and_counter(got) == key_and_counter(want)


@pytest.mark.parametrize("seed", [0, 20260815, 2**64 - 1, -1], ids=["0", "shipped", "2^64-1", "-1"])
@pytest.mark.parametrize("tag", ["finiteness", "occupation", "overshoot-z1", ""])
def test_ensemble_seeds_path_i_with_derive_seed(seed, tag):
    # ensemble hashes the text its seeds share once; each must still be derive_seed's
    seeds = ensemble(lambda block: np.array(block, dtype=np.uint64), seed, tag, 1200, 1.0, 1)
    assert seeds.tolist() == [derive_seed(seed, tag, i) for i in range(1200)]


@pytest.mark.parametrize("n", [0, 2**20 + 1, 10**12])
def test_ensemble_refuses_a_sample_size_out_of_range_before_any_seed(n, monkeypatch):
    monkeypatch.setattr(rng.hashlib, "sha256", None)  # no seed may be hashed
    with pytest.raises(PreconditionViolation) as exc:
        ensemble(lambda block: np.zeros(len(block)), 0, "t", n, 1.0, 1)
    assert exc.value.reason == "SAMPLE_SIZE"
    assert rng.sample_size_refusal(n) == (exc.value.reason, str(exc.value).split(": ", 1)[1])


def test_the_sample_size_bound_is_inclusive():
    assert rng.sample_size_refusal(1) is None and rng.sample_size_refusal(rng.MAX_PATHS) is None
    assert rng.sample_size_refusal(rng.MAX_PATHS + 1) == (
        "SAMPLE_SIZE", "1048577 paths exceed SAMPLE_SIZE 1048576 (each path's results are held in memory)")
