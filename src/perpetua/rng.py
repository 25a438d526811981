"""Counter-based random number streams.

Every stochastic routine in this package draws from a Philox generator whose
128-bit key is (seed, 0), started at counter 0: the key alone fixes every
draw.  stream builds it from that key directly, without a SeedSequence and
without OS entropy, which matters where an ensemble builds one stream per
path.  Streams of distinct seeds are independent by
construction, and results never depend on how work is split across threads:
each stream is consumed by exactly one task, in a fixed documented order.
A path's stream is derived from the seed, a purpose tag and the path
index, and harness._ensemble hands each task a block of consecutive paths,
so a stream never crosses tasks: a grid path draws its steps from it, and an
exact event path (drift plus finite activity) its batches of jump gaps and
sizes, through the same event loop as exact first passage.  The exact
overshoot ensemble of a finite-activity process (drift, Gaussian part and
compound Poisson jumps) is the exception: it draws all its paths from one
stream, in row blocks whose size follows from the triplet, the level and n,
and in the order passage._event_passages documents (per batch the jump gaps
and sizes, then with a Gaussian part the normals and uniforms of the bridge
pieces, then the crossing times), so a path's draws depend on the ensemble
it belongs to (n included) but never on the thread count.

Where one experiment needs several unrelated ensembles (say overshoot
harvests at two levels), sub-seeds are derived by hashing the master seed
together with a short purpose tag, so ensembles do not share randomness.
"""

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_U64 = np.uint64
MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, *tags) -> int:
    """Derive an independent 64-bit sub-seed from a master seed and tags.

    Tags are stringified and hashed with SHA-256, so any hashable labels
    (strings, numbers) give a stable, platform-independent result.
    """
    text = repr(int(master_seed) & MASK64) + "|" + "|".join(str(t) for t in tags)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _Key(ISeedSequence):
    """The Philox key (seed, 0) in the form Philox reads a seed sequence in.

    Philox(key=...) would first build, then discard, an entropy-seeded
    SeedSequence; handed this instead, Philox takes its key from
    generate_state(2, uint64) and its counter is 0 as with key=.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64

    def generate_state(self, n_words, dtype=np.uint32):
        """The key words: Philox asks for 2 of uint64, and nothing else does."""
        return np.array([self.seed, 0], dtype=_U64)


def stream(seed: int) -> np.random.Generator:
    """The generator of `seed`: Philox keyed by (seed, 0), at counter 0."""
    return np.random.Generator(np.random.Philox(_Key(seed)))
