"""Counter-based random number streams, and the one runner of per-path streams.

Every stochastic routine in this package draws from a Philox generator whose
128-bit key is (seed, 0), started at counter 0: the key alone fixes every
draw.  stream builds it from that key directly, without a SeedSequence and
without OS entropy, which matters where an ensemble builds one stream per
path.  Streams of distinct seeds are independent by construction, and
results never depend on how work is split across threads: each stream is
consumed by exactly one task, in a fixed documented order.  A path's stream
is derived from the seed, a purpose tag and the path index, and ensemble
hands each task a block of consecutive paths, so a stream never crosses
tasks.  Every ensemble of per-path streams runs through ensemble: the path
checks, perpetua simulate and the grid overshoot ensembles.  A grid path
draws its steps from its stream, and an exact event path (drift plus finite
activity) its batches of jump gaps and sizes, through the same event loop
as exact first passage.  The exact overshoot ensemble of a finite-activity
process (drift, Gaussian part, compound Poisson jumps or none) is the
exception: it draws all its paths from one stream, inline, in the order
passage._event_passages states, so a path's draws depend on the ensemble it
belongs to (n included) but never on the thread count.

Where one experiment needs several unrelated ensembles (say overshoot
harvests at two levels), sub-seeds are derived by hashing the master seed
together with a short purpose tag, so ensembles do not share randomness.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import PerpetuaError, PreconditionViolation

_U64 = np.uint64
MASK64 = (1 << 64) - 1

# pieces in one block of paths, about (ensemble): the rows of a block of
# event paths are one array, and the chunks of an invariance block's paths
# share one local_time_block pass per round, so this bounds the memory a
# block holds while giving each task enough work
_BLOCK_PIECES = 2**14

# No ensemble may hold more paths than this (sample_size_refusal): each path
# keeps a row of results in memory, the largest the finiteness partials, a
# float per checkpoint (64 MB at 2**20 paths of 8 checkpoints), and ensemble
# builds every path's seed first.  Config validation holds every count to it,
# and ensemble and passage.overshoot_ensemble refuse a count past it before
# allocating.  A precondition, not a setting.
MAX_PATHS = 2**20


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


def sample_size_refusal(n: int) -> tuple[str, str] | None:
    """("SAMPLE_SIZE", problem) unless 1 <= n <= MAX_PATHS paths, else None."""
    if n < 1:
        return "SAMPLE_SIZE", f"need n >= 1 paths, got {n}"
    if n > MAX_PATHS:
        return "SAMPLE_SIZE", f"{n} paths exceed SAMPLE_SIZE {MAX_PATHS} (each path's results are held in memory)"
    return None


def ensemble(work, seed: int, tag: str, n: int, pieces: float, threads: int) -> np.ndarray:
    """Rows of paths 0..n-1 in path order, path i seeded derive_seed(seed, tag, i), alike for any threads.

    work maps the seeds of consecutive paths to one row each.  A block holds
    about _BLOCK_PIECES pieces in all (pieces per path), at least one path,
    and runs inline at one thread or in one pool; a block that raises a
    PerpetuaError runs its paths again one by one, so a refusal is the one
    of the lowest path index that fails alone.  Threads and n are checked
    before anything is allocated.
    """
    if threads < 1:
        raise PreconditionViolation("THREADS_RANGE", f"need threads >= 1, got {threads}")
    over = sample_size_refusal(n)
    if over is not None:
        raise PreconditionViolation(*over)
    # derive_seed(seed, tag, i): the text before i is hashed once, and copied per path
    prefix = hashlib.sha256((repr(int(seed) & MASK64) + "|" + str(tag) + "|").encode("utf-8"))

    def path_seed(i: int) -> int:
        digest = prefix.copy()
        digest.update(str(i).encode("utf-8"))
        return int.from_bytes(digest.digest()[:8], "big")

    seeds = [path_seed(i) for i in range(n)]
    size = max(1, int(_BLOCK_PIECES // pieces))
    blocks = [seeds[first:first + size] for first in range(0, n, size)]

    def run(block: list[int]) -> np.ndarray:
        try:
            return work(block)
        except PerpetuaError:
            if len(block) == 1:
                raise
        return np.concatenate([work([s]) for s in block])

    if threads == 1:
        return np.concatenate([run(block) for block in blocks])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(run, blocks)))
