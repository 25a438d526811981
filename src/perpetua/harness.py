"""Statistical checks tying the simulated process to its limiting behavior.

Every check produces a CheckReport with the same normalization: the check
passes iff statistic <= threshold.  Fractions that must be large are stored
as their complements so the rule never flips direction.

All randomness flows through per-path seeds derived from the master seed and
a purpose tag, and aggregation is ordered by path index, so every check is
reproducible bit-for-bit no matter how many worker threads run the paths.
Every ensemble of paths, the overshoot check's grid ones included, runs
through rng.ensemble, which gives the threads blocks of consecutive paths
sized by the pieces of a path alone, never by the thread count.  A
finiteness or LLN block is one PathBlock (simulate.sample_paths) integrated
in one pass, and an invariance block's chunks share one local-time pass per
round: each row is what its path gives alone.

The rules a check's parameters alone decide (bandwidth_refusal,
invariance_level_refusal, lln_t0_refusal) return (reason, problem) or None:
config lists what they return, and the check raises it before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import require_local_times
from .errors import NotReachedError, PreconditionViolation
from .measures import CompoundPoisson
from .rng import derive_seed, ensemble, stream
from .localtime import local_time_block, local_time_field
from .simulate import (PathBlock, event_driven, path_pieces, perpetual_estimate, perpetual_estimates,
                       sample_path, sample_paths, step_engine)
from .passage import stationary_overshoot, overshoot_ensemble
from .stats import ks_critical, ks_two_sample
from .triplet import LevyTriplet

__all__ = [
    "FinitenessEstimate",
    "CheckReport",
    "FINITE_LIKE",
    "INFINITE_LIKE",
    "INCONCLUSIVE",
    "MAX_LEVELS",
    "finiteness_block",
    "finiteness_probability",
    "zero_one_check",
    "occupation_identity_check",
    "level_budget",
    "bandwidth_refusal",
    "overshoot_stationarity_check",
    "overshoot_recommended_z1",
    "invariance_level_refusal",
    "invariance_horizon",
    "local_time_law_invariance_check",
    "lln_t0_floor",
    "lln_t0_refusal",
    "lln_envelope_check",
    "write_csv",
    "write_partials_csv",
]

FINITE_LIKE = "FINITE_LIKE"
INFINITE_LIKE = "INFINITE_LIKE"
INCONCLUSIVE = "INCONCLUSIVE"

# stabilization tolerances for per-path classification; a finite-horizon
# heuristic reported with every estimate, never treated as ground truth
TOL_ABS = 1e-3
TOL_REL = 1e-2

_MAX_CHUNKS = 64  # chunks an invariance path may take to escape its levels

# levels of the occupation check's level grid, at most: the grid's edges and
# the field's ramp CDF hold a few arrays of twice as many floats, so a path
# sweeping a range of more than MAX_LEVELS bandwidths is refused rather than
# ending in a MemoryError.  A precondition, not a setting.
MAX_LEVELS = 2**22


@dataclass(frozen=True)
class CheckReport:
    name: str
    statistic: float
    threshold: float
    artifacts: tuple[str, ...] = ()
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "artifacts": list(self.artifacts),
            "notes": self.notes,
        }


@dataclass(frozen=True)
class FinitenessEstimate:
    p_hat: float
    per_path_verdicts: tuple[str, ...]
    growth_curve: np.ndarray  # mean partial integral at each checkpoint
    checkpoints: np.ndarray
    partials: np.ndarray  # (n_paths, n_checkpoints) partial integrals
    inconclusive_fraction: float
    flagged: bool  # True when more than 10% of paths classified neither way

    @property
    def classified(self) -> int:
        return sum(v != INCONCLUSIVE for v in self.per_path_verdicts)


def write_csv(path: Path, header: str, *columns) -> None:
    """The one writer of every CSV file: a header line, then a line per row of the equal-length columns.

    An integer column is written as its integers and any other column as
    repr(float) of each value, which round-trips exactly; each column is
    converted to Python numbers once, and each line joined once.
    """
    cells = []
    for column in map(np.asarray, columns):
        if column.dtype.kind in "iu":
            cells.append(map(str, column.tolist()))
        else:
            cells.append(map(repr, column.astype(float, copy=False).tolist()))
    Path(path).write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def write_partials_csv(path: Path, partials, checkpoints) -> None:
    """Partial integrals (paths, checkpoints) through write_csv, one row per (path, checkpoint).

    The table of finiteness.csv (verify) and partial_integrals.csv (simulate).
    """
    partials = np.asarray(partials, dtype=float)
    paths, width = partials.shape
    write_csv(path, "path_id,checkpoint,partial_integral", np.repeat(np.arange(paths), width),
              np.tile(np.asarray(checkpoints, dtype=float), paths), partials.ravel())


def finiteness_block(config, seeds) -> tuple[PathBlock, np.ndarray]:
    """The finiteness paths of the given seeds as one block, and their (paths, checkpoints) partials."""
    block = sample_paths(config.triplet, config.horizon, config.dt, seeds)
    return block, perpetual_estimates(block, config.f, config.checkpoints)


def finiteness_probability(config, threads: int = 1) -> FinitenessEstimate:
    """Per-path stabilization-vs-growth classification over doubling horizons.

    A path is FINITE_LIKE when its last two checkpoint increments fall under
    tol_abs + tol_rel * (current value); INFINITE_LIKE when the last three
    increments are non-decreasing (stabilized paths satisfy this vacuously,
    so the finite rule wins).  p_hat is the FINITE_LIKE share of classified
    paths; the inconclusive remainder is reported and flagged above 10%.
    """
    partials = ensemble(lambda seeds: finiteness_block(config, seeds)[1], config.master_seed,
                        "finiteness", config.n_paths,
                        path_pieces(config.triplet, config.horizon, config.dt), threads)
    incr = np.diff(partials, axis=1)
    tol = TOL_ABS + TOL_REL * partials[:, -1]
    finite = (incr[:, -1] < tol) & (incr[:, -2] < tol)
    growing = (incr[:, -1] >= incr[:, -2]) & (incr[:, -2] >= incr[:, -3]) & ~finite

    verdicts = tuple(
        FINITE_LIKE if f else INFINITE_LIKE if g else INCONCLUSIVE
        for f, g in zip(finite, growing)
    )
    n_classified = int(finite.sum() + growing.sum())
    p_hat = float(finite.sum() / n_classified) if n_classified else 0.0
    inconclusive = 1.0 - n_classified / config.n_paths
    return FinitenessEstimate(
        p_hat=p_hat,
        per_path_verdicts=verdicts,
        growth_curve=partials.mean(axis=0),
        checkpoints=np.asarray(config.checkpoints, dtype=float),
        partials=partials,
        inconclusive_fraction=inconclusive,
        flagged=inconclusive > 0.10,
    )


def zero_one_check(estimate: FinitenessEstimate, delta_01: float) -> CheckReport:
    """p_hat must sit in [0, delta] or [1 - delta, 1]: distance to {0,1} <= delta."""
    if estimate.classified < 100:
        raise PreconditionViolation(
            "SAMPLE_SIZE", f"need >= 100 classified paths, have {estimate.classified}"
        )
    statistic = min(estimate.p_hat, 1.0 - estimate.p_hat)
    return CheckReport(
        name="zero_one",
        statistic=statistic,
        threshold=delta_01,
        notes=f"p_hat={estimate.p_hat:.4f}, inconclusive={estimate.inconclusive_fraction:.3f}",
    )


def occupation_identity_check(
    config,
    n_paths: int = 50,
    bandwidth: float = 0.05,
    threads: int = 1,
) -> CheckReport:
    """Median relative gap between the time and the space side of occupation.

    A bandwidth below its floor (bandwidth_refusal) is refused before any draw,
    and a path whose level grid would pass MAX_LEVELS before the grid is built.
    """
    require_local_times(config.triplet, "occupation identity")
    over = bandwidth_refusal(config.triplet, config.dt, bandwidth)
    if over is not None:
        raise PreconditionViolation(*over)
    horizon = config.horizon

    def one_gap(seed: int) -> float:
        path = sample_path(config.triplet, horizon, config.dt, seed=seed)
        direct = float(perpetual_estimate(path, config.f, [horizon])[0])
        lo = float(path.values.min()) - bandwidth
        hi = float(path.values.max()) + bandwidth
        step, levels = _level_grid(hi - lo, bandwidth)
        if levels > MAX_LEVELS:
            raise PreconditionViolation("LEVEL_BUDGET", _level_problem(levels, bandwidth))
        grid = np.arange(lo, hi + step, step)
        fld = local_time_field(path, grid, bandwidth)
        space = float(np.trapezoid(np.asarray(config.f(grid)) * fld.values, grid))
        return abs(space - direct) / max(abs(direct), 1e-12)

    gaps = ensemble(lambda seeds: np.array([one_gap(s) for s in seeds]), config.master_seed,
                    "occupation", n_paths, path_pieces(config.triplet, horizon, config.dt), threads)
    return CheckReport(
        name="occupation_identity",
        statistic=float(np.median(gaps)),
        threshold=0.05,
        notes=f"{n_paths} paths at T={horizon:g}, bandwidth {bandwidth:g}",
    )


def _level_grid(span: float, bandwidth: float) -> tuple[float, float]:
    """(step, levels) of the occupation check's level grid over span (its margins included)."""
    step = min(bandwidth, max(bandwidth / 2.0, span / 2500.0))
    return step, span / step


def _level_problem(levels: float, bandwidth: float) -> str:
    return (f"{levels:.3g} occupation grid levels exceed LEVEL_BUDGET {MAX_LEVELS} "
            f"(a level at least every bandwidth {bandwidth:g} across a path's range)")


def level_budget(triplet: LevyTriplet, horizon: float, bandwidth: float) -> tuple[str, str] | None:
    """("LEVEL_BUDGET", problem) when an occupation path's expected level grid passes MAX_LEVELS, else None.

    A path on [0, horizon] ranges over |E xi_horizon| = |mean| * horizon at
    least on average, so its grid holds at least the levels of that span.
    A mean or a horizon that is not finite bounds nothing: the check then
    refuses a path whose own grid is too large.
    """
    mean = triplet.mean()
    if not (mean.is_finite and math.isfinite(horizon)):
        return None
    levels = _level_grid(abs(mean.as_float()) * horizon + 2.0 * bandwidth, bandwidth)[1]
    return None if levels <= MAX_LEVELS else ("LEVEL_BUDGET", _level_problem(levels, bandwidth))


def bandwidth_refusal(triplet: LevyTriplet, dt: float, bandwidth: float) -> tuple[str, str] | None:
    """("BANDWIDTH_FLOOR", problem) when bandwidth lies below sd_step / 4 on grid paths, else None.

    A grid step moves by N(drift_eff dt, sd_step^2) besides its jumps, where
    sd_step^2 = (sigma^2 + int_{|x|<=eps} x^2 nu(dx)) dt at the StepEngine's
    cutoff eps; a narrower window counts that noise.  Event paths: no floor.
    """
    floor = 0.0 if event_driven(triplet) else step_engine(triplet, dt).sd_step / 4.0
    return None if bandwidth >= floor else (
        "BANDWIDTH_FLOOR", f"bandwidth {bandwidth:g} below BANDWIDTH_FLOOR sd_step/4 = {floor:g} at dt {dt:g}")


def overshoot_recommended_z1(triplet: LevyTriplet) -> float:
    """20 sigma_eff/mu, the first level the overshoot check recommends; needs mu in (0, inf)."""
    mu = triplet.positive_mean("overshoot check")
    return 20.0 * math.sqrt(triplet.effective_volatility_sq()) / mu


def overshoot_stationarity_check(
    triplet: LevyTriplet,
    z1: float,
    z2: float,
    n: int,
    seed: int = 0,
    ks_alpha: float = 0.01,
    dt: float = 1e-2,
    artifact_dir=None,
    threads: int = 1,
) -> CheckReport:
    """Two-sample KS between overshoot ensembles at two levels.

    With artifact_dir set, each ensemble is persisted as a single-column CSV
    and referenced from the report.
    """
    if not 0.0 < z1 < z2:
        raise PreconditionViolation("LEVEL_ORDER", "need 0 < z1 < z2")
    recommended = overshoot_recommended_z1(triplet)
    notes = f"z1={z1:g}, z2={z2:g}, n={n}"
    if z1 < recommended:
        notes += f"; z1 below recommended {recommended:.3g}, pre-asymptotic failure is expected"

    e1 = overshoot_ensemble(triplet, z1, n, seed=derive_seed(seed, "os", 1), dt=dt, threads=threads)
    e2 = overshoot_ensemble(triplet, z2, n, seed=derive_seed(seed, "os", 2), dt=dt, threads=threads)
    if e1.events_drawn is None:
        notes += f"; passage: grid dt={dt:g}"
    else:
        notes += f"; passage: exact events ({e1.events_drawn + e2.events_drawn} drawn)"
    artifacts: tuple[str, ...] = ()
    if artifact_dir is not None:
        out = Path(artifact_dir)
        out.mkdir(parents=True, exist_ok=True)
        artifacts = ("overshoots_z1.csv", "overshoots_z2.csv")
        for name, ens in zip(artifacts, (e1, e2)):
            write_csv(out / name, "overshoot", ens.samples)
    statistic = ks_two_sample(e1.samples, e2.samples)
    threshold = ks_critical(n, n, ks_alpha)
    return CheckReport(
        name="overshoot_stationarity",
        statistic=statistic,
        threshold=threshold,
        artifacts=artifacts,
        notes=notes,
    )


def _local_time_proxy(
    triplet: LevyTriplet,
    starts: list[float],
    seeds: list[int],
    levels: np.ndarray,
    bandwidth: float,
    dt: float,
    escape: float,
    chunk_horizon: float,
) -> np.ndarray:
    """Accumulated L(x) per level of a block of paths until each has escaped the level range.

    Path r starts at starts[r] and simulates in independent chunks (valid by
    stationary independent increments), chunk c from stream
    derive_seed(seeds[r], "chunk", c); it stops once a whole chunk after
    its first stays above the escape height; a transient upward drift makes
    later returns negligible by design of the escape margin.  Each round
    the chunks of the paths still running share one local_time_block pass.
    Returns a (paths, levels) array, each row what the path gives alone.
    """
    totals = np.zeros((len(starts), levels.size))
    x = np.array(starts, dtype=float)
    live = np.arange(len(starts))
    for c in range(_MAX_CHUNKS):
        chunk_seeds = [derive_seed(seeds[r], "chunk", c) for r in live]
        chunks = sample_paths(triplet, chunk_horizon, dt, chunk_seeds, x0=x[live])
        totals[live] += local_time_block(chunks.times, chunks.values, levels, bandwidth)[0]
        x[live] = chunks.values[:, -1]
        if c > 0:
            live = live[chunks.values.min(axis=1) < escape]
        if not live.size:
            return totals
    raise NotReachedError(f"path from {starts[live[0]]:g} did not escape {escape:g}")


def invariance_level_refusal(x_list) -> tuple[str, str] | None:
    """("LEVEL_RANGE", problem) unless x_list holds two or more distinct levels, all positive."""
    levels = sorted(set(float(x) for x in x_list))
    if len(levels) > 1 and levels[0] > 0.0:
        return None
    return "LEVEL_RANGE", f"need two or more distinct positive levels, got {[float(x) for x in x_list]}"


def invariance_horizon(triplet: LevyTriplet, x_list, dt: float) -> tuple[float, float]:
    """(escape height, chunk horizon) of the invariance check's escape proxy.

    A path has escaped once a whole chunk stays above
    max(x_list) + 5 sigma_eff/mu; each chunk covers
    1.5 (escape + 4 sigma_eff)/mu of time, and at least 20 steps.  Needs a
    mean mu in (0, inf).
    """
    mu = triplet.positive_mean("invariance horizon")
    sigma_eff = math.sqrt(triplet.effective_volatility_sq())
    escape = max(float(x) for x in x_list) + 5.0 * sigma_eff / mu
    return escape, max(1.5 * (escape + 4.0 * sigma_eff) / mu, 20.0 * dt)


def local_time_law_invariance_check(
    triplet: LevyTriplet,
    x_list,
    n: int,
    seed: int = 0,
    bandwidth: float = 0.05,
    dt: float = 1e-2,
    threshold: float | None = None,
    ks_alpha: float = 0.01,
    n_rho: int = 1000,
    start_from_rho: bool = True,
    threads: int = 1,
) -> CheckReport:
    """Distribution of total local time should not depend on the level.

    Under the stationary overshoot start the law of L_inf(x) is the same for
    every x > 0; we draw starts from the harvested proxy (gated by its own
    stationarity self-check), estimate L_inf at each level through the escape
    proxy, and compare each level's sample to the reference level by KS.
    The default threshold is 0.05 but never below the two-sample KS critical
    value at the actual n, so small ensembles are not failed on pure noise.
    start_from_rho=False is the documented negative control: started from a
    fixed point, jump processes need not be level-invariant.
    """
    require_local_times(triplet, "invariance check")
    triplet.positive_mean("invariance check")

    over = invariance_level_refusal(x_list) or bandwidth_refusal(triplet, dt, bandwidth)
    if over is not None:
        raise PreconditionViolation(*over)
    levels = np.asarray(sorted(set(float(x) for x in x_list)), dtype=float)
    reference = 1.0 if 1.0 in levels else float(levels[0])

    notes = ""
    if start_from_rho:
        rho, self_ks, rho_level = stationary_overshoot(
            triplet, n_rho, seed=derive_seed(seed, "rho-harvest"), dt=dt, threads=threads
        )
        gate = ks_critical(n_rho, n_rho, 0.01)
        if self_ks > gate:
            raise PreconditionViolation(
                "RHO_NOT_STATIONARY",
                f"overshoot self-check KS {self_ks:.4f} > {gate:.4f} at level {rho_level:g}",
            )
        notes = f"rho from level {rho_level:g} (self-check KS {self_ks:.4f}); "
    notes += f"n={n}, levels {levels.tolist()}, reference {reference:g}"

    escape, chunk_horizon = invariance_horizon(triplet, levels, dt)

    def one_block(seeds: list[int]) -> np.ndarray:
        if start_from_rho:
            starts = [float(rho.draw(stream(derive_seed(s, "start")), 1)[0]) for s in seeds]
        else:
            starts = [0.0] * len(seeds)
        return _local_time_proxy(triplet, starts, seeds, levels, bandwidth, dt, escape, chunk_horizon)

    samples = ensemble(one_block, seed, "linf", n, path_pieces(triplet, chunk_horizon, dt), threads)
    if threshold is None:
        threshold = max(0.05, ks_critical(n, n, ks_alpha))
    ref_idx = int(np.nonzero(levels == reference)[0][0])
    stats = [
        ks_two_sample(samples[:, j], samples[:, ref_idx])
        for j in range(levels.size)
        if j != ref_idx
    ]
    statistic = max(stats) if stats else 0.0
    return CheckReport(
        name="local_time_invariance",
        statistic=statistic,
        threshold=threshold,
        notes=notes,
    )


def lln_t0_floor(triplet: LevyTriplet) -> float:
    """Smallest t0 the LLN envelope accepts: 50 v / mu^2, for a mean mu in (0, inf).

    v is sigma^2 + int x^2 nu(dx) for compound Poisson, where every jump
    counts, and sigma_eff^2 (jumps of size <= 1 only) for the other families.
    """
    mu = triplet.positive_mean("LLN envelope")
    nu = triplet.levy_measure
    if isinstance(nu, CompoundPoisson):
        v = triplet.gaussian_coef + nu.rate * nu.jump_law.second_moment()
    else:
        v = triplet.effective_volatility_sq()
    return 50.0 * v / (mu * mu)


def lln_t0_refusal(triplet: LevyTriplet, t0: float) -> tuple[str, str] | None:
    """("T0_RANGE", problem) when t0 lies below lln_t0_floor; no floor without a mean in (0, inf)."""
    floor = lln_t0_floor(triplet) if triplet.mean().is_finite_positive else 0.0
    return None if t0 >= floor else ("T0_RANGE", f"need t0 >= 50 v/mu^2 = {floor:g}, got {t0:g}")


def lln_envelope_check(
    triplet: LevyTriplet,
    t0: float,
    n: int,
    seed: int = 0,
    dt: float = 1e-2,
    horizon: float | None = None,
    threads: int = 1,
) -> CheckReport:
    """Fraction of paths staying inside (mu t / 2, 2 mu t) for all t >= t0.

    A path is read at t0 and at its knots in (t0, horizon] (_inside_envelope).
    Between knots both the path and the envelope are linear, so this covers
    every t >= t0 (on a grid path t0 is a knot).
    """
    mu = triplet.positive_mean("LLN envelope")
    over = lln_t0_refusal(triplet, t0)
    if over is not None:
        raise PreconditionViolation(*over)
    if horizon is None:
        horizon = 4.0 * t0
    if not horizon > t0:
        raise PreconditionViolation("HORIZON_RANGE", f"need horizon > t0 = {t0:g}, got {horizon:g}")

    inside = ensemble(lambda seeds: _inside_envelope(sample_paths(triplet, horizon, dt, seeds), t0, mu),
                      seed, "lln", n, path_pieces(triplet, horizon, dt), threads)
    fraction = float(np.mean(inside))
    return CheckReport(
        name="lln_envelope",
        statistic=1.0 - fraction,
        threshold=0.01,
        notes=f"fraction {fraction:.4f} inside envelope for t in [{t0:g}, {horizon:g}]",
    )


def _inside_envelope(block: PathBlock, t0: float, mu: float) -> np.ndarray:
    """Per row, whether the path lies inside (mu t / 2, 2 mu t) at t0 and at each knot after t0."""
    at = block.at([t0])
    t, v = block.times, block.values
    later = ((v > 0.5 * mu * t) & (v < 2.0 * mu * t)) | (t <= t0)
    return (at[:, 0] > 0.5 * mu * t0) & (at[:, 0] < 2.0 * mu * t0) & later.all(axis=1)
