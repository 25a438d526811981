"""Decision procedures: local times, tail convergence, potential density, verdict.

The verdict machinery turns a process triplet plus a test function into one of
AS_FINITE / AS_INFINITE / UNDECIDED; UNDECIDED names the paper's hypothesis
that fails.  Every question the verdict asks is answered exactly: the
local-time hypothesis is read off the triplet's closed form, and every
test-function family states one closed form, int_a^b f with infinite ends
allowed (integral_between), so the tail test reads its verdict from
int_0^inf f, with the exact dyadic block sums as its certificate.

Quadrature is left only where the answer is a number: the sup u factor of
the expectation bound and the potential density.

Quadrature strategy
-------------------
Improper integrals over r of functions of the characteristic exponent are
split into dyadic blocks [2^k, 2^(k+1)].  Each block is integrated by composite
Gauss-Legendre with panel doubling until two consecutive refinements agree;
the doubling also resolves oscillatory integrands (jump laws with atoms make
Re(1/Psi) ring at the jump-size frequency).  Tail behaviour is then read
off the block sums, never from pointwise extrapolation.

Memoization
-----------
The sup u factor of the expectation bound depends on the process only, the
tail test on f only, so _sup_bound is an lru_cache per triplet and
tail_integral_test one per test function, each of _MEMO_SIZE entries.
Inputs are frozen dataclasses that hash by value (a Tabulated or SumOf
built from lists stores tuples).  A refused bound is not cached.  Every
input was checked when it was built, so no routine here validates it again.

The sup bound is one integral: sup u = u(0) = 1/(2 mu) + (1/pi) int_0^inf
Re(1/Psi(r)) dr, plus 1/(2|d|) for finite variation without a Gaussian part
(d the pathwise drift); its slack covers the block residuals and both
closed remainders (see expectation_upper_bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    InversionUnstable,
    NonFiniteParameter,
    PreconditionViolation,
    QuadratureFailure,
)
from .testfunctions import TestFunction
from .triplet import ClassificationFlags, LevyTriplet

__all__ = [
    "LocalTimeDecision",
    "Convergence",
    "Verdict",
    "ConvergenceDecision",
    "PotentialDensity",
    "PreconditionRecord",
    "VerdictReport",
    "local_time_criterion",
    "require_local_times",
    "potential_density",
    "tail_integral_test",
    "perpetual_verdict",
    "expectation_upper_bound",
    "REASON_IS_COMPOUND_POISSON",
    "REASON_MEAN_NOT_FINITE_POSITIVE",
    "REASON_NO_LOCAL_TIMES",
]


class LocalTimeDecision(Enum):
    HAS_LOCAL_TIMES = "HAS_LOCAL_TIMES"
    NO_LOCAL_TIMES = "NO_LOCAL_TIMES"


class Convergence(Enum):
    CONVERGES = "CONVERGES"
    DIVERGES = "DIVERGES"


class Verdict(Enum):
    AS_FINITE = "AS_FINITE"
    AS_INFINITE = "AS_INFINITE"
    UNDECIDED = "UNDECIDED"


REASON_IS_COMPOUND_POISSON = "IS_COMPOUND_POISSON"
REASON_MEAN_NOT_FINITE_POSITIVE = "MEAN_NOT_FINITE_POSITIVE"
REASON_NO_LOCAL_TIMES = "NO_LOCAL_TIMES"

_MEMO_SIZE = 256  # entries of each cache (see Memoization)


# -------------------------------------------------------------------------
# block quadrature

@lru_cache(maxsize=8)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


# Points per call of a quadrature integrand, at most.  Its complex temporaries
# then stay at 64 KB, below glibc's default mmap threshold (128 KB), so they
# reuse the heap instead of faulting in fresh pages on every call.
_BLOCK_POINTS = 4096


def _block_integral(func, a: float, b: float) -> tuple[float, float]:
    """Integrate func over [a, b]; returns (value, residual of last refinement).

    Composite 16-point Gauss-Legendre.  The initial panel count scales with
    the block width so oscillations of O(1) wavelength are resolved before
    the convergence check can be fooled; panels then double until two
    consecutive refinements both move the value by less than ~1e-10 relative.
    func is called on at most _BLOCK_POINTS points at a time.
    """
    width = b - a
    nodes, weights = _gl_nodes(16)
    panels = int(min(4096, max(4, math.ceil(width / 16.0))))

    def evaluate(p: int) -> float:
        edges = np.linspace(a, b, p + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        pts = (mid[:, None] + half * nodes[None, :]).ravel()
        vals = np.empty(pts.size)
        for lo in range(0, pts.size, _BLOCK_POINTS):
            vals[lo:lo + _BLOCK_POINTS] = func(pts[lo:lo + _BLOCK_POINTS])
        if not np.all(np.isfinite(vals)):
            raise QuadratureFailure(f"integrand non-finite on [{a:g}, {b:g}]")
        return float(half * np.sum(vals.reshape(p, -1) @ weights))

    value = evaluate(panels)
    agreed = 0
    resid = math.inf
    for _ in range(12):
        panels *= 2
        refined = evaluate(panels)
        resid = abs(refined - value)
        value = refined
        if resid <= 1e-10 * max(abs(value), 1e-12):
            agreed += 1
            if agreed >= 2:
                return value, resid
        else:
            agreed = 0
    return value, resid  # plateaued short of full agreement; caller sees residual


# -------------------------------------------------------------------------
# dyadic decay

_R_MAX = 8192.0  # the sup bound's upward blocks end there


def _dyadic_blocks(integrand, ks, rtol: float) -> tuple[list[float], float, float]:
    """Integrate integrand over [2^k, 2^(k+1)] for k in ks, in order, and fit the decay.

    Returns (block sums, summed residuals, slope): slope is log2 of the
    per-block ratio of a geometric fit to the last four sums, -inf when they
    are all zero; over upward blocks an r^a tail gives a + 1.  With rtol > 0
    the scan stops once the remainder is at most rtol times the sum so far.
    """
    sums, residual = [], 0.0
    try:
        for k in ks:
            value, resid = _block_integral(integrand, 2.0 ** k, 2.0 ** (k + 1))
            sums.append(value)
            residual += resid
            if rtol > 0.0 and len(sums) >= 4:
                if _remainder(sums, _decay_slope(sums)) <= rtol * sum(sums):
                    break
    except NonFiniteParameter as exc:
        raise QuadratureFailure(f"characteristic exponent failed on grid: {exc}") from exc
    return sums, residual, _decay_slope(sums)


def _decay_slope(sums: list[float]) -> float:
    tail = np.asarray(sums[-4:], dtype=float)
    if not np.any(tail):
        return -math.inf
    if np.any(tail <= 0.0) or not np.all(np.isfinite(tail)):
        raise QuadratureFailure("dyadic block sums are not positive finite")
    return float(np.polyfit(np.arange(4.0), np.log2(tail), 1)[0])


def _remainder(sums: list[float], slope: float) -> float:
    """The blocks past the last one, summed as a geometric series at ratio 2^slope."""
    if slope >= 0.0:
        return math.inf
    ratio = 2.0 ** slope
    return sums[-1] * ratio / (1.0 - ratio)


# -------------------------------------------------------------------------
# local-time criterion

def local_time_criterion(triplet: LevyTriplet) -> LocalTimeDecision:
    """Decide whether the process has local times, from the triplet's closed form.

    Hawkes' criterion (Bertoin, Levy Processes, 1996, Thm V.1): local times
    exist iff int Re(1/(1 + Psi(r))) dr < inf.  With Kesten (1969, Mem. AMS
    93) that reads, for the families here: a Gaussian part gives local
    times; finite-variation jumps give them iff the pathwise drift is not 0;
    the infinite-variation families (StableLike and TemperedStable with
    alpha >= 1) give them iff alpha > 1.
    """
    nu = triplet.levy_measure
    if triplet.gaussian_coef > 0.0:
        return LocalTimeDecision.HAS_LOCAL_TIMES
    has = triplet.natural_drift() != 0.0 if nu.finite_variation else nu.alpha > 1.0
    return LocalTimeDecision.HAS_LOCAL_TIMES if has else LocalTimeDecision.NO_LOCAL_TIMES


def require_local_times(triplet: LevyTriplet, what: str) -> None:
    """The theorem's local-time hypothesis: LOCAL_TIMES_REQUIRED unless the criterion holds."""
    decision = local_time_criterion(triplet)
    if decision is not LocalTimeDecision.HAS_LOCAL_TIMES:
        raise PreconditionViolation(
            "LOCAL_TIMES_REQUIRED", f"{what} needs local times, got {decision.value}"
        )


def _pathwise_drift(triplet: LevyTriplet, what: str) -> float | None:
    """The slope d of the path between jumps, where u jumps by 1/|d| at 0, else None.

    Defined without a Gaussian part and with finite variation.  Local times
    exist for any d != 0, but the closed forms divide by d: |d| < 1e-12 (a
    1/(2d) past 5e11) raises InversionUnstable, naming what needed d.
    """
    if triplet.gaussian_coef != 0.0 or not triplet.levy_measure.finite_variation:
        return None
    d = triplet.natural_drift()
    if abs(d) < 1e-12:
        raise InversionUnstable(f"vanishing pathwise drift in finite-variation {what}")
    return d


# -------------------------------------------------------------------------
# potential density by Fourier inversion

@dataclass(frozen=True)
class PotentialDensity:
    """Density u of the expected total occupation measure on a grid."""

    grid: np.ndarray
    u_values: np.ndarray
    sup_bound: float
    error_estimate: float

    def interp(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.u_values)


def potential_density(triplet: LevyTriplet, grid) -> PotentialDensity:
    """Invert 1/Psi to the occupation density u on the given grid.

    Requires local times and a finite positive mean mu.  The integrand
    1/Psi(r) has a simple pole -1/(i mu r) at the origin; we subtract
    i/(mu r (1 + r^2)), whose inverse transform is known in closed form, and
    the constant 1/(2 mu) carried by the pole itself.  For finite-variation
    processes 1/Psi only decays like 1/r (slope d of the path between jumps),
    so a second closed-form subtraction i r / (d (1 + r^2)) is removed as
    well; the remainder then decays at least like 1/r^2 and a truncated
    midpoint rule converges.  For a pure drift both subtractions cancel
    1/Psi exactly and u is recovered in closed form.

    At points where u jumps (x = 0 for processes started continuously) the
    inversion returns the midpoint of the two one-sided limits.
    """
    require_local_times(triplet, "potential density")
    mu = triplet.positive_mean("potential density")

    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise PreconditionViolation("GRID_ORDER", "grid must be non-empty strictly increasing")

    slope = _pathwise_drift(triplet, "inversion")

    def remainder(r: np.ndarray) -> np.ndarray:
        psi = triplet.char_exponent(r)
        g = 1.0 / psi - 1j / (mu * r * (1.0 + r * r))
        if slope is not None:
            g = g - 1j * r / (slope * (1.0 + r * r))
        return g

    x_max = float(np.max(np.abs(grid)))
    h = min(0.05, 2.0 * math.pi / (25.0 * (1.0 + x_max)))
    # slowly decaying remainders would ask for astronomical cutoffs; cap the
    # node count and let the residual show up honestly in error_estimate
    r_ceiling = max(2e3, min(2e5, 1e6 * h))
    r_cut, decay = _choose_truncation(remainder, mu, r_ceiling)

    integral = _oscillatory_integral(remainder, grid, r_cut, h)
    refined = _oscillatory_integral(remainder, grid, r_cut, 0.5 * h)
    tail_corr, tail_slack = _tail_correction(remainder, grid, r_cut, decay)

    base = 1.0 / (2.0 * mu) + np.sign(grid) * (1.0 - np.exp(-np.abs(grid))) / (2.0 * mu)
    if slope is not None:
        base = base + np.sign(grid) * np.exp(-np.abs(grid)) / (2.0 * slope)
    u = base + (refined + tail_corr) / math.pi

    err = np.abs(refined - integral) + tail_slack
    err_max = float(np.max(err))
    u_scale = max(float(np.max(u)), 1.0 / (2.0 * mu))
    if err_max > 0.05 * u_scale:
        raise InversionUnstable(
            f"inversion error estimate {err_max:.3g} exceeds 5% of u scale {u_scale:.3g}"
        )

    u = np.maximum(u, 0.0)
    return PotentialDensity(
        grid=grid,
        u_values=u,
        sup_bound=float(np.max(u)) + err_max,
        error_estimate=err_max,
    )


def _choose_truncation(remainder, mu: float, r_ceiling: float = 2e5) -> tuple[float, float]:
    """Pick the inversion cutoff from the measured decay of the remainder.

    Samples |g| on doubling windows (averaged over a few points to wash out
    jump-law oscillation), fits |g| ~ C r^-gamma, and solves for the cutoff
    that brings the residual tail below a small fraction of the 1/(2 mu)
    scale of u.  Decay gamma <= 1.05 cannot be truncated reliably.
    """
    probes = 64.0 * 2.0 ** np.arange(9, dtype=float)
    levels = []
    for p in probes:
        r = np.linspace(p, p * 1.25, 33)
        levels.append(float(np.mean(np.abs(remainder(r)))))
    levels = np.asarray(levels)
    # closed-form subtractions can cancel 1/Psi exactly (pure drift); what is
    # left is rounding noise and any modest cutoff integrates it harmlessly
    if np.max(levels) < 1e-12 / mu:
        return 2000.0, 2.0
    good = levels > 0.0
    if good.sum() < 3:
        return 4000.0, 2.0
    gamma = -np.polyfit(np.log(probes[good]), np.log(levels[good]), 1)[0]
    if gamma <= 1.05:
        raise InversionUnstable(
            f"remainder decays like r^-{gamma:.2f}; truncated inversion would not converge"
        )
    coef = levels[-1] * probes[-1] ** gamma
    budget = 5e-4 / mu
    r_cut = (coef / (budget * (gamma - 1.0))) ** (1.0 / (gamma - 1.0))
    return float(min(max(r_cut, 2e3), r_ceiling)), float(gamma)


def _oscillatory_integral(remainder, grid: np.ndarray, r_cut: float, h: float) -> np.ndarray:
    """Midpoint rule for int_0^r_cut Re(e^{-irx} g(r)) dr at every grid x.

    The phases e^{-i(j+1/2)hx} over the uniform node index j factor through
    j = a*m + b, turning the node sum into one complex matmul over (a, b)
    blocks instead of an exp over the full grid-by-node outer product.
    """
    n = int(math.ceil(r_cut / h))
    g = np.empty(n, dtype=complex)
    for start in range(0, n, 1_000_000):  # bound peak memory of remainder()
        stop = min(start + 1_000_000, n)
        g[start:stop] = remainder((np.arange(start, stop, dtype=float) + 0.5) * h)

    m = max(1, math.isqrt(n))
    a = (n + m - 1) // m
    blocks = np.zeros(a * m, dtype=complex)
    blocks[:n] = g
    blocks = blocks.reshape(a, m)
    inner = np.exp(-1j * h * np.outer(grid, np.arange(m)))          # (x, b)
    outer = np.exp(-1j * h * m * np.outer(grid, np.arange(a)))      # (x, a)
    partial = blocks @ inner.T                                      # (a, x)
    s = np.sum(outer * partial.T, axis=1)
    return (np.exp(-0.5j * h * grid) * s).real * h


def _tail_correction(remainder, grid: np.ndarray, r_cut: float, decay: float) -> tuple[np.ndarray, np.ndarray]:
    # One integration by parts: residual tail ~ Re(g(R) e^{-iRx} / (ix)); near
    # x = 0 fall back to the fitted power model integrated in closed form.
    g_end = complex(remainder(np.asarray([r_cut]))[0])
    small = np.abs(grid) * r_cut < 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        osc = (g_end * np.exp(-1j * grid * r_cut) / (1j * grid)).real
    flat = g_end.real * r_cut / (decay - 1.0)
    corr = np.where(small, flat, osc)
    slack = 0.5 * np.abs(corr) + abs(g_end) * r_cut / (decay - 1.0) * 1e-3
    return corr, slack


# -------------------------------------------------------------------------
# tail integral test

@dataclass(frozen=True)
class ConvergenceDecision:
    verdict: Convergence
    value_or_lower_bound: float
    blocks_used: int
    diagnostics: tuple[float, ...]  # exact block integrals, head block [0, 1] first
    error_estimate: float

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "value": self.value_or_lower_bound,
            "error_estimate": self.error_estimate,
            "blocks_used": self.blocks_used,
            "diagnostics": list(self.diagnostics),
        }


_MAX_BLOCKS = 64


@lru_cache(maxsize=_MEMO_SIZE)
def tail_integral_test(f: TestFunction) -> ConvergenceDecision:
    """Decide int_0^inf f(x) dx from the family's closed form.

    The value is f.integral_above(0): finite means CONVERGES with that value,
    inf means DIVERGES.  The certificate lists the exact integrals over [0, 1]
    and the dyadic blocks [2^k, 2^(k+1)] (f.integral_between), at most 64
    blocks; a finite tail stops the list before the first block whose
    remainder no longer moves the value in floating point.  A divergent
    integral reports the sum of the listed blocks as its lower bound; the
    list stops before the block that would carry that sum past the float
    range, so the bound is always a float.
    """
    value = float(f.integral_above(0.0))
    sums: list[float] = []
    edges = [0.0] + [2.0 ** k for k in range(_MAX_BLOCKS + 1)]
    for lo, hi in zip(edges, edges[1:]):
        if lo > 0.0 and math.isfinite(value) and value + f.integral_above(lo) == value:
            break
        block = float(f.integral_between(lo, hi))
        if math.isinf(sum(sums) + block):
            break
        sums.append(block)
    if math.isfinite(value):
        return ConvergenceDecision(Convergence.CONVERGES, value, len(sums), tuple(sums), 0.0)
    return ConvergenceDecision(Convergence.DIVERGES, sum(sums), len(sums), tuple(sums), 0.0)


# -------------------------------------------------------------------------
# verdict

@dataclass(frozen=True)
class PreconditionRecord:
    flags: ClassificationFlags
    local_time: LocalTimeDecision
    mean_description: str
    failing: str | None  # first failing precondition, None when all hold

    def to_dict(self) -> dict:
        return {
            "classification": self.flags.to_dict(),
            "local_time": self.local_time.value,
            "mean": self.mean_description,
            "failing": self.failing,
        }


@dataclass(frozen=True)
class VerdictReport:
    verdict: Verdict
    precondition_record: PreconditionRecord
    integral_decision: ConvergenceDecision

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "preconditions": self.precondition_record.to_dict(),
            "integral": self.integral_decision.to_dict(),
        }


def perpetual_verdict(triplet: LevyTriplet, f: TestFunction) -> VerdictReport:
    """Almost-sure finiteness of the running integral of f along the path.

    AS_FINITE / AS_INFINITE as int_0^inf f converges or diverges, when the
    hypotheses hold (not compound Poisson, local times exist, mean in
    (0, inf)); UNDECIDED otherwise with the first failing hypothesis named,
    checked in that order.  Hypothesis failures are reported, not raised.
    """
    flags = triplet.classify()
    lt = local_time_criterion(triplet)

    failing = None
    if flags.is_compound_poisson:
        failing = REASON_IS_COMPOUND_POISSON
    elif lt is LocalTimeDecision.NO_LOCAL_TIMES:
        failing = REASON_NO_LOCAL_TIMES
    elif not flags.mean_is_finite_positive:
        failing = REASON_MEAN_NOT_FINITE_POSITIVE

    integral = tail_integral_test(f)

    if failing is not None:
        verdict = Verdict.UNDECIDED
    elif integral.verdict is Convergence.CONVERGES:
        verdict = Verdict.AS_FINITE
    else:
        verdict = Verdict.AS_INFINITE

    record = PreconditionRecord(
        flags=flags,
        local_time=lt,
        mean_description=flags.mean.describe(),
        failing=failing,
    )
    return VerdictReport(verdict=verdict, precondition_record=record, integral_decision=integral)


def expectation_upper_bound(triplet: LevyTriplet, f: TestFunction) -> float:
    """Upper bound sup_x u(x) * int_R f(x) dx for the mean running integral.

    Valid only when the verdict hypotheses hold and the tail test converges;
    everything else raises PreconditionViolation.  The bound covers mass of
    f on the negative half-line through the full-line integral, and is +inf
    when that integral is (a correct, if useless, bound).

    sup u = u(0) = 1/(2 mu) + (1/pi) int_0^inf Re(1/Psi(r)) dr, since
    u(x) = P(T_x < inf) u(0) (Bertoin, Levy Processes, 1996, ch. II and V).
    Without a Gaussian part and with finite variation u jumps by 1/|d| at 0
    (d the pathwise drift) and the integral is the midpoint, so 1/(2|d|) is
    added.  The integral runs over the dyadic blocks up to r_max = 8192
    and down toward 0, each end closed by the four-block decay fit; the
    slack added is the block residuals plus both closed remainders.  An end
    that does not decay raises InversionUnstable.
    """
    report = perpetual_verdict(triplet, f)
    failing = report.precondition_record.failing
    if failing is not None:
        raise PreconditionViolation(failing, "expectation bound needs the verdict hypotheses")
    if report.integral_decision.verdict is not Convergence.CONVERGES:
        raise PreconditionViolation(
            "TAIL_NOT_CONVERGENT",
            f"expectation bound needs CONVERGES, got {report.integral_decision.verdict.value}",
        )
    return _sup_bound(triplet) * f.integral_full()


@lru_cache(maxsize=_MEMO_SIZE)
def _sup_bound(triplet: LevyTriplet) -> float:
    """u(0) plus its slack (see expectation_upper_bound)."""

    def integrand(r: np.ndarray) -> np.ndarray:
        return (1.0 / triplet.char_exponent(r)).real

    # Toward 0 a stable law's integrand grows like r^(alpha-2), so the scan
    # goes down (at most 64 blocks) until the remainder is 1e-3 of the sum;
    # finite variance stops within a few blocks.
    ends = (("r -> inf", range(int(math.log2(_R_MAX))), 0.0), ("r -> 0", range(-1, -65, -1), 1e-3))
    value, slack = 1.0 / (2.0 * triplet.mean().as_float()), 0.0
    for end, ks, rtol in ends:
        sums, residual, slope = _dyadic_blocks(integrand, ks, rtol)
        if slope >= 0.0:
            raise InversionUnstable(
                f"Re(1/Psi) blocks do not decay toward {end} (fitted ratio {2.0 ** slope:.3g})"
            )
        value += sum(sums) / math.pi
        slack += (residual + _remainder(sums, slope)) / math.pi
    d = _pathwise_drift(triplet, "sup bound")
    if d is not None:
        value += 1.0 / (2.0 * abs(d))
    return value + slack
