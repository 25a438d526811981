"""Almost-sure finiteness of perpetual integrals of transient Levy processes.

Three layers share one triplet representation:

  analysis    analytic verdicts (local times, potential density, tail test)
  simulate /  exact-event path sampling, first passage, overshoot laws,
  passage /   occupation fields
  localtime
  harness     statistical checks wiring the two together (cli.py is the CLI)
"""

__version__ = "0.1.0"  # set first: runner imports it while this package loads

from .analysis import (
    Convergence,
    ConvergenceDecision,
    LocalTimeDecision,
    PotentialDensity,
    PreconditionRecord,
    Verdict,
    VerdictReport,
    expectation_upper_bound,
    local_time_criterion,
    perpetual_verdict,
    potential_density,
    tail_integral_test,
)
from .benchmarks import BenchmarkCase, benchmark_matrix
from .config import ExperimentConfig, load_config
from .errors import (
    BandwidthTooSmall,
    ConfigError,
    InversionUnstable,
    NonFiniteParameter,
    NotReachedError,
    PerpetuaError,
    PreconditionViolation,
    QuadratureFailure,
)
from .extended import ExtendedReal
from .harness import (
    CheckReport,
    FinitenessEstimate,
    finiteness_probability,
    lln_envelope_check,
    local_time_law_invariance_check,
    occupation_identity_check,
    overshoot_stationarity_check,
    zero_one_check,
)
from .jumps import ConstantJump, ExponentialJump, TwoSidedExponentialJump, UniformJump
from .localtime import LocalTimeField, local_time_field
from .measures import (
    CompoundPoisson,
    NoJumps,
    StableLike,
    TemperedStable,
)
from .passage import (
    EmpiricalDistribution,
    FirstPassageSample,
    first_passage,
    overshoot_ensemble,
    stationary_overshoot,
)
from .runner import run_experiment, simulate_paths
from .simulate import PathSample, perpetual_estimate, sample_path
from .stats import ks_critical, ks_one_sample, ks_two_sample
from .testfunctions import (
    ExpDecay,
    Indicator,
    LogPower,
    PowerTail,
    Scaled,
    SumOf,
    Tabulated,
    TestFunction,
    test_function_from_dict,
)
from .triplet import ClassificationFlags, LevyTriplet

__all__ = [
    "__version__",
    # core representation
    "LevyTriplet", "ClassificationFlags", "ExtendedReal",
    "NoJumps", "CompoundPoisson", "StableLike", "TemperedStable",
    "ConstantJump", "ExponentialJump", "TwoSidedExponentialJump", "UniformJump",
    # integrands
    "TestFunction", "ExpDecay", "PowerTail", "LogPower", "Indicator",
    "Tabulated", "Scaled", "SumOf",
    "test_function_from_dict",
    # analysis
    "LocalTimeDecision", "Convergence", "Verdict",
    "ConvergenceDecision", "PotentialDensity", "PreconditionRecord", "VerdictReport",
    "local_time_criterion", "potential_density", "tail_integral_test",
    "perpetual_verdict", "expectation_upper_bound",
    # simulation
    "PathSample", "LocalTimeField", "sample_path", "perpetual_estimate",
    "local_time_field",
    "FirstPassageSample", "EmpiricalDistribution", "first_passage",
    "overshoot_ensemble", "stationary_overshoot",
    # statistics and harness
    "ks_two_sample", "ks_one_sample", "ks_critical",
    "CheckReport", "FinitenessEstimate", "finiteness_probability",
    "zero_one_check", "occupation_identity_check", "overshoot_stationarity_check",
    "local_time_law_invariance_check", "lln_envelope_check",
    "ExperimentConfig", "load_config", "run_experiment", "simulate_paths",
    "BenchmarkCase", "benchmark_matrix",
    # errors
    "PerpetuaError", "NonFiniteParameter", "PreconditionViolation",
    "QuadratureFailure", "InversionUnstable",
    "BandwidthTooSmall", "NotReachedError", "ConfigError",
]
