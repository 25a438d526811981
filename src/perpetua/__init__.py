"""Almost-sure finiteness of perpetual integrals of transient Levy processes.

Three layers share one triplet representation:

  analysis    analytic verdicts (local times, potential density, tail test)
  simulate /  exact-event path sampling, first passage, overshoot laws,
  passage     occupation fields
  harness     statistical checks wiring the two together, plus the CLI
"""

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
    EvaluationError,
    InversionUnstable,
    NonFiniteParameter,
    NotReachedError,
    PerpetuaError,
    PreconditionViolation,
    QuadratureFailure,
    StepTooCoarse,
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
from .measures import (
    CompoundPoisson,
    NoJumps,
    StableLike,
    TemperedStable,
)
from .passage import (
    EmpiricalDistribution,
    FirstPassageSample,
    RestartedPathSource,
    first_passage,
    overshoot_ensemble,
    stationary_overshoot,
)
from .runner import run_experiment, simulate_paths
from .simulate import (
    LocalTimeField,
    PathSample,
    local_time_field,
    perpetual_estimate,
    sample_path,
)
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
    test_function_to_dict,
)
from .triplet import ClassificationFlags, LevyTriplet, triplet_from_json

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core representation
    "LevyTriplet", "ClassificationFlags", "ExtendedReal", "triplet_from_json",
    "NoJumps", "CompoundPoisson", "StableLike", "TemperedStable",
    "ConstantJump", "ExponentialJump", "TwoSidedExponentialJump", "UniformJump",
    # integrands
    "TestFunction", "ExpDecay", "PowerTail", "LogPower", "Indicator",
    "Tabulated", "Scaled", "SumOf",
    "test_function_from_dict", "test_function_to_dict",
    # analysis
    "LocalTimeDecision", "Convergence", "Verdict",
    "ConvergenceDecision", "PotentialDensity", "PreconditionRecord", "VerdictReport",
    "local_time_criterion", "potential_density", "tail_integral_test",
    "perpetual_verdict", "expectation_upper_bound",
    # simulation
    "PathSample", "LocalTimeField", "sample_path", "perpetual_estimate",
    "local_time_field",
    "FirstPassageSample", "EmpiricalDistribution", "first_passage",
    "overshoot_ensemble", "stationary_overshoot", "RestartedPathSource",
    # statistics and harness
    "ks_two_sample", "ks_one_sample", "ks_critical",
    "CheckReport", "FinitenessEstimate", "finiteness_probability",
    "zero_one_check", "occupation_identity_check", "overshoot_stationarity_check",
    "local_time_law_invariance_check", "lln_envelope_check",
    "ExperimentConfig", "load_config", "run_experiment", "simulate_paths",
    "BenchmarkCase", "benchmark_matrix",
    # errors
    "PerpetuaError", "NonFiniteParameter", "PreconditionViolation",
    "QuadratureFailure", "InversionUnstable", "EvaluationError",
    "StepTooCoarse", "BandwidthTooSmall", "NotReachedError", "ConfigError",
]
