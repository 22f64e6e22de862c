"""Fair allocation of a fixed resource across groups with stochastic demand.

Exact availability/utilization/fairness metrics, water-filling and
fairness-constrained optimizers, price-of-fairness measurement, lower-tail
concentration certificates, and Monte Carlo validation.
"""

__version__ = "0.1.0"

from .distributions import (
    Binomial,
    Constant,
    DemandDistribution,
    DistributionError,
    Empirical,
    Exponential,
    Normal,
    Poisson,
    TwoPoint,
)
from .metrics import (
    Allocation,
    EvaluationReport,
    Group,
    Scenario,
    availability,
    evaluate,
    fairness,
    group_availabilities,
    is_alpha_fair,
    utilization,
)
from .certificates import (
    CertificateError,
    TailCertificate,
    TheoreticalBounds,
    bennett_h,
    chernoff_delta,
    exact_lower_deviation,
    min_parameter_threshold,
    scenario_certificate,
    theoretical_bounds,
)
from .allocation import (
    ConvergenceError,
    InfeasibleError,
    OptimizerError,
    PofResult,
    alpha_fair_optimal,
    max_utilization,
    mean_weighted,
    pof,
)
from .montecarlo import McEstimate, McReport, estimate_expected_min, estimate_report
from .scenario_io import (
    ScenarioError,
    ScenarioFile,
    emit_availability_curve,
    load_scenario_file,
    load_scenario_path,
    parse_scenario,
    serialize_scenario,
)

__all__ = [
    "__version__",
    "Allocation",
    "Binomial",
    "CertificateError",
    "Constant",
    "ConvergenceError",
    "DemandDistribution",
    "DistributionError",
    "Empirical",
    "EvaluationReport",
    "Exponential",
    "Group",
    "InfeasibleError",
    "McEstimate",
    "McReport",
    "Normal",
    "OptimizerError",
    "Poisson",
    "PofResult",
    "Scenario",
    "ScenarioError",
    "ScenarioFile",
    "TailCertificate",
    "TheoreticalBounds",
    "TwoPoint",
    "alpha_fair_optimal",
    "availability",
    "bennett_h",
    "chernoff_delta",
    "emit_availability_curve",
    "estimate_expected_min",
    "estimate_report",
    "evaluate",
    "exact_lower_deviation",
    "fairness",
    "group_availabilities",
    "is_alpha_fair",
    "load_scenario_file",
    "load_scenario_path",
    "max_utilization",
    "mean_weighted",
    "min_parameter_threshold",
    "parse_scenario",
    "pof",
    "scenario_certificate",
    "serialize_scenario",
    "theoretical_bounds",
    "utilization",
]
