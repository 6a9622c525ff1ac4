"""Learning mean field games with a unified (value, population) parameter:
single-loop stochastic semi-gradient descent with population-aware linear
function approximation, online fixed-point-iteration baselines, a
model-based reference solver, and benchmark environments.
"""

from .core import (
    ActionSpace,
    ConfigError,
    Observation,
    RunConfig,
    StateSpace,
    StepSizeSchedule,
    UnifiedParameter,
)
from .envs import (
    EnvironmentModel,
    NetworkLoadError,
    flocking_env,
    ring_road_env,
    sioux_falls_env,
    toy_finite_env,
)
from .learners import (
    ReferenceSolution,
    RunRecord,
    model_based_fpi_fp,
    run_online_fpi,
    run_semisgd,
    step_size,
)
from .lfa import (
    FeatureMap,
    MeasureBasis,
    gram_matrix,
    one_hot_feature_map,
    one_hot_measure_basis,
    project_simplex,
    semi_gradient_eta,
    semi_gradient_theta,
    tan_normal_basis,
)
from .metrics import (
    MetricsError,
    exploitability,
    induced_population,
    mean_path_semigradient,
    policy_evaluation,
    span_residual,
    value_iteration,
)
from .policy import (
    PolicyOperator,
    argmax_operator,
    policy_matrix,
    sample_action,
    softmax_operator,
)

__version__ = "0.1.0"
