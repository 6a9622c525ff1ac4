import numpy as np
import pytest

from mfglearn.core import (
    ActionSpace,
    ConfigError,
    RunConfig,
    StateSpace,
    StepSizeSchedule,
    UnifiedParameter,
)

from .conftest import eta_on_simplex, validate_parameter


def make_cfg(**kwargs):
    defaults = dict(
        total_steps=100,
        schedule=StepSizeSchedule("constant", 1e-3),
        gamma=0.9,
        inverse_temperature=10.0,
        ball_radius=5.0,
        seed=0,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_validate_parameter_uniform_point():
    xi = UnifiedParameter(theta=np.zeros(4), eta=np.full(4, 0.25))
    assert validate_parameter(xi, make_cfg())


def test_validate_parameter_rejects_bad_sum():
    xi = UnifiedParameter(theta=np.zeros(2), eta=np.array([0.5, 0.6]))
    assert not validate_parameter(xi, make_cfg())


def test_validate_parameter_rejects_ball_violation():
    cfg = make_cfg(ball_radius=1.0)
    theta = np.zeros(3)
    theta[0] = 2.0  # norm is 2 * D
    xi = UnifiedParameter(theta=theta, eta=np.array([1.0, 0.0, 0.0]))
    assert not validate_parameter(xi, cfg)


def test_eta_on_simplex_edge_cases():
    assert eta_on_simplex(np.array([1.0]))
    assert eta_on_simplex(np.array([0.5, 0.5]))
    assert not eta_on_simplex(np.array([0.5, 0.5 + 1e-9]))
    assert not eta_on_simplex(np.array([-1e-9, 1.0 + 1e-9]))
    assert not eta_on_simplex(np.array([np.nan, 1.0]))


def test_state_space_grid_must_cover_unit_interval():
    StateSpace(size=50, kind="grid", delta=0.02)
    with pytest.raises(ConfigError):
        StateSpace(size=50, kind="grid", delta=0.05)
    with pytest.raises(ConfigError):
        StateSpace(size=0)


def test_action_space_requires_nonempty_masks():
    ActionSpace(size=3, feasible=(np.array([0]), np.array([1, 2])))
    with pytest.raises(ConfigError):
        ActionSpace(size=3, feasible=(np.array([], dtype=int),))
    with pytest.raises(ConfigError):
        ActionSpace(size=2, feasible=(np.array([5]),))


def test_schedule_validation():
    StepSizeSchedule("constant", 0.5)
    with pytest.raises(ConfigError):
        StepSizeSchedule("constant", 1.0)
    with pytest.raises(ConfigError):
        StepSizeSchedule("constant", 0.0)
    with pytest.raises(ConfigError):
        StepSizeSchedule("linear-decay", 0.5, b=-1.0)
    with pytest.raises(ConfigError):
        StepSizeSchedule("geometric", 0.5)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        make_cfg(gamma=1.0)
    with pytest.raises(ConfigError):
        make_cfg(inverse_temperature=0.0)
    with pytest.raises(ConfigError):
        make_cfg(algorithm="fpi-vanilla")  # missing inner_k
    make_cfg(algorithm="fpi-vanilla", inner_k=10)
    make_cfg(algorithm="fpi-vanilla", inner_k=100)  # K = T: one pass
    with pytest.raises(ConfigError, match="exceeds the sample budget"):
        make_cfg(algorithm="fpi-vanilla", inner_k=101)
    with pytest.raises(ConfigError):
        make_cfg(algorithm="sgd")
