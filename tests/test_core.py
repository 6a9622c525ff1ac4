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
        schedule=StepSizeSchedule(1e-3),
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
    # a grid's cell width derives from its size; edge spaces have width one
    for n in (1, 3, 50, 200):
        assert StateSpace(n, "grid").delta == 1.0 / n
    assert StateSpace(7, "edges").delta == 1.0
    with pytest.raises(TypeError):
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
    StepSizeSchedule(0.5)
    with pytest.raises(ConfigError):
        StepSizeSchedule(1.0)
    with pytest.raises(ConfigError):
        StepSizeSchedule(0.0)
    with pytest.raises(ConfigError):
        StepSizeSchedule(0.5, b=-1.0)


def test_expl_every_below_one_is_a_config_error():
    # 0 used to write no exploitability and -7 one at t = 0 alone
    for expl_every in (0, -7):
        with pytest.raises(ConfigError, match="expl_every"):
            make_cfg(expl_every=expl_every)
    assert make_cfg(expl_every=None).expl_every is None
    assert make_cfg(expl_every=1).expl_every == 1


def test_run_config_validation():
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
