"""Grid, mode bookkeeping, and the exactness of the angular transform pair."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenctrl import (ConfigError, Field2D, ModeCoeffs, ModeIndex,
                       ModelConfig, assemble_radial_operator, build_model,
                       build_radial_grid, coeffs_inner, mode_set,
                       project_modes, synthesize_field)
from degenctrl.model import angular_basis_value, field_norm2


def test_mode_set_order_and_count():
    modes = mode_set(3)
    assert len(modes) == 7
    assert modes[:4] == tuple(ModeIndex("cos", n) for n in range(4))
    assert modes[4:] == tuple(ModeIndex("sin", n) for n in range(1, 4))


def test_mode_index_rejects_sin_zero():
    with pytest.raises(ConfigError):
        ModeIndex("sin", 0)
    with pytest.raises(ConfigError):
        ModeIndex("tan", 1)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(alpha=1.5, T_horizon=1.0, n_theta_max=2, n_r=16)
    with pytest.raises(ConfigError):
        ModelConfig(alpha="0.5", T_horizon=1.0, n_theta_max=2, n_r=16)
    with pytest.raises(ConfigError):
        ModelConfig(alpha=True, T_horizon=1.0, n_theta_max=2, n_r=16)
    with pytest.raises(ConfigError):
        ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=2, n_r=4)
    cfg = ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=2, n_r=16)
    assert cfg.grid_power == pytest.approx(2.0 / 1.5)
    assert cfg.theta_quad_points == 16


def test_constant_mode_value():
    val = angular_basis_value(ModeIndex("cos", 0), 1.2345)
    assert float(val) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                       abs=1e-15)
    # unit torus norm for an oscillating mode, exact quadrature
    theta = np.arange(16) * (2.0 * math.pi / 16)
    g = angular_basis_value(ModeIndex("sin", 3), theta)
    assert float(np.sum(g * g) * (2.0 * math.pi / 16)) == pytest.approx(1.0)


def test_basis_orthonormal_under_quadrature(desk_model):
    b = desk_model.basis_matrix
    gram = desk_model.theta_weight * (b.T @ b)
    assert np.max(np.abs(gram - np.eye(desk_model.n_modes))) < 1e-12


def test_radial_grid_shapes_and_monotonicity():
    grid = build_radial_grid(0.3, 40, 2.0 / 1.7)
    assert grid.nodes.size == 39
    assert grid.mass.size == 39
    assert grid.half_nodes.size == 40
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.mass > 0)
    # cells tile the span between the first and last half nodes
    assert np.sum(grid.mass) == pytest.approx(
        grid.half_nodes[-1] - grid.half_nodes[0], rel=1e-14)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_model_operator_is_the_assembled_one_bitwise(alpha):
    cfg = ModelConfig(alpha=alpha, T_horizon=1.0, n_theta_max=2, n_r=40)
    model = build_model(cfg)
    ref = assemble_radial_operator(cfg.alpha, model.grid)
    assert model.op.alpha == cfg.alpha and model.op.grid is model.grid
    for name in ("diag", "off", "conductance"):
        assert getattr(model.op, name).tobytes() == getattr(ref, name).tobytes()


def test_band_is_the_open_interval_of_nodes():
    grid = build_radial_grid(0.5, 20, 4.0 / 3.0)
    mask = grid.band(grid.nodes[3], grid.nodes[9])
    assert mask.dtype == bool
    assert np.flatnonzero(mask).tolist() == list(range(4, 9))
    assert not grid.band(0.0, grid.nodes[0]).any()


def test_mode_position_roundtrip(desk_model):
    for i, m in enumerate(desk_model.modes):
        assert desk_model.mode_position(m) == i


def test_field_shape_rejected(desk_model):
    with pytest.raises(ConfigError):
        Field2D(desk_model, np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        ModeCoeffs(desk_model, np.zeros((1, 1)))
    bad = np.full((desk_model.config.theta_quad_points,
                   desk_model.n_radial), np.nan)
    with pytest.raises(ConfigError):
        Field2D(desk_model, bad)


def test_project_synthesize_identity(desk_model, rng):
    for _ in range(10):
        data = rng.standard_normal((desk_model.n_modes, desk_model.n_radial))
        coeffs = ModeCoeffs(desk_model, data)
        back = project_modes(synthesize_field(coeffs))
        assert np.max(np.abs(back.data - data)) < 1e-12


def test_parseval_identity(desk_model, rng):
    for _ in range(50):
        data = rng.standard_normal((desk_model.n_modes, desk_model.n_radial))
        coeffs = ModeCoeffs(desk_model, data)
        n_modes = coeffs_inner(coeffs, coeffs)
        n_field = field_norm2(synthesize_field(coeffs))
        assert abs(n_field - n_modes) <= 1e-10 * n_modes


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.booleans(), st.booleans())
def test_basis_pair_quadrature_orthogonality(n1, n2, s1, s2):
    # exact rectangle-rule pairing for any two retained modes
    if (s1 and n1 == 0) or (s2 and n2 == 0):
        return
    m1 = ModeIndex("sin" if s1 else "cos", n1)
    m2 = ModeIndex("sin" if s2 else "cos", n2)
    q = 4 * 6 + 8
    theta = np.arange(q) * (2.0 * math.pi / q)
    val = float(np.sum(angular_basis_value(m1, theta)
                       * angular_basis_value(m2, theta)) * 2.0 * math.pi / q)
    assert val == pytest.approx(1.0 if m1 == m2 else 0.0, abs=1e-12)
