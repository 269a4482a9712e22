"""Grid, mode bookkeeping, and the exactness of the angular transform pair."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from degenctrl import (BoxUnionSet, ConfigError, Field2D, InvariantError,
                       ModeCoeffs, ModeIndex, ModelConfig, TimeSliceSet,
                       assemble_radial_operator, bessel_oracle, build_model,
                       build_radial_grid, build_time_slices, coeffs_inner,
                       datum_family, mode_set, project_modes,
                       radial_spectrum, slab_interpolation_report,
                       synthesize_field, torus_smallest_gram_eigenvalue,
                       truncated_observability)
from degenctrl.model import angular_basis_value, check_interval, field_norm2


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


@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]))
def test_alpha_range_is_one_rule(alpha):
    grid = build_radial_grid(16, 2.0)

    def outcome(make):
        # the message of a refusal, None past the range rule: an alpha
        # within 2^-53 of 1 passes it, though its face conductances are
        # not finite
        try:
            make()
        except ConfigError as exc:
            return str(exc)
        except InvariantError:
            pass
        return None

    refusals = {
        outcome(lambda: ModelConfig(alpha=alpha, T_horizon=1.0,
                                    n_theta_max=0, n_r=16)),
        outcome(lambda: assemble_radial_operator(alpha, grid)),
        outcome(lambda: bessel_oracle(alpha, 1)),
    }
    assert len(refusals) == 1
    assert refusals == {None if 0.0 < alpha < 1.0
                        else f"alpha out of range (0,1): {alpha!r}"}


def test_alpha_next_to_one_is_refused_by_the_grid_it_meets():
    # r^(1 - alpha) rounds to one value at neighbouring nodes, so the
    # threshold depends on the grid: 1 - 1e-15 builds at n_r 8 only
    def config(alpha, n_r):
        return ModelConfig(alpha=alpha, T_horizon=1.0, n_theta_max=0,
                           n_r=n_r)

    build_model(config(1.0 - 1e-15, 8))
    build_model(config(1.0 - 1e-14, 40))
    for alpha, n_r in ((1.0 - 1e-15, 40), (1.0 - 2.0 ** -53, 8)):
        with pytest.raises(ConfigError) as refused:
            build_model(config(alpha, n_r))
        assert f"alpha {alpha!r}" in str(refused.value)
        assert f"n_r = {n_r}" in str(refused.value)


@pytest.mark.parametrize("pair, low, high, want", [
    ((0, 1), 0.0, 1.0, (0.0, 1.0)),
    ((-1e-12, 1.0 + 1e-12), 0.0, 1.0, (-1e-12, 1.0 + 1e-12)),
    ([0.3, 0.45], 0.3, 0.6, (0.3, 0.45)),
    ((-2e-12, 0.5), 0.0, 1.0, None),
    ((0.5, 1.0 + 2e-12), 0.0, 1.0, None),
    ((0.5, 0.5), 0.0, 1.0, None),
    ((0.6, 0.3), 0.0, 1.0, None),
    ((0.2, 0.45), 0.3, 0.6, None),
])
def test_interval_rule(pair, low, high, want):
    if want is None:
        with pytest.raises(ConfigError) as refused:
            check_interval("band", pair, low, high)
        assert str(refused.value) == (
            f"band must satisfy {low!r} <= lo < hi <= {high!r}, "
            f"got ({float(pair[0])!r}, {float(pair[1])!r})")
    else:
        got = check_interval("band", pair, low, high)
        assert got == want
        assert all(type(x) is float for x in got)


@pytest.mark.parametrize("edge, message", [
    (math.nan, "band must be a finite number, got nan"),
    (10 ** 400, "band must be a finite number, got 1000"),
    (True, "band must be a number, got True"),
    ("0.5", "band must be a number, got '0.5'"),
    (None, "band must be a number, got None"),
])
def test_interval_rule_takes_numbers_by_the_number_rule(edge, message):
    for pair in ((edge, 0.5), (0.1, edge)):
        with pytest.raises(ConfigError) as refused:
            check_interval("band", pair, 0.0, 1.0)
        assert str(refused.value).startswith(message)


def test_every_interval_goes_through_the_rule():
    # each caller of check_interval refuses the same bad pairs with the
    # rule's own message, led by its key
    model = build_model(ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=2,
                                    n_r=16, n_time=8))
    spec = radial_spectrum(model.op, 2)
    phi0 = ModeCoeffs(model, np.ones((model.n_modes, model.n_radial)))
    theta, r, t = (0.5, 2.0), (0.32, 0.45), (0.05, 0.45)

    def region(box=(theta, r, t), band=(0.3, 0.6)):
        return BoxUnionSet(boxes=(box,), band_a=band[0], band_b=band[1],
                           horizon=1.0)

    def slab(t12, slices=None):
        good = region()
        return slab_interpolation_report(
            phi0, *t12, slices or build_time_slices(good), good)

    def callers(bad):
        return [
            ("radial band", lambda: region(band=bad)),
            ("box 0 theta", lambda: region(box=(bad, r, t))),
            ("box 0 r", lambda: region(box=(theta, bad, t))),
            ("box 0 t", lambda: region(box=(theta, r, bad))),
            ("time interval 1", lambda: TimeSliceSet(
                threshold=0.0, intervals=((0.1, 0.2), bad), horizon=1.0)),
            ("slab (t1, t2)", lambda: slab(bad)),
            ("angular patch", lambda: torus_smallest_gram_eigenvalue(2, bad)),
            ("angular patch", lambda: truncated_observability(
                model, spec, bad, 0.3, 0.6, 0, k_max=2)),
        ]

    for bad, wording in (((0.6, 0.3), "must satisfy"),
                         ((-1.0, 0.5), "must satisfy"),
                         ((math.nan, 0.5), "must be a finite number")):
        for key, call in callers(bad):
            with pytest.raises(ConfigError) as refused:
                call()
            assert str(refused.value).startswith(f"{key} {wording}"), key
    # the kept set of a slab must sit inside it
    kept = TimeSliceSet(threshold=0.0, intervals=((0.3, 0.5),), horizon=1.0)
    with pytest.raises(ConfigError) as refused:
        slab((0.4, 0.6), kept)
    assert str(refused.value) == ("kept time interval must satisfy 0.4 <= "
                                  "lo < hi <= 0.6, got (0.3, 0.5)")


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
    grid = build_radial_grid(40, 2.0 / 1.7)
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
    # the full eigenbasis is solved once, from the model's own operator
    full = radial_spectrum(model.op, model.n_radial)
    assert model.spectrum is model.spectrum
    assert model.spectrum.grid is model.grid
    assert np.array_equal(model.spectrum.values, full.values)
    assert np.array_equal(model.spectrum.vectors, full.vectors)


def test_mu_is_the_spectrum_plus_n_squared_in_one_order(meas_model):
    model = meas_model
    mu, order = model.mu, model.mu_order
    freqs = np.array([m.n for m in model.modes], dtype=float)
    expected = model.spectrum.values[None, :] + freqs[:, None] ** 2
    assert mu.shape == (model.n_modes, model.n_radial)
    assert mu.tobytes() == expected.tobytes()
    assert model.mu is mu and model.mu_order is order
    assert not mu.flags.writeable and not order.flags.writeable
    # a non-decreasing permutation of the flat index, ties by flat index
    assert np.array_equal(np.sort(order), np.arange(mu.size))
    ranked = mu.ravel()[order]
    steps = np.diff(ranked)
    assert np.all(steps >= 0.0)
    assert np.any(steps == 0.0)    # cos n and sin n tie for every n >= 1
    assert np.all(np.diff(order)[steps == 0.0] > 0)
    # the family's pure eigenmodes are the head of that order
    family = datum_family(model, 8, 11)
    for datum, idx in zip(family[:5], order[:5]):
        data = np.zeros((model.n_modes, model.n_radial))
        data[idx // model.n_radial] = model.spectrum.vectors[:, idx % model.n_radial]
        assert datum.data.tobytes() == data.tobytes()
    # independent route: a value-range bisection of the radial pencil
    bound = 60.0
    m = model.grid.mass
    lam = eigh_tridiagonal(model.op.diag / m, model.op.off / np.sqrt(m[:-1] * m[1:]),
                           eigvals_only=True, select="v",
                           select_range=(0.0, bound), lapack_driver="stebz")
    listed = np.sort([v for n in freqs for v in lam + n ** 2 if v <= bound])
    head = ranked[ranked <= bound]
    assert head.size == listed.size > model.n_modes
    assert np.allclose(head, listed, rtol=1e-10, atol=0.0)


def test_band_is_the_open_interval_of_nodes():
    grid = build_radial_grid(20, 4.0 / 3.0)
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
