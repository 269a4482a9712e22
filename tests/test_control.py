"""Control Gramian identities, penalized synthesis, dyadic-block control."""

import hashlib
import math

import numpy as np
import pytest

from degenctrl import (BoxUnionSet, ConfigError, ModeCoeffs,
                       ModeIndex, ModelConfig, NonConvergenceError, TimeGrid,
                       apply_control_gramian, build_model, coeffs_inner,
                       hum_control, lr_control, radial_spectrum, zero_coeffs)
from degenctrl import control, evolution
from degenctrl.control import _mode_block_gramian
from ._golden import check_golden
from ._oracles import (evolve_mode_every_step, gramian_theta_quadrature,
                       lr_control_per_mode, mode_block_gramian_columns)


def _unit_eigendatum(model, spec, parity, n, k):
    data = np.zeros((model.n_modes, model.n_radial))
    data[model.mode_position(ModeIndex(parity, n))] = spec.vectors[:, k - 1]
    return ModeCoeffs(model, data)


def _box_region(boxes):
    # band and horizon of the desk model and its (0.3, 0.6) cylinder
    return BoxUnionSet(boxes=boxes, band_a=0.3, band_b=0.6, horizon=1.0)


_CYLINDER = BoxUnionSet.cylinder(0.3, 0.6, 1.0)
# the same grid points as the cylinder, written as two theta halves
_HALVES = _box_region((((0.0, math.pi), (0.3, 0.6), (0.0, 1.0)),
                       ((math.pi, 2.0 * math.pi), (0.3, 0.6), (0.0, 1.0))))


def _desk_datum(model, spec):
    data = (_unit_eigendatum(model, spec, "cos", 1, 1).data
            + _unit_eigendatum(model, spec, "sin", 2, 3).data)
    return ModeCoeffs(model, data)


def test_gramian_zero_maps_to_zero(desk_model):
    out = apply_control_gramian(_CYLINDER, zero_coeffs(desk_model))
    assert np.all(out.data == 0.0)


def test_gramian_symmetry_and_psd(desk_model, meas_region, rng):
    # the two boxes of meas_region depend on theta: their modes couple
    # through angular quadrature
    for region in (_CYLINDER, meas_region):
        for _ in range(4):
            x = ModeCoeffs(desk_model, rng.standard_normal(
                (desk_model.n_modes, desk_model.n_radial)))
            z = ModeCoeffs(desk_model, rng.standard_normal(
                (desk_model.n_modes, desk_model.n_radial)))
            gx = apply_control_gramian(region, x)
            gz = apply_control_gramian(region, z)
            sym_gap = abs(coeffs_inner(gx, z) - coeffs_inner(x, gz))
            scale = math.sqrt(coeffs_inner(x, x) * coeffs_inner(z, z))
            assert sym_gap <= 1e-9 * scale
            assert coeffs_inner(gx, x) >= -1e-10 * coeffs_inner(x, x)


def test_gramian_eigenvalue_closed_form(desk_model, desk_spec):
    # full cylinder: eigendata stay eigendata; the exact discrete value is
    # (1 - rho^(2N)) / (2 mu) with rho the one-step amplification factor
    n, k = 2, 1
    y = _unit_eigendatum(desk_model, desk_spec, "cos", n, k)
    out = apply_control_gramian(BoxUnionSet.cylinder(0.0, 1.0, 1.0), y)
    mu = desk_spec.values[k - 1] + n * n
    dt = desk_model.config.T_horizon / desk_model.config.n_time
    rho = (1.0 - 0.5 * dt * mu) / (1.0 + 0.5 * dt * mu)
    exact = (1.0 - rho ** (2 * desk_model.config.n_time)) / (2.0 * mu)
    continuum = -math.expm1(-2.0 * mu * desk_model.config.T_horizon) / (2.0 * mu)
    ratio = coeffs_inner(out, y) / coeffs_inner(y, y)
    assert ratio == pytest.approx(exact, rel=1e-12)
    assert ratio == pytest.approx(continuum, rel=1e-4)
    # the image is the same eigendatum scaled
    assert np.max(np.abs(out.data - exact * y.data)) < 1e-12


def test_full_box_gramian_matches_cylinder(desk_model, rng):
    # one box over the whole torus, the band and the horizon has a mask
    # that is the same at every theta node, so production masks the mode
    # data radially as for the cylinder; projecting the masked field back
    # onto the modes by angular quadrature must give the same Gramian
    box = _box_region((((0.0, 2.0 * math.pi), (0.3, 0.6), (0.0, 1.0)),))
    for _ in range(3):
        y = ModeCoeffs(desk_model, rng.standard_normal(
            (desk_model.n_modes, desk_model.n_radial)))
        ref = gramian_theta_quadrature(box, y)
        got = apply_control_gramian(box, y)
        assert (np.max(np.abs(got.data - ref.data))
                <= 1e-12 * np.max(np.abs(ref.data)))


def test_theta_independent_mask_takes_the_per_mode_path(desk_model, rng):
    # the cylinder and its two theta halves mask the adjoint rows radially,
    # bit for bit, with no theta quadrature
    band = desk_model.grid.observed_band(0.3, 0.6)
    y = ModeCoeffs(desk_model, rng.standard_normal(
        (desk_model.n_modes, desk_model.n_radial)))
    adj = evolution.solve_adjoint(y)
    sources = 0.5 * (adj[:-1] + adj[1:]) * band
    ref = evolution.solve_forward(zero_coeffs(desk_model), sources)[-1]
    for region in (_CYLINDER, _HALVES):
        assert np.array_equal(apply_control_gramian(region, y).data, ref)


def test_gramian_refuses_a_region_between_theta_nodes(desk_model):
    # no theta node of the desk model lies in (0.01, 0.02)
    region = _box_region((((0.01, 0.02), (0.3, 0.6), (0.0, 1.0)),))
    with pytest.raises(ConfigError, match="misses every grid point"):
        apply_control_gramian(region, zero_coeffs(desk_model))


def test_region_validation():
    with pytest.raises(ConfigError):
        BoxUnionSet.cylinder(0.6, 0.3, 1.0)
    with pytest.raises(ConfigError):
        BoxUnionSet.cylinder(-0.1, 0.5, 1.0)
    with pytest.raises(ConfigError):
        _box_region(())
    with pytest.raises(ConfigError):
        _box_region((((0.0, 9.0), (0.3, 0.4), (0.0, 1.0)),))


def test_hum_zero_datum(desk_model):
    res = hum_control(zero_coeffs(desk_model), _CYLINDER, 1e-6)
    assert np.all(res.y_terminal.data == 0.0)
    assert np.all(res.control_values == 0.0)
    assert res.terminal_residual == 0.0
    assert res.cost == 0.0


def test_desk_datum_matches_shared_fixture(desk_model, desk_spec, desk_phi0):
    assert np.array_equal(_desk_datum(desk_model, desk_spec).data,
                          desk_phi0.data)


def test_hum_desk_case_controls(desk_hum):
    res = desk_hum
    assert res.converged
    assert res.terminal_residual / res.phi0_norm <= 1e-3
    assert res.identity_gap <= 10.0 * 1e-8 * res.phi0_norm
    assert res.cost > 0.0
    # reported residual history is the monotone envelope
    hist = res.residual_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


def _hum_every_step(monkeypatch, *args, **kwargs):
    # the same solve with every march stepping all n_time times
    with monkeypatch.context() as patch:
        patch.setattr(evolution, "evolve_mode", evolve_mode_every_step)
        patch.setattr(control, "evolve_mode", evolve_mode_every_step)
        return hum_control(*args, **kwargs)


def _assert_same_hum(got, expected):
    assert got.iterations == expected.iterations
    for a, b in ((got.y_terminal.data, expected.y_terminal.data),
                 (got.control_values, expected.control_values)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_hum_desk_bitwise_matches_every_step_march(desk_phi0, desk_hum,
                                                   monkeypatch):
    # seven of the nine modes stay at rest and take the fixed-point exit
    expected = _hum_every_step(monkeypatch, desk_phi0, _CYLINDER,
                               1e-6, cg_tol=1e-8)
    _assert_same_hum(desk_hum, expected)


def test_hum_random_bitwise_matches_every_step_march(monkeypatch):
    # a dense datum: no mode is at rest
    model = build_model(ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=2,
                                    n_r=40, n_time=32))
    phi0 = ModeCoeffs(model, np.random.default_rng(5).standard_normal(
        (model.n_modes, model.n_radial)))
    args = (phi0, _CYLINDER, 1e-4)
    got = hum_control(*args, cg_tol=1e-6)
    expected = _hum_every_step(monkeypatch, *args, cg_tol=1e-6)
    assert got.converged
    _assert_same_hum(got, expected)


def test_hum_dense_gramian_oracle(desk_hum, desk_dense_hum_y):
    # compare the iterative solution against the densely assembled solve
    num = np.linalg.norm(desk_dense_hum_y - desk_hum.y_terminal.data)
    den = np.linalg.norm(desk_dense_hum_y)
    assert num / den <= 1e-6


def test_hum_linearity(desk_model, desk_phi0, desk_hum):
    res = desk_hum
    doubled = ModeCoeffs(desk_model, 2.0 * desk_phi0.data)
    res2 = hum_control(doubled, _CYLINDER, 1e-6, cg_tol=1e-8)
    rel = (np.max(np.abs(res2.y_terminal.data - 2.0 * res.y_terminal.data))
           / np.max(np.abs(res.y_terminal.data)))
    assert rel <= 1e-6
    assert res2.linf_ratio == pytest.approx(res.linf_ratio, rel=1e-6)


def test_hum_epsilon_monotonicity(desk_model, desk_spec):
    phi0 = _desk_datum(desk_model, desk_spec)
    residuals = []
    for eps in (1e-8, 1e-6, 1e-4):
        res = hum_control(phi0, _CYLINDER, eps, cg_tol=1e-9)
        residuals.append(res.terminal_residual)
    assert residuals[0] <= residuals[1] * (1.0 + 1e-10)
    assert residuals[1] <= residuals[2] * (1.0 + 1e-10)


def test_hum_linf_golden(desk_hum):
    check_golden("hum_desk_linf_ratio", desk_hum.linf_ratio)


def test_hum_epsilon_validation(desk_model, desk_spec):
    phi0 = _desk_datum(desk_model, desk_spec)
    with pytest.raises(ConfigError):
        hum_control(phi0, _CYLINDER, 0.0)


def test_hum_box_region_runs(desk_model, desk_spec):
    # box union couples the angular modes through the mask
    phi0 = _desk_datum(desk_model, desk_spec)
    region = _box_region((((0.0, 2.0 * math.pi), (0.3, 0.6), (0.0, 1.0)),))
    res = hum_control(phi0, region, 1e-4, cg_tol=1e-7,
                      max_iter=300)
    assert res.converged
    # a full-angle box is the cylinder in disguise
    ref = hum_control(phi0, _CYLINDER, 1e-4,
                      cg_tol=1e-7, max_iter=300)
    assert res.terminal_residual == pytest.approx(ref.terminal_residual,
                                                  rel=1e-4)


def test_hum_two_boxes_pinned(desk_phi0, meas_region):
    # the theta-coupled route on the two boxes; the figures were taken
    # when every box union took this route, before the mask picked the path
    res = hum_control(desk_phi0, meas_region, 1e-4, cg_tol=1e-7)
    assert res.converged
    assert res.iterations == 19
    assert float.hex(res.cost) == "0x1.27b525764f7e2p-7"
    assert hashlib.sha256(res.control_values.tobytes()).hexdigest() == (
        "a9b5947488d8a38713e867cd280a802499866a95070b8da45d773fcffa89c927")


def _smooth_lowpass(model, spec_vectors, rng):
    data = np.zeros((model.n_modes, model.n_radial))
    for i, m in enumerate(model.modes):
        if m.n <= 1:
            data[i] = spec_vectors @ rng.standard_normal(spec_vectors.shape[1])
    mass = model.grid.mass
    nrm = math.sqrt(float(np.sum(mass[None, :] * data ** 2)))
    return ModeCoeffs(model, data / nrm)


def test_lr_zero_datum(desk_model):
    res = lr_control(zero_coeffs(desk_model), _CYLINDER, 1e-3)
    assert all(c == 0.0 for c in res.block_costs)
    assert res.final_residual == 0.0
    assert res.converged


def test_lr_desk_case(desk_model, desk_spec, rng):
    phi0 = _smooth_lowpass(desk_model, desk_spec.vectors[:, :4], rng)
    res = lr_control(phi0, _CYLINDER, 1e-3)
    assert res.converged
    assert res.final_residual <= 1e-3
    assert res.boundaries[0] == 0.0 and res.boundaries[-1] == 1.0
    assert all(a < b for a, b in zip(res.boundaries, res.boundaries[1:]))
    norms = res.block_norms
    assert all(a > b for a, b in zip(norms, norms[1:]))
    # cross-route check: plain penalized synthesis handles the same datum
    hum = hum_control(phi0, _CYLINDER, 1e-6)
    assert hum.terminal_residual / hum.phi0_norm <= 1e-3
    check_golden("lr_desk_block_norms", norms)


def _lr_bits(res):
    return ([x.hex() for x in res.block_costs],
            [x.hex() for x in res.block_norms],
            [x.hex() for x in res.epsilons], res.final_residual.hex(),
            res.boundaries, res.caps, res.converged)


@pytest.mark.parametrize("n_theta_max, n_r, n_time",
                         [(4, 60, 48), (2, 40, 32), (8, 60, 48)],
                         ids=["desk", "c14", "n_theta_max-8"])
def test_lr_bitwise_matches_per_mode_march(n_theta_max, n_r, n_time):
    # the c11 datum; at n_theta_max 8 the modes above every cap are zero
    model = build_model(ModelConfig(alpha=0.5, T_horizon=1.0,
                                    n_theta_max=n_theta_max, n_r=n_r,
                                    n_time=n_time))
    vectors = radial_spectrum(model.op, 6).vectors[:, :4]
    phi0 = _smooth_lowpass(model, vectors, np.random.default_rng(0))
    region = _CYLINDER
    got = lr_control(phi0, region, 1e-3)
    assert got.converged
    assert _lr_bits(got) == _lr_bits(lr_control_per_mode(phi0, region, 1e-3))


def test_lr_random_datum_fails_as_the_per_mode_march(desk_model):
    # nonzero modes above the cap; the first block's budget is out of reach
    phi0 = ModeCoeffs(desk_model, np.random.default_rng(1).standard_normal(
        (desk_model.n_modes, desk_model.n_radial)))
    region = _CYLINDER
    with pytest.raises(NonConvergenceError) as got:
        lr_control(phi0, region, 1e-3)
    with pytest.raises(NonConvergenceError) as ref:
        lr_control_per_mode(phi0, region, 1e-3)
    assert str(got.value) == str(ref.value)


def test_lr_two_theta_halves_match_the_cylinder(desk_model, desk_spec):
    phi0 = _smooth_lowpass(desk_model, desk_spec.vectors[:, :4],
                           np.random.default_rng(0))
    assert (_lr_bits(lr_control(phi0, _HALVES, 1e-3))
            == _lr_bits(lr_control(phi0, _CYLINDER, 1e-3)))


@pytest.mark.parametrize("n_r", [12, 40, 61])
def test_block_gramian_bitwise_matches_column_loop(n_r):
    # one block march per direction reproduces the unit-column loop exactly,
    # signed zeros included, on the sub-grids of the first three LR blocks
    model = build_model(ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=4,
                                    n_r=n_r, n_time=32))
    mask = model.grid.observed_band(0.3, 0.6)
    for k in range(3):
        sub = TimeGrid(2.0 ** (-k - 2), 32)
        for n in (0, 1, 2, 4):
            got = _mode_block_gramian(model.op, n, mask, sub)
            ref = mode_block_gramian_columns(model.op, n, mask, sub)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_lr_validation(desk_model, desk_spec):
    phi0 = _desk_datum(desk_model, desk_spec)
    with pytest.raises(ConfigError):
        lr_control(phi0, _CYLINDER, -1.0)
    with pytest.raises(ConfigError):
        lr_control(phi0, _CYLINDER, 1e-3, n_blocks=0)
    region = _box_region((((0.0, 1.0), (0.3, 0.6), (0.0, 1.0)),))
    with pytest.raises(ConfigError):
        lr_control(phi0, region, 1e-3)
