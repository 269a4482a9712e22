"""Time stepping: scalar decay oracle, order, dissipativity, exact duality."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded

from degenctrl import (ConfigError, InvariantError, ModeCoeffs, ModeIndex,
                       ModelConfig, TimeGrid, build_model, coeffs_inner,
                       evolve_mode, solve_adjoint, solve_forward,
                       zero_coeffs)
from degenctrl.evolution import _Stepper
from ._oracles import evolve_mode_every_step


def _scalar_march(mu, dt, steps):
    rho = (1.0 - 0.5 * dt * mu) / (1.0 + 0.5 * dt * mu)
    return rho ** steps


def test_single_mode_matches_scalar_oracle(desk_model, desk_spec):
    # an eigenvector reduces the scheme to the scalar recurrence exactly
    mode = ModeIndex("cos", 2)
    mu = desk_spec.values[0] + 4.0
    tgrid = desk_model.tgrid
    states = evolve_mode(desk_model.op, mode, desk_spec.vectors[:, 0], None,
                         tgrid)
    for k in range(tgrid.n_time + 1):
        expected = _scalar_march(mu, tgrid.dt, k) * desk_spec.vectors[:, 0]
        assert np.max(np.abs(states[k] - expected)) < 1e-10


@pytest.mark.parametrize("n_freq", [0, 1, 2, 4])
def test_stepper_bitwise_matches_scipy_banded_solve(desk_model, rng, n_freq):
    # the direct LAPACK call reproduces the scipy wrapper bit for bit, on
    # the explicit part written in the scheme's own association order
    dt = 1.0 / 48
    stepper = _Stepper(desk_model.op, n_freq, dt)
    m, shift = desk_model.op.mass, float(n_freq * n_freq)
    for _ in range(3):
        v = rng.standard_normal(m.size)
        src = rng.standard_normal(m.size)
        rhs = m * v - 0.5 * dt * (desk_model.op.apply(v) + shift * m * v)
        expected = cho_solve_banded((stepper.factor, False), rhs)
        assert np.array_equal(stepper.step(v), expected)
        expected = cho_solve_banded((stepper.factor, False),
                                    rhs + dt * m * src)
        assert np.array_equal(stepper.step(v, src), expected)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


def _fixed_point_cases(n_time, size, rng):
    zeros = np.zeros(size)
    mixed = zeros.copy()
    mixed[::3] = -0.0
    mixed_rows = np.zeros((n_time, size))
    mixed_rows[:, ::2] = -0.0
    late = np.zeros((n_time, size))
    late[-1, size // 2] = 1.0   # as a box time window switching on late
    block = np.zeros((size, 2))
    block[:, 1] = rng.standard_normal(size)
    return {
        "plus_zero": (zeros, None),
        "minus_zero": (np.full(size, -0.0), None),
        "mixed_zeros": (mixed, None),
        "minus_zero_sources": (zeros, np.full((n_time, size), -0.0)),
        # the first step maps this datum to a zero of other sign bits,
        # and the second step to yet others: equal values are not enough
        "mixed_zero_sources": (np.full(size, -0.0), mixed_rows),
        "late_source_row": (zeros, late),
        "zero_and_nonzero_columns": (block, None),
    }


@pytest.mark.parametrize("case", ["plus_zero", "minus_zero", "mixed_zeros",
                                  "minus_zero_sources", "mixed_zero_sources",
                                  "late_source_row",
                                  "zero_and_nonzero_columns"])
def test_fixed_point_exit_matches_every_step_march(desk_model, rng, case):
    # the early exit must return the bits, signed zeros included, that
    # stepping all n_time times returns
    tgrid = desk_model.tgrid
    phi0, sources = _fixed_point_cases(tgrid.n_time, desk_model.n_radial,
                                       rng)[case]
    mode = ModeIndex("sin", 2)
    got = evolve_mode(desk_model.op, mode, phi0, sources, tgrid)
    expected = evolve_mode_every_step(desk_model.op, mode, phi0, sources,
                                      tgrid)
    assert _same_bits(got, expected)


@pytest.mark.parametrize("case,steps", [("plus_zero", 1),
                                        ("minus_zero", 1),
                                        ("minus_zero_sources", 1),
                                        ("mixed_zero_sources", 48),
                                        ("late_source_row", 48),
                                        ("zero_and_nonzero_columns", 48)])
def test_fixed_point_exit_step_count(desk_model, rng, monkeypatch, case,
                                     steps):
    tgrid = desk_model.tgrid
    assert tgrid.n_time == 48
    phi0, sources = _fixed_point_cases(tgrid.n_time, desk_model.n_radial,
                                       rng)[case]
    calls = []
    step = _Stepper.step
    monkeypatch.setattr(_Stepper, "step",
                        lambda self, *args: calls.append(1) or step(self, *args))
    evolve_mode(desk_model.op, ModeIndex("cos", 1), phi0, sources, tgrid)
    assert len(calls) == steps


def test_nan_datum_is_invariant_error(desk_model):
    # a NaN state can repeat its own bits; the finite check still runs
    tgrid = desk_model.tgrid
    phi0 = np.full(desk_model.n_radial, np.nan)
    for march in (evolve_mode, evolve_mode_every_step):
        with pytest.raises(InvariantError):
            march(desk_model.op, ModeIndex("cos", 1), phi0, None, tgrid)


def test_nonfinite_source_is_invariant_error(desk_model):
    # steps skip the finite check; the end-of-march check must catch it
    tgrid = desk_model.tgrid
    sources = np.zeros((tgrid.n_time, desk_model.n_radial))
    sources[tgrid.n_time // 2, 3] = np.nan
    with pytest.raises(InvariantError):
        evolve_mode(desk_model.op, ModeIndex("cos", 1),
                    np.ones(desk_model.n_radial), sources, tgrid)


@pytest.mark.parametrize("sourced", [False, True])
def test_block_march_matches_single_marches_bitwise(desk_model, rng, sourced):
    # a (size, 3) block is three independent marches sharing each solve
    tgrid = desk_model.tgrid
    size = desk_model.n_radial
    mode = ModeIndex("sin", 3)
    phi0 = rng.standard_normal((size, 3))
    sources = (rng.standard_normal((tgrid.n_time, size, 3)) if sourced
               else None)
    block = evolve_mode(desk_model.op, mode, phi0, sources, tgrid)
    assert block.shape == (tgrid.n_time + 1, size, 3)
    for j in range(3):
        single = evolve_mode(desk_model.op, mode, phi0[:, j],
                             None if sources is None else sources[:, :, j],
                             tgrid)
        assert np.array_equal(block[:, :, j], single)


def test_block_march_shapes_validated(desk_model):
    tgrid = desk_model.tgrid
    size = desk_model.n_radial
    mode = ModeIndex("cos", 1)
    with pytest.raises(ConfigError):
        evolve_mode(desk_model.op, mode, np.ones((size, 2, 2)), None, tgrid)
    with pytest.raises(ConfigError):
        evolve_mode(desk_model.op, mode, np.ones((size, 3)),
                    np.zeros((tgrid.n_time, size, 2)), tgrid)
    with pytest.raises(ConfigError):
        evolve_mode(desk_model.op, mode, np.ones((size, 3)),
                    np.zeros((tgrid.n_time, size)), tgrid)


def test_nonfinite_block_column_is_invariant_error(desk_model):
    tgrid = desk_model.tgrid
    phi0 = np.ones((desk_model.n_radial, 3))
    phi0[4, 1] = np.nan
    with pytest.raises(InvariantError):
        evolve_mode(desk_model.op, ModeIndex("cos", 2), phi0, None, tgrid)


def test_dt_halving_second_order(desk_model, desk_spec):
    # error against the exact exponential shrinks by ~4 per dt halving
    mu = desk_spec.values[0]
    mode = ModeIndex("cos", 0)
    T = 0.5
    errs = []
    for n_time in (16, 32, 64):
        tgrid = TimeGrid(T, n_time)
        states = evolve_mode(desk_model.op, mode, desk_spec.vectors[:, 0],
                             None, tgrid)
        end = states[-1][0] / desk_spec.vectors[0, 0]
        errs.append(abs(end - math.exp(-mu * T)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.8 <= coarse / fine <= 4.2


def test_energy_monotone_every_step(desk_model, rng):
    data = rng.standard_normal((desk_model.n_modes, desk_model.n_radial))
    states = solve_forward(ModeCoeffs(desk_model, data))
    norms = np.sqrt(np.sum(desk_model.grid.mass * states ** 2, axis=(1, 2)))
    for before, after in zip(norms, norms[1:]):
        assert after <= before * (1.0 + 1e-14)


def test_discrete_duality_identity(desk_model, rng):
    # <v(T), y(T)> = dt sum <s^{k+1/2}, (y^k + y^{k+1})/2> when v starts at 0;
    # this exact identity is what makes the control Gramian symmetric
    tgrid = desk_model.tgrid
    y_term = ModeCoeffs(
        desk_model,
        rng.standard_normal((desk_model.n_modes, desk_model.n_radial)))
    adjoint = solve_adjoint(y_term)
    sources = rng.standard_normal(
        (tgrid.n_time, desk_model.n_modes, desk_model.n_radial))
    v = solve_forward(zero_coeffs(desk_model), sources)
    lhs = coeffs_inner(ModeCoeffs(desk_model, v[-1]), y_term)
    mass = desk_model.grid.mass
    rhs = 0.0
    for i in range(desk_model.n_modes):
        mid = 0.5 * (adjoint[:-1, i] + adjoint[1:, i])
        rhs += tgrid.dt * float(np.sum(sources[:, i] * mid * mass[None, :]))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_adjoint_is_time_reversed_forward(desk_model, rng):
    y_term = ModeCoeffs(
        desk_model,
        rng.standard_normal((desk_model.n_modes, desk_model.n_radial)))
    adjoint = solve_adjoint(y_term)
    forward = solve_forward(y_term)
    assert np.array_equal(adjoint, forward[::-1])


def test_marched_states_are_read_only(desk_model, rng):
    tgrid = desk_model.tgrid
    size = desk_model.n_radial
    mode = ModeIndex("cos", 1)
    y_term = ModeCoeffs(
        desk_model, rng.standard_normal((desk_model.n_modes, size)))
    marched = {
        "single": evolve_mode(desk_model.op, mode, np.ones(size), None, tgrid),
        "block": evolve_mode(desk_model.op, mode, np.ones((size, 2)), None,
                             tgrid),
        "forward": solve_forward(y_term),
        "adjoint": solve_adjoint(y_term),
    }
    assert marched["forward"].shape == (tgrid.n_time + 1, desk_model.n_modes,
                                        size)
    for name, states in marched.items():
        assert not states.flags.writeable, name
        with pytest.raises(ValueError):
            states[0] = 0.0


def test_source_shape_validated(desk_model):
    tgrid = desk_model.tgrid
    n_modes, size = desk_model.n_modes, desk_model.n_radial
    zero = zero_coeffs(desk_model)
    for bad in (np.zeros((tgrid.n_time + 1, n_modes, size)),
                np.zeros((tgrid.n_time, size)),
                np.zeros((n_modes, tgrid.n_time, size))):
        with pytest.raises(ConfigError):
            solve_forward(zero, bad)
    # the former form, one (n_time, n_r - 1) block per mode, is refused
    per_mode = [np.zeros((tgrid.n_time, size)) for _ in range(n_modes)]
    with pytest.raises(ConfigError):
        solve_forward(zero, per_mode)


def test_forward_marches_on_the_datum_model(rng):
    # another alpha and another n_time: both come from the datum's model
    model = build_model(ModelConfig(alpha=0.3, T_horizon=1.0, n_theta_max=2,
                                    n_r=40, n_time=20))
    phi0 = ModeCoeffs(model, rng.standard_normal(
        (model.n_modes, model.n_radial)))
    states = solve_forward(phi0)
    assert states.shape == (model.config.n_time + 1, model.n_modes,
                            model.n_radial)
    tgrid = model.tgrid
    for i, mode in enumerate(model.modes):
        assert np.array_equal(
            states[:, i], evolve_mode(model.op, mode, phi0.data[i], None,
                                      tgrid))


def test_time_grid_validation():
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 8)
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 1)
    tg = TimeGrid(2.0, 10)
    assert tg.dt == pytest.approx(0.2)
    assert tg.nodes.size == 11
    assert tg.half_nodes.size == 10
    assert np.allclose(tg.half_nodes, tg.nodes[:-1] + 0.1)
