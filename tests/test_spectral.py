"""Radial operator stencil, eigenvalue oracles, and the Hardy inequality."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenctrl import (ConfigError, assemble_radial_operator, bessel_oracle,
                       build_radial_grid, hardy_ratio, radial_spectrum)
from degenctrl.spectral import bessel_order

from ._oracles import bessel_oracle_brentq


def test_flux_stencil_uniform_grid():
    # conductance is the integral-averaged one, exact on the operator kernel;
    # on the uniform 4-cell grid at alpha=0.5 the first face pair gives
    # off = -(1+sqrt(2)) and mass-normalized coupling -4(1+sqrt(2))
    grid = build_radial_grid(0.5, 4, 1.0)
    op = assemble_radial_operator(0.5, grid)
    expected = -(1.0 + math.sqrt(2.0))
    assert op.off[0] == pytest.approx(expected, rel=1e-14)
    assert op.off[0] / grid.mass[0] == pytest.approx(4.0 * expected, rel=1e-14)


def test_stiffness_exact_on_kernel():
    # A + B r^(1-alpha) solves (r^alpha u')' = 0; interior rows not touching
    # the boundary must vanish identically
    alpha = 0.37
    grid = build_radial_grid(alpha, 50, 2.0 / (2.0 - alpha))
    op = assemble_radial_operator(alpha, grid)
    u = 2.0 + 3.0 * grid.nodes ** (1.0 - alpha)
    res = op.apply(u)
    assert np.max(np.abs(res[1:-1])) < 1e-11


def test_energy_form_matches_apply(rng):
    grid = build_radial_grid(0.5, 30, 4.0 / 3.0)
    op = assemble_radial_operator(0.5, grid)
    for _ in range(5):
        u = rng.standard_normal(grid.nodes.size)
        assert op.energy(u) == pytest.approx(float(u @ op.apply(u)), rel=1e-12)


def test_bessel_oracle_against_mpmath():
    # independent high-precision route for the continuous eigenvalues
    alpha = 0.5
    nu = bessel_order(alpha)
    assert nu == pytest.approx((1.0 - alpha) / (2.0 - alpha))
    vals = bessel_oracle(alpha, 3)
    scale = ((2.0 - alpha) / 2.0) ** 2
    with mp.workdps(40):
        for k in range(1, 4):
            root = mp.besseljzero(mp.mpf(1) / 3, k)
            assert vals[k - 1] == pytest.approx(float(scale * root ** 2),
                                                rel=1e-12)


@pytest.mark.parametrize("alpha", [0.001, 0.1, 0.5, 0.9, 0.999])
def test_bessel_oracle_against_brentq_route(alpha):
    # mp.besseljzero against scipy's jv bracketed and solved by brentq
    np.testing.assert_allclose(bessel_oracle(alpha, 40),
                               bessel_oracle_brentq(alpha, 40),
                               rtol=1e-14, atol=0.0)


def test_discrete_spectrum_converges_to_bessel():
    alpha = 0.5
    grid = build_radial_grid(alpha, 800, 2.0 / (2.0 - alpha))
    op = assemble_radial_operator(alpha, grid)
    spec = radial_spectrum(op, 5)
    oracle = bessel_oracle(alpha, 5)
    rel = np.abs(spec.values - oracle) / oracle
    assert np.all(rel < 2e-4)
    assert np.all(np.diff(spec.values) > 0)


def test_eigenvectors_mass_orthonormal(desk_model, desk_spec):
    op = desk_model.op
    v = desk_spec.vectors
    gram = v.T @ (op.mass[:, None] * v)
    assert np.max(np.abs(gram - np.eye(v.shape[1]))) < 1e-12
    # and they satisfy the generalized eigenproblem
    for i in range(v.shape[1]):
        res = op.apply(v[:, i]) - desk_spec.values[i] * op.mass * v[:, i]
        assert np.max(np.abs(res)) < 1e-9 * desk_spec.values[i]


def test_spectral_gap_lower_bound():
    # (1-alpha)^2/4 sits strictly below the first eigenvalue
    for alpha in (0.1, 0.5, 0.9):
        lam1 = float(bessel_oracle(alpha, 1)[0])
        assert (1.0 - alpha) ** 2 / 4.0 < lam1


def test_spectrum_argument_validation(desk_model):
    with pytest.raises(ConfigError):
        radial_spectrum(desk_model.op, 0)
    with pytest.raises(ConfigError):
        radial_spectrum(desk_model.op, 10 ** 6)


def test_hardy_bound_value():
    grid = build_radial_grid(0.5, 64, 4.0 / 3.0)
    u = grid.nodes * (1.0 - grid.nodes)
    rep = hardy_ratio(u, 0.5, grid)
    assert rep.bound == pytest.approx(16.0)
    assert 0.0 < rep.ratio <= rep.bound
    assert not rep.exceeds_bound


def test_hardy_rejects_zero_and_mismatch():
    grid = build_radial_grid(0.5, 32, 4.0 / 3.0)
    with pytest.raises(ConfigError):
        hardy_ratio(np.zeros(grid.nodes.size), 0.5, grid)
    with pytest.raises(ConfigError):
        hardy_ratio(np.ones(7), 0.5, grid)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.15, 0.85))
def test_hardy_inequality_random_polynomials(seed, alpha):
    grid = build_radial_grid(alpha, 80, 2.0 / (2.0 - alpha))
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(int(rng.integers(2, 7)))
    u = grid.nodes * (1.0 - grid.nodes) \
        * np.polynomial.polynomial.polyval(grid.nodes, coef)
    if not np.any(u != 0.0):
        return
    rep = hardy_ratio(u, alpha, grid)
    assert rep.ratio <= rep.bound * (1.0 + 1e-6)
