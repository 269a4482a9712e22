"""Restricted Gram eigenvalues and truncated observability constants.

The dual-route checks here are the heart of the module: closed-form Gram
entries against direct quadrature, the coupled estimator against the
per-mode reduction on the full circle, and the scalar case against a
pencil-and-paper formula.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from degenctrl import (ConfigError, ModelConfig, NonConvergenceError,
                       build_model, mode_observability_constant, mode_set,
                       radial_spectrum, torus_smallest_gram_eigenvalue,
                       truncated_observability)
from degenctrl import observability
from degenctrl.observability import _angular_gram, _restricted_overlap

from ._oracles import (coupled_observability_inverse_mp,
                       gram_lambda_min_full, jacobi_eigh_mp)


def test_full_circle_gram_is_identity():
    tg = torus_smallest_gram_eigenvalue(5, (0.0, 2.0 * math.pi))
    assert tg.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(tg.gram - np.eye(11))) < 1e-12


def test_k0_gram_is_interval_fraction():
    for c, d in ((0.0, 1.0), (0.3, 1.7), (1.0, 2.0 * math.pi)):
        tg = torus_smallest_gram_eigenvalue(0, (c, d))
        assert tg.lambda_min == pytest.approx((d - c) / (2.0 * math.pi),
                                              abs=1e-12)


def test_gram_entries_match_direct_quadrature():
    # brute-force route: numerical quadrature of basis products
    c, d = 0.4, 2.1
    for K in (1, 2, 3):
        modes = mode_set(K)
        with mp.workdps(40):
            closed = _angular_gram(modes, mp.mpf(c), mp.mpf(d), mp)
            for i, mi in enumerate(modes):
                for j, mj in enumerate(modes):
                    def g(theta, m):
                        if m.parity == "cos":
                            if m.n == 0:
                                return 1 / mp.sqrt(2 * mp.pi)
                            return mp.cos(m.n * theta) / mp.sqrt(mp.pi)
                        return mp.sin(m.n * theta) / mp.sqrt(mp.pi)
                    quad = mp.quad(lambda th: g(th, mi) * g(th, mj), [c, d])
                    assert abs(closed[i, j] - quad) <= mp.mpf(1e-10) \
                        * max(1, abs(quad)), (K, i, j)


def test_lambda_min_matches_bruteforce_eigen():
    c, d = 0.4, 2.1
    tg = torus_smallest_gram_eigenvalue(3, (c, d))
    modes = mode_set(3)
    with mp.workdps(60):
        def g(theta, m):
            if m.parity == "cos":
                if m.n == 0:
                    return 1 / mp.sqrt(2 * mp.pi)
                return mp.cos(m.n * theta) / mp.sqrt(mp.pi)
            return mp.sin(m.n * theta) / mp.sqrt(mp.pi)
        dim = len(modes)
        gm = mp.zeros(dim)
        for i in range(dim):
            for j in range(i, dim):
                val = mp.quad(lambda th: g(th, modes[i]) * g(th, modes[j]),
                              [c, d])
                gm[i, j] = val
                gm[j, i] = val
        vals, _ = jacobi_eigh_mp(gm)
        brute = float(vals[0])
    assert tg.lambda_min == pytest.approx(brute, rel=1e-10)


def test_k12_frozen_oracle(unit_gram):
    # high-precision prototype values, frozen; see the unit-interval case
    tg = unit_gram(12)
    assert tg.lambda_min == pytest.approx(1.250739455e-43, rel=1e-6)
    assert tg.c_emp == pytest.approx(8.232285, abs=1e-4)
    assert tg.dps_used >= 68


def test_c_emp_bounded_up_to_12(unit_gram):
    vals = [unit_gram(K).c_emp for K in range(13)]
    assert all(v <= 9.0 for v in vals)
    assert all(v >= 1.0 for v in vals)


def test_gram_validation():
    with pytest.raises(ConfigError):
        torus_smallest_gram_eigenvalue(-1, (0.0, 1.0))
    with pytest.raises(ConfigError):
        torus_smallest_gram_eigenvalue(2, (1.0, 0.5))
    with pytest.raises(ConfigError):
        torus_smallest_gram_eigenvalue(2, (0.0, 7.0))


def test_single_mode_scalar_oracle(desk_model, desk_spec):
    # k_max=1 collapses the pencil to one ratio computable by hand
    a, b = 0.3, 0.6
    n = 2
    T = desk_model.config.T_horizon
    est = mode_observability_constant(desk_model, desk_spec, n, a, b, k_max=1)
    mu = desk_spec.values[0] + n * n
    nodes = desk_model.grid.nodes
    sel = (nodes > a) & (nodes < b)
    overlap = float(np.sum(desk_model.grid.mass[sel]
                           * desk_spec.vectors[sel, 0] ** 2))
    oracle = math.exp(-2.0 * mu * T) / ((1.0 - math.exp(-2.0 * mu * T))
                                        / (2.0 * mu) * overlap)
    assert est.c_emp == pytest.approx(oracle, rel=1e-8)
    assert est.basis_dim == 1
    assert est.residual < 1e-12


def test_mode_constants_decrease_in_frequency(desk_model, desk_spec):
    # higher angular frequency decays faster, so the constant shrinks
    vals = [mode_observability_constant(desk_model, desk_spec, n,
                                        0.3, 0.6, k_max=4).c_emp
            for n in range(4)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_full_torus_reduces_to_mode_maximum(desk_model, desk_spec):
    est = truncated_observability(desk_model, desk_spec,
                                  (0.0, 2.0 * math.pi), 0.3, 0.6, 2, k_max=4)
    per_mode = [mode_observability_constant(desk_model, desk_spec, n,
                                            0.3, 0.6, k_max=4).c_emp
                for n in range(5)]
    assert est.c_emp == pytest.approx(max(per_mode), rel=1e-12)
    assert est.precision == "exact-decoupled"
    assert est.basis_dim == 9 * 4


def test_partial_interval_monotone_and_escalates(desk_model):
    # proper subinterval couples the modes; constants grow with the cap
    from degenctrl import radial_spectrum
    spec = radial_spectrum(desk_model.op, 2)
    ests = [truncated_observability(desk_model, spec, (0.0, math.pi),
                                    0.3, 0.6, j, k_max=2) for j in (0, 1, 2)]
    vals = [e.c_emp for e in ests]
    assert vals[0] < vals[1] < vals[2]
    assert all(e.residual <= 1e-6 for e in ests)
    assert all(e.c_emp > 0 for e in ests)


def test_truncated_cap_validation(desk_model, desk_spec):
    with pytest.raises(ConfigError):
        truncated_observability(desk_model, desk_spec, (0.0, 1.0),
                                0.3, 0.6, 5, k_max=2)
    with pytest.raises(ConfigError):
        truncated_observability(desk_model, desk_spec, (0.0, 1.0),
                                0.3, 0.6, -1, k_max=2)


def test_exhausted_precision_is_nonconvergence(desk_model, desk_spec,
                                               monkeypatch):
    # force the mp route, then make Cholesky fail at every precision tried
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    def not_pd(*args, **kwargs):
        raise ValueError("matrix is not positive-definite")

    monkeypatch.setattr(observability, "eigh", singular)
    monkeypatch.setattr(mp, "cholesky", not_pd)
    with pytest.raises(NonConvergenceError, match="not positive definite"):
        truncated_observability(desk_model, desk_spec, (0.0, math.pi),
                                0.3, 0.6, 0, k_max=2)


def test_extremal_is_unit_and_worst(desk_model, desk_spec):
    est = mode_observability_constant(desk_model, desk_spec, 1,
                                      0.3, 0.6, k_max=4)
    assert np.linalg.norm(est.extremal) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.4, 2.1), (0.0, math.pi),
                                      (0.0, 2.0 * math.pi), (3.0, 3.05)])
def test_parity_split_matches_full_gram(interval):
    # re-centring decouples cos and sin; the full Gram is the second route
    for K in range(13):
        tg = torus_smallest_gram_eigenvalue(K, interval)
        lam, dps = gram_lambda_min_full(K, interval)
        assert tg.lambda_min == pytest.approx(lam, rel=1e-12), K
        assert tg.dps_used == dps, K


@pytest.mark.parametrize("interval, k_max, force_mp", [
    ((1.0, 1.4), 3, False),           # float64 fails on its own
    ((0.0, math.pi), 2, True),
])
def test_mp_route_matches_inverse_oracle(desk_model, desk_spec, monkeypatch,
                                         interval, k_max, force_mp):
    if force_mp:
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(observability, "eigh", singular)
    est = truncated_observability(desk_model, desk_spec, interval, 0.3, 0.6,
                                  2, k_max=k_max)
    c_emp, extremal, residual, precision = coupled_observability_inverse_mp(
        desk_model, desk_spec, interval, 0.3, 0.6, 2, k_max)
    assert est.precision == precision
    assert precision.startswith("mp(")
    assert abs(est.c_emp / c_emp - 1.0) <= 1e-30
    sign = math.copysign(1.0, float(np.dot(est.extremal, extremal)))
    assert np.max(np.abs(sign * est.extremal - extremal)) <= 1e-20
    assert np.linalg.norm(est.extremal) == pytest.approx(1.0, abs=1e-12)
    assert est.residual < 1e-30 and residual < 1e-30


def test_restricted_overlap_is_exactly_symmetric():
    model = build_model(ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=2,
                                    n_r=120, n_time=8))
    spec = radial_spectrum(model.op, 24)
    overlap = _restricted_overlap(spec, 0.3, 0.6, 24)
    assert np.array_equal(overlap, overlap.T)

