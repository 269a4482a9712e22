"""Weight construction invariants and the empirical weighted estimate."""

import numpy as np
import pytest

from degenctrl import (ConfigError, ModeCoeffs, ModeIndex,
                       build_carleman_weights, build_eta, carleman_report,
                       s0_default, solve_forward, time_grid_for,
                       verify_theta_bounds)
from degenctrl.carleman import theta_weight, theta_weight_d1, theta_weight_d2
from ._golden import check_golden


@pytest.fixture(scope="module")
def eta():
    return build_eta(0.5, 0.3, 0.6)


def test_eta_c3_junctions(eta):
    # value and three derivatives agree across both junctions
    for knot in (eta.p, eta.q_hat):
        below = np.array([knot - 1e-12])
        above = np.array([knot + 1e-12])
        v0, v1 = float(eta.value(below)[0]), float(eta.value(above)[0])
        assert v0 == pytest.approx(v1, rel=1e-6, abs=1e-9)
        for order in (1, 2, 3):
            d0 = float(eta.derivative(below, order)[0])
            d1 = float(eta.derivative(above, order)[0])
            assert d0 == pytest.approx(d1, rel=1e-5, abs=1e-6)


def test_eta_branch_identities(eta):
    # inner branch r^(2-alpha): r eta' = (2-alpha) eta
    r = np.linspace(0.01, eta.p - 0.01, 25)
    lhs = r * eta.derivative(r, 1)
    rhs = (2.0 - eta.alpha) * eta.value(r)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # outer branch (1-r) r^(-alpha): eta r^alpha = 1 - r
    r = np.linspace(eta.q_hat + 0.01, 0.99, 25)
    assert np.max(np.abs(eta.value(r) * r ** eta.alpha - (1.0 - r))) < 1e-12


def test_eta_positive_and_sup(eta):
    r = np.linspace(1e-4, 1.0 - 1e-9, 10001)
    vals = eta.value(r)
    assert np.all(vals > 0.0)
    assert np.max(vals) <= eta.sup_norm * (1.0 + 1e-12)


def test_eta_derivative_matches_finite_difference(eta):
    pts = np.array([0.05, 0.35, 0.45, 0.8])
    h = 1e-6
    fd = (eta.value(pts + h) - eta.value(pts - h)) / (2.0 * h)
    assert np.max(np.abs(fd - eta.derivative(pts, 1))) < 1e-5


def test_eta_rejects_bad_window():
    with pytest.raises(ConfigError):
        build_eta(0.5, 0.6, 0.3)
    with pytest.raises(ConfigError):
        build_eta(0.5, 0.0, 0.5)


def test_gap_at_least_one(eta):
    w = build_carleman_weights(eta, 1.0, 10.0)
    r = np.linspace(1e-4, 1.0 - 1e-9, 10001)
    assert np.min(w.gamma - eta.value(r)) >= 1.0 - 1e-12


def test_theta_derivative_closed_forms():
    # finite differences validate the hand-derived expressions
    T = 1.3
    t = np.array([0.2, 0.5, 0.9, 1.1])
    h = 1e-7
    fd1 = (theta_weight(t + h, T) - theta_weight(t - h, T)) / (2.0 * h)
    assert np.max(np.abs(fd1 / theta_weight_d1(t, T) - 1.0)) < 1e-5
    fd2 = (theta_weight_d1(t + h, T) - theta_weight_d1(t - h, T)) / (2.0 * h)
    assert np.max(np.abs(fd2 / theta_weight_d2(t, T) - 1.0)) < 1e-5


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
def test_theta_bounds_hold(T):
    times = np.linspace(0.0, T, 10 ** 4 + 1)
    rep = verify_theta_bounds(T, times)
    assert rep.ok
    assert rep.max_first_ratio <= 1.0 + 1e-12
    assert rep.max_second_ratio <= 1.0 + 1e-12


def test_xi_blows_up_at_endpoints(eta):
    w = build_carleman_weights(eta, 1.0, 10.0)
    r = np.array([0.45])
    inner = float(w.xi(r, np.array([0.5]))[0, 0])
    near_start = float(w.xi(r, np.array([1e-3]))[0, 0])
    near_end = float(w.xi(r, np.array([1.0 - 1e-3]))[0, 0])
    assert near_start > 1e6 * inner
    assert near_end > 1e6 * inner


def test_weights_validation(eta):
    with pytest.raises(ConfigError):
        build_carleman_weights(eta, 1.0, 0.5)
    with pytest.raises(ConfigError):
        build_carleman_weights(eta, -1.0, 10.0)
    assert s0_default(1.0) == pytest.approx(10.0)
    assert s0_default(2.0) == pytest.approx(10.0 * 2.0 ** 16)


def _family_rows(model, spec, eta, s_values):
    rows = []
    for parity, n, k in (("cos", 0, 1), ("cos", 1, 1), ("sin", 2, 2)):
        data = np.zeros((model.n_modes, model.n_radial))
        data[model.mode_position(ModeIndex(parity, n))] = spec.vectors[:, k - 1]
        mode = ModeIndex(parity, n)
        states = solve_forward(ModeCoeffs(model, data))
        rows.extend(carleman_report(
            mode, states[:, model.mode_position(mode)], time_grid_for(model),
            None, eta, model.grid, s_values).rows)
    return rows


def test_report_rows_finite_and_flagged(desk_model, desk_spec, eta):
    s0 = s0_default(1.0)
    rows = _family_rows(desk_model, desk_spec, eta,
                        [0.5 * s0, s0, 2.0 * s0])
    for row in rows:
        assert np.isfinite(row.ratio) and row.ratio > 0.0
        assert np.isfinite(row.lhs_grad) and np.isfinite(row.lhs_zero)
        assert row.rhs_f == 0.0          # free trajectories
        assert row.rhs_obs > 0.0
        assert row.below_s0 == (row.s < s0)


def test_report_ratio_regression(desk_model, desk_spec, eta):
    s0 = s0_default(1.0)
    rows = _family_rows(desk_model, desk_spec, eta, [s0, 2.0 * s0])
    check_golden("carleman_ratios", [row.ratio for row in rows])


def test_report_with_sources(desk_model, desk_spec, eta, rng):
    mode = ModeIndex("cos", 1)
    pos = desk_model.mode_position(mode)
    data = np.zeros((desk_model.n_modes, desk_model.n_radial))
    data[pos] = desk_spec.vectors[:, 0]
    n_time = desk_model.config.n_time
    sources = np.zeros((n_time, desk_model.n_modes, desk_model.n_radial))
    sources[:, pos] = 0.01 * rng.standard_normal((n_time, desk_model.n_radial))
    states = solve_forward(ModeCoeffs(desk_model, data), sources)
    tgrid = time_grid_for(desk_model)
    rep = carleman_report(mode, states[:, pos], tgrid, sources[:, pos], eta,
                          desk_model.grid, [s0_default(1.0)])
    assert rep.rows[0].rhs_f > 0.0
    # states need a row per time node, sources a row per half step
    for bad_states, bad_sources in ((states[1:, pos], None),
                                    (states[:, pos], sources[1:, pos])):
        with pytest.raises(ConfigError):
            carleman_report(mode, bad_states, tgrid, bad_sources, eta,
                            desk_model.grid, [s0_default(1.0)])
