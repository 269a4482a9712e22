"""Shipped-guarantee gate: one test per release criterion.

Every test prints exactly one PASS/FAIL line with its measured numbers and
its wall time, then asserts. Heavy shared state is pulled through
request.getfixturevalue so a cold run pays the build cost inside the
stopwatch; stated budgets are generous enough to cover that.
"""

import json
import math
import time

import mpmath as mp
import numpy as np

from degenctrl import (BoxUnionSet, Cylinder, ModeCoeffs, ModeIndex,
                       ModelConfig, SpectralPropagator, TimeGrid,
                       apply_control_gramian, assemble_radial_operator,
                       bessel_oracle, build_carleman_weights, build_eta,
                       build_model, build_radial_grid, build_time_slices,
                       carleman_report, coeffs_inner, density_sequence,
                       derivative_bound_report, evolve_mode, extended_field,
                       hardy_ratio, hum_control, lr_control,
                       mode_observability_constant, mode_set, project_modes,
                       radial_spectrum, s0_default, solve_forward,
                       synthesize_field, time_grid_for,
                       torus_smallest_gram_eigenvalue,
                       truncated_observability, verify_theta_bounds)
from degenctrl.cli import _CARLEMAN_FAMILY, main
from degenctrl.model import field_norm2
from ._golden import check_golden
from ._oracles import jacobi_eigh_mp


def _finish(num, label, t0, budget, problems, detail=""):
    elapsed = time.monotonic() - t0
    if budget is not None and elapsed >= budget:
        problems.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")
    tag = "FAIL" if problems else "PASS"
    parts = [p for p in (detail, f"{elapsed:.1f}s") if p]
    print(f"[acceptance {num:02d}] {tag} {label} ({'; '.join(parts)})")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def test_c01_eigenvalues_match_closed_form():
    t0 = time.monotonic()
    problems = []
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        oracle = bessel_oracle(alpha, 5)
        rel = {}
        for n_r in (4000, 8000):
            grid = build_radial_grid(alpha, n_r, 2.0 / (2.0 - alpha))
            op = assemble_radial_operator(alpha, grid)
            vals = radial_spectrum(op, 5).values
            rel[n_r] = np.abs(vals - oracle) / oracle
        worst = max(worst, float(rel[4000].max()))
        if not np.all(rel[4000] < 5e-3):
            problems.append(f"alpha={alpha}: rel error {rel[4000].max():.2e}")
        if not np.all(rel[8000] < rel[4000]):
            problems.append(f"alpha={alpha}: no decrease at n_r doubling")
    _finish(1, "first five eigenvalues vs Bessel closed form", t0, 30.0,
            problems, f"worst rel {worst:.2e}")


def test_c02_spectral_gap_strict():
    t0 = time.monotonic()
    problems = []
    for alpha in np.linspace(0.1, 0.9, 9):
        floor = (1.0 - alpha) ** 2 / 4.0
        lam1 = float(bessel_oracle(alpha, 1)[0])
        grid = build_radial_grid(alpha, 300, 2.0 / (2.0 - alpha))
        op = assemble_radial_operator(alpha, grid)
        lam1_d = float(radial_spectrum(op, 1).values[0])
        if not (floor < lam1 and floor < lam1_d):
            problems.append(f"alpha={alpha:.2f}: gap floor {floor:.4f} "
                            f"not below {lam1:.4f}/{lam1_d:.4f}")
    _finish(2, "gap floor below the first eigenvalue, 9 alphas", t0, 10.0,
            problems)


def test_c03_hardy_bound_thousand_polynomials():
    t0 = time.monotonic()
    problems = []
    grid = build_radial_grid(0.5, 200, 4.0 / 3.0)
    rng = np.random.default_rng(12345)
    worst = 0.0
    for i in range(1000):
        coef = rng.standard_normal(int(rng.integers(2, 7)))
        u = grid.nodes * (1.0 - grid.nodes) \
            * np.polynomial.polynomial.polyval(grid.nodes, coef)
        rep = hardy_ratio(u, 0.5, grid)
        worst = max(worst, rep.ratio)
        if rep.ratio > 16.0 * (1.0 + 1e-6):
            problems.append(f"sample {i}: ratio {rep.ratio:.6f}")
    _finish(3, "1000 random polynomials below the Hardy constant", t0, 10.0,
            problems, f"worst ratio {worst:.4f}")


def test_c04_time_stepping_oracle_order_dissipation(desk_model, desk_spec):
    t0 = time.monotonic()
    problems = []
    # eigendatum reduces the scheme to the scalar recurrence exactly
    mu = desk_spec.values[0] + 4.0
    tgrid = time_grid_for(desk_model)
    rho = (1.0 - 0.5 * tgrid.dt * mu) / (1.0 + 0.5 * tgrid.dt * mu)
    states = evolve_mode(desk_model.op, ModeIndex("cos", 2),
                         desk_spec.vectors[:, 0], None, tgrid)
    gap = max(float(np.max(np.abs(states[k]
                                  - rho ** k * desk_spec.vectors[:, 0])))
              for k in range(tgrid.n_time + 1))
    if gap >= 1e-10:
        problems.append(f"scalar-oracle gap {gap:.2e}")
    # halving dt divides the exponential error by about four
    errs = []
    for n_time in (16, 32, 64):
        tg = TimeGrid(0.5, n_time)
        end = evolve_mode(desk_model.op, ModeIndex("cos", 0),
                          desk_spec.vectors[:, 0], None, tg)[-1][0] \
            / desk_spec.vectors[0, 0]
        errs.append(abs(end - math.exp(-desk_spec.values[0] * 0.5)))
    factors = [a / b for a, b in zip(errs, errs[1:])]
    if not all(3.8 <= f <= 4.2 for f in factors):
        problems.append(f"halving factors {factors}")
    # random datum never gains energy between steps
    data = np.random.default_rng(5).standard_normal(
        (desk_model.n_modes, desk_model.n_radial))
    full = solve_forward(ModeCoeffs(desk_model, data))
    norms = np.sqrt(np.sum(desk_model.grid.mass * full ** 2, axis=(1, 2)))
    if not all(b <= a * (1.0 + 1e-14) for a, b in zip(norms, norms[1:])):
        problems.append("energy grew at some step")
    _finish(4, "scheme oracle, second order, dissipativity", t0, 20.0,
            problems, f"oracle gap {gap:.1e}, factors "
            + ",".join(f"{f:.2f}" for f in factors))


def test_c05_parseval_and_roundtrip(desk_model):
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(7)
    worst_p = worst_r = 0.0
    for _ in range(50):
        data = rng.standard_normal((desk_model.n_modes, desk_model.n_radial))
        coeffs = ModeCoeffs(desk_model, data)
        fld = synthesize_field(coeffs)
        n_modes = coeffs_inner(coeffs, coeffs)
        worst_p = max(worst_p, abs(field_norm2(fld) - n_modes) / n_modes)
        back = project_modes(fld)
        worst_r = max(worst_r, float(np.max(np.abs(back.data - data))))
    if worst_p >= 1e-10:
        problems.append(f"norm identity gap {worst_p:.2e}")
    if worst_r >= 1e-12:
        problems.append(f"roundtrip gap {worst_r:.2e}")
    _finish(5, "norm identity and analysis-synthesis roundtrip", t0, 5.0,
            problems, f"gaps {worst_p:.1e}/{worst_r:.1e}")


def test_c06_weight_function_suite():
    t0 = time.monotonic()
    problems = []
    worst = 0.0
    for T in (0.5, 1.0, 2.0):
        rep = verify_theta_bounds(T, np.linspace(0.0, T, 10 ** 4 + 1))
        worst = max(worst, rep.max_first_ratio, rep.max_second_ratio)
        if not (rep.ok and rep.max_first_ratio <= 1.0
                and rep.max_second_ratio <= 1.0):
            problems.append(f"T={T}: ratios {rep.max_first_ratio:.3f}"
                            f"/{rep.max_second_ratio:.3f}")
    eta = build_eta(0.5, 0.3, 0.6)
    for knot in (eta.p, eta.q_hat):
        lo, hi = np.array([knot - 1e-12]), np.array([knot + 1e-12])
        if abs(eta.value(lo)[0] - eta.value(hi)[0]) > 1e-9:
            problems.append(f"value jump at {knot:.3f}")
        for order in (1, 2, 3):
            d0 = eta.derivative(lo, order)[0]
            d1 = eta.derivative(hi, order)[0]
            if abs(d0 - d1) > 1e-5 * max(1.0, abs(d0)):
                problems.append(f"order-{order} jump at {knot:.3f}")
    r_in = np.linspace(0.01, eta.p - 0.01, 50)
    if np.max(np.abs(r_in * eta.derivative(r_in, 1)
                     - (2.0 - eta.alpha) * eta.value(r_in))) > 1e-12:
        problems.append("inner branch identity broken")
    r_out = np.linspace(eta.q_hat + 0.01, 0.99, 50)
    if np.max(np.abs(eta.value(r_out) * r_out ** eta.alpha
                     - (1.0 - r_out))) > 1e-12:
        problems.append("outer branch identity broken")
    w = build_carleman_weights(eta, 1.0, s0_default(1.0))
    r = np.linspace(1e-4, 1.0 - 1e-9, 10 ** 4 + 1)
    if np.min(w.gamma - eta.value(r)) < 1.0 - 1e-12:
        problems.append("gamma - eta dips below one")
    _finish(6, "time weight bounds, spatial weight junctions and gap", t0,
            5.0, problems, f"worst theta ratio {worst:.3f}")


def test_c07_weighted_estimate_regression(desk_model, desk_spec):
    t0 = time.monotonic()
    problems = []
    eta = build_eta(0.5, 0.3, 0.6)
    s0 = s0_default(desk_model.config.T_horizon)
    ratios = []
    for parity, n, k in _CARLEMAN_FAMILY:
        data = np.zeros((desk_model.n_modes, desk_model.n_radial))
        data[desk_model.mode_position(ModeIndex(parity, n))] = \
            desk_spec.vectors[:, k - 1]
        mode = ModeIndex(parity, n)
        states = solve_forward(ModeCoeffs(desk_model, data))
        rep = carleman_report(mode, states[:, desk_model.mode_position(mode)],
                              time_grid_for(desk_model), None, eta,
                              desk_model.grid, [s0, 2.0 * s0, 4.0 * s0])
        for row in rep.rows:
            if not (np.isfinite(row.ratio) and row.ratio > 0.0):
                problems.append(f"{parity}/{n}/{k} s={row.s:.1f}: "
                                f"ratio {row.ratio}")
            ratios.append(row.ratio)
    if not problems:
        try:
            check_golden("carleman_acceptance_ratios", ratios)
        except AssertionError as exc:
            problems.append(str(exc))
    _finish(7, "weighted-estimate ratios finite and within regression band",
            t0, 60.0, problems,
            f"{len(ratios)} ratios, max {max(ratios):.3e}")


def test_c08_restricted_gram_oracles(request):
    t0 = time.monotonic()
    problems = []
    # frequency cap zero: the eigenvalue is the normalized interval length
    for c, d in ((0.0, 1.0), (0.4, 2.1), (1.0, 6.0)):
        tg = torus_smallest_gram_eigenvalue(0, (c, d))
        exact = (d - c) / (2.0 * math.pi)
        if abs(tg.lambda_min - exact) > 1e-12 * exact:
            problems.append(f"K=0 on ({c},{d}): {tg.lambda_min!r}")
    # small caps against plain numerical quadrature plus dense rotation
    c, d = 0.7, 2.0
    with mp.workdps(60):
        def basis(theta, m):
            if m.parity == "cos":
                if m.n == 0:
                    return 1 / mp.sqrt(2 * mp.pi)
                return mp.cos(m.n * theta) / mp.sqrt(mp.pi)
            return mp.sin(m.n * theta) / mp.sqrt(mp.pi)

        for K in (1, 2, 3):
            modes = mode_set(K)
            dim = len(modes)
            gm = mp.zeros(dim)
            for i in range(dim):
                for j in range(i, dim):
                    val = mp.quad(
                        lambda th: basis(th, modes[i]) * basis(th, modes[j]),
                        [c, d])
                    gm[i, j] = val
                    gm[j, i] = val
            brute = float(jacobi_eigh_mp(gm)[0][0])
            lam = torus_smallest_gram_eigenvalue(K, (c, d)).lambda_min
            if abs(lam - brute) > 1e-10 * brute:
                problems.append(f"K={K}: {lam!r} vs quadrature {brute!r}")
    # growth-rate regression on the unit interval up to K = 12
    unit_gram = request.getfixturevalue("unit_gram")
    cs = [unit_gram(K).c_emp for K in range(13)]
    if not all(1.0 <= v <= 9.0 for v in cs):
        problems.append(f"c_emp left [1, 9]: {cs}")
    k12 = unit_gram(12)
    if abs(k12.lambda_min - 1.250739455e-43) > 1e-6 * 1.250739455e-43:
        problems.append(f"K=12 eigenvalue drifted: {k12.lambda_min!r}")
    _finish(8, "restricted Gram vs exact length, quadrature, growth band",
            t0, 20.0, problems, f"c_emp(12) {cs[-1]:.4f}")


def test_c09_observability_monotone_and_oracle(desk_model, desk_spec):
    t0 = time.monotonic()
    problems = []
    # nested frequency caps on the full torus, decoupled route
    model16 = build_model(ModelConfig(alpha=0.5, T_horizon=0.5,
                                      n_theta_max=16, n_r=120, n_time=32))
    spec16 = radial_spectrum(model16.op, 4)
    full = [truncated_observability(model16, spec16, (0.0, 2.0 * math.pi),
                                    0.3, 0.6, j, k_max=4).c_emp
            for j in range(5)]
    if not all(b >= a * (1.0 - 1e-6) for a, b in zip(full, full[1:])):
        problems.append(f"full-torus constants not monotone: {full}")
    # proper subinterval couples the modes; nesting must still hold
    spec2 = radial_spectrum(desk_model.op, 2)
    part = [truncated_observability(desk_model, spec2, (0.0, math.pi),
                                    0.3, 0.6, j, k_max=2).c_emp
            for j in range(3)]
    if not all(b >= a * (1.0 - 1e-6) for a, b in zip(part, part[1:])):
        problems.append(f"subinterval constants not monotone: {part}")
    # one radial basis vector collapses the pencil to a hand ratio
    n = 2
    T = desk_model.config.T_horizon
    est = mode_observability_constant(desk_model, desk_spec, n, 0.3, 0.6,
                                      k_max=1)
    mu = desk_spec.values[0] + n * n
    sel = (desk_model.grid.nodes > 0.3) & (desk_model.grid.nodes < 0.6)
    overlap = float(np.sum(desk_model.grid.mass[sel]
                           * desk_spec.vectors[sel, 0] ** 2))
    oracle = math.exp(-2.0 * mu * T) / (
        (1.0 - math.exp(-2.0 * mu * T)) / (2.0 * mu) * overlap)
    if abs(est.c_emp - oracle) > 1e-8 * oracle:
        problems.append(f"scalar oracle {oracle!r} vs {est.c_emp!r}")
    _finish(9, "constants grow with the frequency cap; scalar oracle", t0,
            60.0, problems,
            f"torus {full[0]:.3e}..{full[-1]:.3e}, "
            f"patch {part[0]:.3e}..{part[-1]:.3e}")


def test_c10_penalized_control_suite(request, desk_model, desk_phi0):
    t0 = time.monotonic()
    problems = []
    res = request.getfixturevalue("desk_hum")
    cases = [(res, 1e-8)]
    for eps in (1e-8, 1e-4):
        cases.append((hum_control(desk_phi0, Cylinder(0.3, 0.6), eps,
                                  cg_tol=1e-9),
                      1e-9))
    for case, cg_tol in cases:
        if case.identity_gap > 10.0 * cg_tol * case.phi0_norm:
            problems.append(f"eps={case.epsilon:.0e}: identity gap "
                            f"{case.identity_gap:.2e}")
    if res.terminal_residual / res.phi0_norm > 1e-3:
        problems.append(f"desk residual {res.terminal_residual:.2e}")
    # direct dense solve of the same penalized system
    dense = request.getfixturevalue("desk_dense_hum_y")
    rel = (np.linalg.norm(dense - res.y_terminal.data)
           / np.linalg.norm(dense))
    if rel > 1e-6:
        problems.append(f"dense-solve disagreement {rel:.2e}")
    # symmetry of the quadratic form behind it
    rng = np.random.default_rng(3)
    x = ModeCoeffs(desk_model, rng.standard_normal(
        (desk_model.n_modes, desk_model.n_radial)))
    z = ModeCoeffs(desk_model, rng.standard_normal(
        (desk_model.n_modes, desk_model.n_radial)))
    gx = apply_control_gramian(Cylinder(0.3, 0.6), x)
    gz = apply_control_gramian(Cylinder(0.3, 0.6), z)
    sym = abs(coeffs_inner(gx, z) - coeffs_inner(x, gz)) \
        / math.sqrt(coeffs_inner(x, x) * coeffs_inner(z, z))
    if sym > 1e-9:
        problems.append(f"symmetry defect {sym:.2e}")
    _finish(10, "penalized identity, desk residual, dense oracle, symmetry",
            t0, 120.0, problems,
            f"residual {res.terminal_residual / res.phi0_norm:.2e}, "
            f"dense rel {rel:.2e}")


def test_c11_block_control(desk_model, desk_spec):
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(0)
    data = np.zeros((desk_model.n_modes, desk_model.n_radial))
    for i, m in enumerate(desk_model.modes):
        if m.n <= 1:
            data[i] = desk_spec.vectors[:, :4] @ rng.standard_normal(4)
    nrm = math.sqrt(float(np.sum(desk_model.grid.mass[None, :] * data ** 2)))
    phi0 = ModeCoeffs(desk_model, data / nrm)
    res = lr_control(phi0, Cylinder(0.3, 0.6), 1e-3)
    if not res.converged or res.final_residual > 1e-3:
        problems.append(f"final residual {res.final_residual:.2e}")
    if not all(a > b for a, b in zip(res.block_norms, res.block_norms[1:])):
        problems.append(f"block norms not decreasing: {res.block_norms}")
    _finish(11, "staged low-mode control hits the target and contracts", t0,
            120.0, problems,
            f"final {res.final_residual:.2e}, norms "
            + ",".join(f"{v:.1e}" for v in res.block_norms))


def test_c12_measurable_set_pipeline(request, meas_model, meas_region):
    t0 = time.monotonic()
    problems = []
    rep = request.getfixturevalue("meas_report")
    # geometric identity and per-gap occupation for every produced sequence
    slices = build_time_slices(meas_region, meas_model)
    seqs = [(np.asarray(rep.sequence), rep.q)]
    for q in (0.3, 0.6, 0.9):
        seqs.append((np.asarray(
            density_sequence(slices, rep.ell, q, m_max=12).values), q))
    for vals, q in seqs:
        gaps = vals[:-1] - vals[1:]
        scale = vals[0] - rep.ell
        drift = np.max(np.abs(gaps[1:] - q * gaps[:-1]))
        if drift > 1e-12 * scale:
            problems.append(f"gap identity drift {drift:.2e} at q={q}")
        for hi, lo, gap in zip(vals[:-1], vals[1:], gaps):
            if slices.measure_within(lo, hi) < gap / 3.0 - 1e-15:
                problems.append(f"gap ({lo:.4f},{hi:.4f}) under a third")
    # the retained time set is never smaller than the averaging floor
    rng = np.random.default_rng(2026)
    for i in range(100):
        boxes = []
        for _ in range(int(rng.integers(1, 4))):
            t0b = float(rng.uniform(0.0, 0.8))
            t1b = float(rng.uniform(t0b + 0.05, 1.0))
            h0 = float(rng.uniform(0.0, 5.0))
            h1 = float(rng.uniform(h0 + 0.1, 2.0 * math.pi))
            r0 = float(rng.uniform(0.3, 0.55))
            r1 = float(rng.uniform(r0 + 0.01, 0.6))
            boxes.append(((h0, h1), (r0, r1), (t0b, t1b)))
        region = BoxUnionSet(boxes=tuple(boxes), band_a=0.3, band_b=0.6,
                             horizon=1.0)
        sl = build_time_slices(region)
        floor = region.measure / (2.0 * region.patch_measure())
        if sl.measure < floor - 1e-12:
            problems.append(f"seeded union {i}: measure {sl.measure:.4f} "
                            f"below floor {floor:.4f}")
    # membership in a slice at a retained time implies membership in the set
    for lo, hi in slices.intervals:
        t = 0.5 * (lo + hi)
        mask = meas_region.slice_mask(meas_model, t)
        hits = np.argwhere(mask == 1.0)
        for qi, ri in hits[:: max(1, hits.shape[0] // 50)]:
            if not meas_region.contains(float(meas_model.theta_nodes[qi]),
                                        float(meas_model.grid.nodes[ri]), t):
                problems.append(f"slice point escapes the set at t={t:.3f}")
                break
    if rep.e_measure < meas_region.measure / (2.0 * meas_region.patch_measure()):
        problems.append("pipeline time set below the averaging floor")
    if not problems:
        try:
            check_golden("measurable_rho_max", rep.rho_max)
        except AssertionError as exc:
            problems.append(str(exc))
    _finish(12, "time-set identities, 100 seeded floors, worst ratio band",
            t0, 60.0, problems, f"rho_max {rep.rho_max:.3e}")


def test_c13_derivative_growth_and_extension(meas_model, meas_full_spec,
                                             meas_family):
    t0 = time.monotonic()
    problems = []
    noise = meas_family[6]
    for t in (0.25, 1.0):
        rep = derivative_bound_report(meas_full_spec, noise, t, l_max=8)
        for order, disc, bound in zip(rep.orders, rep.discrete_max,
                                      rep.calculus_bound):
            if order >= 1 and disc > bound * (1.0 + 1e-12):
                problems.append(f"t={t}, l={order}: {disc:.3e} > {bound:.3e}")
    # mix of the six lowest eigenmodes, all inside the kept span
    mix = sum(d.data for d in meas_family[:6])
    nrm = math.sqrt(float(np.sum(meas_model.grid.mass[None, :] * mix ** 2)))
    phi0 = ModeCoeffs(meas_model, mix / nrm)
    ext = extended_field(meas_full_spec, phi0, 0.5, np.linspace(0.0, 2.0, 9),
                         cap=8)
    if ext.snapshot_gap > 1e-9:
        problems.append(f"snapshot gap {ext.snapshot_gap:.2e}")
    if ext.elliptic_residual > 1e-6:
        problems.append(f"elliptic residual {ext.elliptic_residual:.2e}")
    # a datum inside the kept span is reproduced exactly at the base slice
    pure = meas_family[0]
    ext0 = extended_field(meas_full_spec, pure, 0.5, np.linspace(0.0, 1.0, 5),
                          cap=8)
    prop = SpectralPropagator(meas_full_spec, pure)
    gap0 = float(np.max(np.abs(ext0.samples[0] - prop.field_at(0.5))))
    if gap0 > 1e-9:
        problems.append(f"base-slice restriction gap {gap0:.2e}")
    _finish(13, "derivative growth under the calculus bound; extension", t0,
            20.0, problems, f"snapshot gap {ext.snapshot_gap:.1e}")


_BASE14 = {"alpha": 0.5, "T_horizon": 1.0, "n_theta_max": 2, "n_r": 40,
           "n_time": 32}

_SUITE14 = (
    ("spectrum", dict(_BASE14, k_eigen=4)),
    ("hardy", dict(_BASE14, n_samples=50)),
    ("solve", dict(_BASE14, initial_parity="cos", initial_n=1, initial_k=1,
                   snapshot_times=[0.25, 0.75])),
    ("carleman", dict(_BASE14)),
    ("spectral-ineq", dict(_BASE14, freq_caps=[0, 1, 2, 3])),
    ("observability", dict(_BASE14, k_max=4, j_max=1, subspace_k_max=2)),
    ("hum", dict(_BASE14, epsilon=1e-4, cg_tol=1e-6, max_iter=300)),
    ("lr", dict(_BASE14)),
    ("measurable", dict(_BASE14, family_size=6, m_max=16, n_quad=8)),
    ("density-seq", dict(_BASE14)),
)


def _run_suite(root):
    root.mkdir()
    produced = {}
    for command, payload in _SUITE14:
        cfg = root / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        out = root / command
        code = main([command, "--config", str(cfg), "--out", str(out),
                     "--seed", "3"])
        assert code == 0, f"{command} exited {code}"
        for path in sorted(out.iterdir()):
            key = f"{command}/{path.name}"
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                produced[key] = json.dumps(manifest["artifacts"],
                                           sort_keys=True)
            else:
                produced[key] = path.read_bytes()
    return produced


def test_c14_full_suite_byte_determinism(tmp_path):
    t0 = time.monotonic()
    problems = []
    first = _run_suite(tmp_path / "run_a")
    second = _run_suite(tmp_path / "run_b")
    if set(first) != set(second):
        problems.append("runs produced different artifact sets")
    else:
        diff = [k for k in first if first[k] != second[k]]
        if diff:
            problems.append("artifacts differ between runs: "
                            + ", ".join(diff))
    _finish(14, "two seeded full runs are byte identical", t0, None,
            problems, f"{len(first)} artifacts compared")
