"""Restricted Gram eigenvalues and truncated observability constants.

The dual-route checks here are the heart of the module: closed-form Gram
entries against direct quadrature, the coupled estimator against the
per-mode reduction on the full circle, and the scalar case against a
pencil-and-paper formula.
"""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from degenctrl import (ConfigError, ModelConfig, NonConvergenceError,
                       assemble_radial_operator, build_model,
                       mode_observability_constant, mode_set,
                       radial_spectrum, torus_smallest_gram_eigenvalue,
                       truncated_observability)
from degenctrl import observability
from degenctrl.observability import (_angular_gram, _coupled_form,
                                     _recentred, _restricted_overlap,
                                     _rotate_back, _slepian_tridiagonal)

from ._oracles import (_coupled_matrices_mp, _pencil_top_mp,
                       angular_gram_nine_case,
                       coupled_observability_inverse_mp,
                       coupled_observability_unsplit_mp,
                       gram_lambda_min_full, gram_lambda_min_parity_blocks,
                       jacobi_eigh_mp)


def test_full_circle_gram_is_identity():
    tg = torus_smallest_gram_eigenvalue(5, (0.0, 2.0 * math.pi))
    assert tg.lambda_min == pytest.approx(1.0, abs=1e-12)
    gram = _angular_gram(mode_set(5), 0.0, 2.0 * math.pi, math)
    assert np.max(np.abs(gram - np.eye(11))) < 1e-12


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


def test_moment_gram_matches_nine_case_bitwise():
    # the moment tables give the nine-case integrals bit for bit: float64
    # with the signs of its zeros, mp on the full mode set and on each
    # parity block, as the coupled and the re-centred routes call it
    rng = np.random.default_rng(20)
    cases = [(0.0, 2.0 * math.pi), (-math.pi, math.pi)]
    for _ in range(12):
        c, d = np.sort(rng.uniform(0.0, 2.0 * math.pi, 2))
        w = rng.uniform(0.01, math.pi)
        cases += [(float(c), float(d)), (-float(w), float(w))]
    for idx, (c, d) in enumerate(cases):
        modes = mode_set(12 - idx % 13)
        new = _angular_gram(modes, c, d, math)
        assert new.tobytes() == angular_gram_nine_case(modes, c, d,
                                                       math).tobytes(), (c, d)
        parts = (modes, [m for m in modes if m.parity == "cos"],
                 [m for m in modes if m.parity == "sin"])
        for dps in (30, 68):
            with mp.workdps(dps):
                for part in filter(None, parts):
                    new, old = (gram(part, mp.mpf(c), mp.mpf(d), mp).tolist()
                                for gram in (_angular_gram,
                                             angular_gram_nine_case))
                    assert ([v._mpf_ for row in new for v in row]
                            == [v._mpf_ for row in old for v in row]), \
                        (c, d, dps, len(part))


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


def test_gram_forms_no_matrix_and_runs_no_eigsy(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("the restricted Gram built a dense mp matrix")

    monkeypatch.setattr(mp, "eigsy", dense)
    monkeypatch.setattr(mp, "matrix", dense)
    monkeypatch.setattr(observability, "_angular_gram", dense)
    tg = torus_smallest_gram_eigenvalue(12, (0.0, 1.0))
    assert tg.lambda_min == pytest.approx(1.250739455e-43, rel=1e-6)
    assert tg.dps_used == 68


def test_gram_validation():
    with pytest.raises(ConfigError):
        torus_smallest_gram_eigenvalue(-1, (0.0, 1.0))
    with pytest.raises(ConfigError):
        torus_smallest_gram_eigenvalue(2, (1.0, 0.5))
    with pytest.raises(ConfigError):
        torus_smallest_gram_eigenvalue(2, (0.0, 7.0))
    # a (2K+1)^2 Gram past numpy's index range; nothing is allocated
    with pytest.raises(ConfigError, match="index range"):
        torus_smallest_gram_eigenvalue(10 ** 30, (0.0, 1.0))


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
    # refused by its exponent, without building 2^j
    with pytest.raises(ConfigError, match=r"2\^"):
        truncated_observability(desk_model, desk_spec, (0.0, 1.0),
                                0.3, 0.6, 10 ** 30, k_max=2)
    # a band outside (0, 1] is refused on a proper interval as on the torus
    for band in ((-1.0, 0.5), (0.3, 5.0)):
        for interval in ((0.0, 1.0), (0.0, 2.0 * math.pi)):
            with pytest.raises(ConfigError, match="0 < a < b <= 1"):
                truncated_observability(desk_model, desk_spec, interval,
                                        *band, 1, k_max=3)


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


def _prolate_matrix(n, w):
    # P[j, k] = sin(w (j - k)) / (pi (j - k)), the Gram of e^{i n theta}
    # / sqrt(2 pi), |n| <= K, on (-w, w), built entry by entry
    return mp.matrix([[mp.sin(w * (j - k)) / (mp.pi * (j - k)) if j != k
                       else w / mp.pi for k in range(n)] for j in range(n)])


def _parity_blocks(K, width):
    # the restricted Gram's cos and sin blocks on (-w, w), as mp matrices
    w, _, parts = _recentred(mode_set(K), 0.0, width)
    return w, [mp.matrix(_angular_gram(part, -w, w, mp).tolist())
               for part in parts if part]


@pytest.mark.parametrize("K, width", [(4, 1.0), (12, 0.4), (6, 5.0)])
def test_parity_block_spectrum_is_the_prolate_spectrum(K, width):
    with mp.workdps(50):
        w, blocks = _parity_blocks(K, width)
        gram = sorted(v for block in blocks
                      for v in mp.eigsy(block, eigvals_only=True))
        prolate = sorted(mp.eigsy(_prolate_matrix(2 * K + 1, w),
                                  eigvals_only=True))
        scale = prolate[-1]
        assert max(abs(a - b) for a, b in zip(gram, prolate)) \
            <= mp.mpf(10) ** -40 * scale


@pytest.mark.parametrize("K, width", [(4, 1.0), (12, 0.4), (6, 5.0),
                                      (3, math.pi)])
def test_slepian_tridiagonal_commutes_with_the_prolate_matrix(K, width):
    n = 2 * K + 1
    with mp.workdps(50):
        w = mp.mpf(width) / 2
        diag, off = _slepian_tridiagonal(n, mp.cos(w))
        tri = mp.diag(diag)
        for i, v in enumerate(off):
            tri[i, i + 1] = tri[i + 1, i] = v
        p = _prolate_matrix(n, w)
        gap = mp.mnorm(p * tri - tri * p, 1)
        assert gap / (mp.mnorm(p, 1) * mp.mnorm(tri, 1)) < mp.mpf(10) ** -45


@pytest.mark.parametrize("K, width", [(4, 1.0), (5, 5.0)])
def test_parity_blocks_hold_the_even_and_odd_prolate_vectors(K, width):
    # a cos block eigenvector y is the symmetric vector v[K +- n] = y[n]/sqrt2
    # (v[K] = y[0]) of P, a sin block eigenvector z the antisymmetric one
    # v[K +- n] = +- z[n - 1]/sqrt2; each must be P's eigenvector with the
    # block's eigenvalue, so the blocks split P's spectrum by parity
    n = 2 * K + 1
    with mp.workdps(50):
        w, (cos_block, sin_block) = _parity_blocks(K, width)
        p = _prolate_matrix(n, w)
        for block, sign in ((cos_block, 1), (sin_block, -1)):
            vals, vecs = mp.eigsy(block)
            for col in range(block.rows):
                y = [vecs[i, col] for i in range(block.rows)]
                if sign > 0:
                    y = [y[0] * mp.sqrt(2)] + y[1:]
                else:
                    y = [mp.mpf(0)] + y
                v = mp.matrix([sign * y[K - i] if i < K else y[i - K]
                               for i in range(n)]) / mp.sqrt(2)
                res = mp.norm(p * v - vals[col] * v)
                assert abs(mp.norm(v) - 1) < mp.mpf(10) ** -45
                assert res < mp.mpf(10) ** -45, (sign, col)


@pytest.mark.parametrize("interval", [
    (0.0, 1.0), (0.4, 2.1), (0.0, math.pi), (0.0, 2.0 * math.pi), (3.0, 3.05),
    (0.0, 4.0), (0.5, 5.5), (0.1, 6.25),  # cos w < 0 past width pi
    (1.0, 1.0001)])
def test_prolate_route_matches_both_gram_oracles(interval):
    for K in range(13):
        tg = torus_smallest_gram_eigenvalue(K, interval)
        for oracle in (gram_lambda_min_full, gram_lambda_min_parity_blocks):
            lam, dps = oracle(K, interval)
            assert tg.lambda_min == pytest.approx(lam, rel=1e-12), (K, oracle)
            assert tg.dps_used == dps, (K, oracle)


@pytest.mark.parametrize("width", [0.4, 1.0, math.pi, 5.0])
def test_prolate_decay_rate_approaches_the_closed_form(width):
    # the increment of -ln lambda_min per unit of N = 2K + 1 rises towards
    # gamma = 2 ln cot(width / 8), the exponential rate of Slepian's
    # asymptotics for the smallest eigenvalues of P(N, W)
    gamma = 2.0 * math.log(1.0 / math.tan(width / 8.0))
    logs = [-math.log(torus_smallest_gram_eigenvalue(K, (0.0, width))
                      .lambda_min) for K in range(16, 33, 4)]
    steps = [(b - a) / 8.0 for a, b in zip(logs, logs[1:])]
    assert all(a < b for a, b in zip(steps, steps[1:])), steps
    assert all(s < gamma for s in steps), (steps, gamma)
    assert steps[-1] > 0.98 * gamma, (steps, gamma)


def test_gram_ladder_shape_is_flat_at_every_offset(desk_model, desk_spec):
    # the observability op of perfbench's gram-ladder workload, band (0.3,
    # 0.6) and k_max 3, at 20 seeded offsets of its width-0.4 patch: a
    # rotation of the patch keeps every constant, so each j keeps its
    # route and value (the j = 2 value is the frozen CI one, from the
    # whole-pencil oracle)
    frozen = ((0, "float64", 5.29464174417851, 1e-9),
              (1, "float64", 56.46636436228079, 1e-9),
              (2, "mp(dps=66)", 699.5375752611908, 1e-12))
    rng = random.Random(34)
    for _ in range(20):
        c = rng.uniform(0.0, 2.0 * math.pi - 0.4)
        for j, route, c_emp, rtol in frozen:
            est = truncated_observability(desk_model, desk_spec, (c, c + 0.4),
                                          0.3, 0.6, j, k_max=3)
            assert est.precision == route, (c, j)
            assert abs(est.c_emp - c_emp) <= rtol * c_emp, (c, j)
            assert est.residual <= 1e-6, (c, j)


def test_patch_may_start_within_the_slack(desk_model, desk_spec):
    # the one interval rule allows 1e-12 below 0, as box edges always had
    for start in (-1e-12, -5e-13):
        gram = torus_smallest_gram_eigenvalue(3, (start, 1.0))
        assert gram.lambda_min == pytest.approx(
            torus_smallest_gram_eigenvalue(3, (0.0, 1.0)).lambda_min,
            rel=1e-9)
        est = truncated_observability(desk_model, desk_spec, (start, 1.0),
                                      0.3, 0.6, 0, k_max=3)
        assert est.c_emp == pytest.approx(truncated_observability(
            desk_model, desk_spec, (0.0, 1.0), 0.3, 0.6, 0,
            k_max=3).c_emp, rel=1e-9)
    with pytest.raises(ConfigError, match="angular patch must satisfy"):
        torus_smallest_gram_eigenvalue(3, (-2e-12, 1.0))


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


def _gram_ladder_intervals(seed, ops=3):
    # the observability intervals of perfbench's gram-ladder workload: per
    # op, a spectral-ineq start c and then the observed start c'
    rng = random.Random(seed)
    out = []
    for _ in range(ops):
        rng.uniform(0.0, 2.0 * math.pi - 1.0)
        c_obs = rng.uniform(0.0, 2.0 * math.pi - 0.4)
        out.append((c_obs, c_obs + 0.4))
    return out


@pytest.mark.parametrize("interval, k_max, force_mp", [
    *[(interval, 3, False) for seed in (1, 23)
      for interval in _gram_ladder_intervals(seed)],
    ((2.0, 2.4), 6, False),           # dimension 54
    ((0.0, math.pi), 2, True),
])
def test_parity_split_matches_unsplit_route(desk_model, desk_spec, monkeypatch,
                                            interval, k_max, force_mp):
    # the two parity pencils on (-w, w) against the whole pencil on (c, d)
    if force_mp:
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(observability, "eigh", singular)
    est = truncated_observability(desk_model, desk_spec, interval, 0.3, 0.6,
                                  2, k_max=k_max)
    c_emp, extremal, residual, precision = coupled_observability_unsplit_mp(
        desk_spec, interval, 0.3, 0.6, 2, k_max, desk_model.config.T_horizon)
    assert est.precision == precision
    assert est.c_emp.hex() == c_emp.hex()
    sign = math.copysign(1.0, float(np.dot(est.extremal, extremal)))
    assert np.max(np.abs(sign * est.extremal - extremal)) <= 1e-20
    assert est.residual <= 1e-30 and residual <= 1e-30


@pytest.mark.parametrize("interval, j, dps", [
    ((3.0, 3.2), 2, 66), ((0.3, 0.35), 2, 66), ((2.0, 2.02), 1, 60),
    ((4.0, 4.001), 1, 60)])
def test_narrow_interval_starts_on_the_shared_ladder(desk_model, desk_spec,
                                                     interval, j, dps):
    # the angular Gram needs a second attempt on these intervals, so the
    # oracle, which starts 30 digits above the Gram's precision, runs at
    # 102 (j 2) or 90 (j 1) digits; production starts at _start_dps + 30
    est = truncated_observability(desk_model, desk_spec, interval, 0.3, 0.6,
                                  j, k_max=3)
    c_emp, extremal, _, precision = coupled_observability_unsplit_mp(
        desk_spec, interval, 0.3, 0.6, j, 3, desk_model.config.T_horizon)
    assert est.precision == f"mp(dps={dps})" != precision
    assert est.c_emp.hex() == c_emp.hex()
    sign = math.copysign(1.0, float(np.dot(est.extremal, extremal)))
    assert np.max(np.abs(sign * est.extremal - extremal)) <= 1e-20
    assert est.residual <= 1e-30


def test_precision_ladder_doubles_from_its_start():
    seen = []

    def attempt():
        seen.append(mp.mp.dps)
        return mp.mp.dps if mp.mp.dps >= 200 else None

    result = observability._precision_ladder(attempt, 30, 4, "none")
    assert result == (240, 240) and seen == [30, 60, 120, 240]
    with pytest.raises(NonConvergenceError, match="^none$"):
        observability._precision_ladder(attempt, 30, 3, "none")
    assert seen[4:] == [30, 60, 120]
    assert [observability._start_dps(K) for K in (0, 2, 3, 4, 12)] == [
        30, 30, 32, 36, 68]


def test_coupled_route_runs_no_gram_eigensolve(desk_model, desk_spec,
                                               monkeypatch):
    def no_gram(*args, **kwargs):
        raise AssertionError("the coupled route solved the angular Gram")

    monkeypatch.setattr(observability, "torus_smallest_gram_eigenvalue",
                        no_gram)
    est = truncated_observability(desk_model, desk_spec, (2.0, 2.4), 0.3, 0.6,
                                  2, k_max=3)
    assert est.precision == "mp(dps=66)"
    assert est.c_emp.hex() == "0x1.5dc4cf4422fa0p+9"


def test_failed_cholesky_doubles_the_precision(desk_model, desk_spec,
                                               monkeypatch):
    cholesky = mp.cholesky

    def fails_at_66(matrix):
        if mp.mp.dps == 66:
            raise ValueError("matrix is not positive-definite")
        return cholesky(matrix)

    monkeypatch.setattr(mp, "cholesky", fails_at_66)
    est = truncated_observability(desk_model, desk_spec, (2.0, 2.4), 0.3, 0.6,
                                  2, k_max=3)
    assert est.precision == "mp(dps=132)"
    assert est.c_emp.hex() == "0x1.5dc4cf4422fa0p+9"
    assert est.residual <= 1e-100


def test_coupled_route_runs_no_eigsy(desk_model, desk_spec, monkeypatch):
    def no_eigsy(*args, **kwargs):
        raise AssertionError("the coupled route called mp.eigsy")

    monkeypatch.setattr(mp, "eigsy", no_eigsy)
    est = truncated_observability(desk_model, desk_spec, (2.0, 2.4), 0.3, 0.6,
                                  2, k_max=3)
    assert est.precision == "mp(dps=66)"
    assert est.c_emp.hex() == "0x1.5dc4cf4422fa0p+9"


def test_step_budget_covers_the_top_of_the_ladder(desk_model, desk_spec,
                                                  monkeypatch):
    # the third attempt, at 264 digits, needs the most inverse-iteration
    # steps from the float64 shift
    cholesky = mp.cholesky

    def fails_below_264(matrix):
        if mp.mp.dps in (66, 132):
            raise ValueError("matrix is not positive-definite")
        return cholesky(matrix)

    monkeypatch.setattr(mp, "cholesky", fails_below_264)
    est = truncated_observability(desk_model, desk_spec, (2.0, 2.4), 0.3, 0.6,
                                  2, k_max=3)
    assert est.precision == "mp(dps=264)"
    assert est.c_emp.hex() == "0x1.5dc4cf4422fa0p+9"
    assert est.residual <= 1e-200


def test_sin_block_rotates_back_to_an_unsplit_eigenpair(desk_model, desk_spec):
    # the cos block wins on every interval tried, so the sin branch of the
    # rotation is checked on the sin block's own top pair
    interval, k_max = (2.0, 2.4), 3
    modes = mode_set(4)
    to_mp = np.frompyfunc(mp.mpf, 1, 1)
    lam = to_mp(desk_spec.values[:k_max])
    overlap = to_mp(_restricted_overlap(desk_spec, 0.3, 0.6, k_max))
    T = mp.mpf(desk_model.config.T_horizon)
    dps = gram_lambda_min_full(4, interval)[1] + 30
    with mp.workdps(dps):
        w, mid, (cos_part, sin_part) = _recentred(modes, *interval)
        top_cos = _pencil_top_mp(*_coupled_form(cos_part, lam, overlap,
                                                -w, w, T, mp))[0]
        top, y, _ = _pencil_top_mp(*_coupled_form(sin_part, lam, overlap,
                                                  -w, w, T, mp))
        x = mp.matrix(_rotate_back(modes, sin_part, y, mid, k_max))
        a_diag, b = _coupled_form(modes, lam, overlap,
                                  *(mp.mpf(v) for v in interval), T, mp)
        bx = mp.matrix(b.tolist()) * x
        res = mp.norm(mp.matrix([a_diag[i] * x[i] - top * bx[i]
                                 for i in range(len(x))])) / mp.norm(bx)
        assert top < top_cos
        assert abs(mp.norm(x) - 1) <= mp.mpf(10) ** -50
        assert res <= 1e-30


@pytest.mark.parametrize("interval, j, k_max", [
    ((2.0, 2.4), 2, 3), ((0.0, 1.0), 2, 4), ((1.0, 1.6), 1, 6),
    ((3.0, 3.2), 2, 8), ((5.0, 6.2), 1, 5)])
def test_mp_assembly_matches_entrywise_oracle_bitwise(desk_model, interval,
                                                      j, k_max):
    # the array assembly rounds each entry as the per-entry loop does,
    # g * o first, then the time integral, so every mpf keeps its bits
    spec = radial_spectrum(desk_model.op, k_max)
    modes = mode_set(2 ** j)
    overlap = _restricted_overlap(spec, 0.3, 0.6, k_max)
    to_mp = np.frompyfunc(mp.mpf, 1, 1)
    for dps in (30, 66, 102):
        with mp.workdps(dps):
            c, d = (mp.mpf(v) for v in interval)
            T = mp.mpf(desk_model.config.T_horizon)
            a_diag, form = _coupled_form(modes, to_mp(spec.values[:k_max]),
                                         to_mp(overlap), c, d, T, mp)
            a_old, b_old = _coupled_matrices_mp(
                modes, _angular_gram(modes, c, d, mp), spec, 0.3, 0.6, T,
                k_max)
        assert [v._mpf_ for v in a_diag] == [v._mpf_ for v in a_old], dps
        assert ([v._mpf_ for row in form.tolist() for v in row]
                == [v._mpf_ for row in b_old.tolist() for v in row]), dps


def test_float64_route_keeps_its_bits(desk_model, desk_spec):
    # (c_emp, residual) as float.hex, frozen from the float64 assembly as
    # it stood before one routine assembled both precisions
    for n, frozen in enumerate([
            ("0x1.941f64882b44ap-9", "0x1.e98d6a3f87fd6p-60"),
            ("0x1.29c795e7ac81fp-11", "0x1.0e1d4f553ebb4p-63"),
            ("0x1.8abe0ef39936fp-19", "0x1.858dbff3dfa1ep-70"),
            ("0x1.68636faf33f7dp-32", "0x1.4c033fd123457p-81"),
            ("0x1.8c715b2d5267fp-51", "0x1.c365dd97b8cdfp-100")]):
        est = mode_observability_constant(desk_model, desk_spec, n, 0.3, 0.6,
                                          k_max=6)
        assert (est.c_emp.hex(), est.residual.hex()) == frozen, n
    for interval, j, k_max, frozen in [
            ((0.0, math.pi), 1, 2,
             ("0x1.294b8027212a9p-3", "0x1.603df5e3434b1p-50")),
            ((0.0, 1.0), 1, 3,
             ("0x1.e7dad1d7e6d5dp+3", "0x1.a5ba8ca73b7f8p-36")),
            ((0.4, 2.1), 2, 3,
             ("0x1.ce6c417ef4f65p+4", "0x1.0138c1c0dc051p-30")),
            ((0.0, 1.0), 1, 6,
             ("0x1.1a1e44912a86bp+4", "0x1.6a21932ac11c6p-35"))]:
        est = truncated_observability(desk_model, desk_spec, interval,
                                      0.3, 0.6, j, k_max=k_max)
        assert est.precision == "float64"
        assert (est.c_emp.hex(), est.residual.hex()) == frozen, interval


@pytest.mark.parametrize("estimate", [
    lambda model, spec: mode_observability_constant(model, spec, 0, 0.3, 0.6,
                                                    k_max=8),
    lambda model, spec: truncated_observability(model, spec, (0.0, 1.0),
                                                0.3, 0.6, 1, k_max=6),
], ids=["mode", "truncated"])
def test_spectrum_of_another_model_is_config_error(desk_model, estimate):
    # another operator's basis gives another constant (8.6e-5 against
    # 3.2e-3 for the mode, 1.19 against 17.6 truncated), so it is refused
    assert estimate(desk_model, radial_spectrum(desk_model.op, 8)).c_emp > 0
    other = build_model(ModelConfig(alpha=0.3, T_horizon=1.0, n_theta_max=4,
                                    n_r=60, n_time=48))
    foreign = (radial_spectrum(other.op, 8),
               radial_spectrum(assemble_radial_operator(0.3, desk_model.grid),
                               8))
    for spec in foreign:
        with pytest.raises(ConfigError, match="another model"):
            estimate(desk_model, spec)


def test_restricted_overlap_is_exactly_symmetric():
    model = build_model(ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=2,
                                    n_r=120, n_time=8))
    spec = radial_spectrum(model.op, 24)
    overlap = _restricted_overlap(spec, 0.3, 0.6, 24)
    assert np.array_equal(overlap, overlap.T)

