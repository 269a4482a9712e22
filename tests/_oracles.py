"""Independent reference routines for cross-checking production solvers.

``jacobi_eigh_mp`` is an arbitrary-precision cyclic Jacobi eigensolver.
Production code solves every mp eigenproblem by inverse iteration from a
float64 shift, and the former routes below diagonalize with mpmath's
Householder tridiagonalization and QL iteration (``mp.eigsy``); the tests
compare against this rotation method, a different algorithm, as a
brute-force oracle. Rotations sweep the strict upper triangle in
row-major order, so runs are deterministic, and a sweep that performs no
rotation ends the iteration.

``evolve_mode_every_step`` is the Crank-Nicolson march that computes all
``n_time`` steps. Production ``evolve_mode`` stops stepping at a bitwise
fixed point after the first step; the tests require the same bits.

``mode_block_gramian_columns`` is the dyadic-block control Gramian built
one unit column at a time, two single-vector marches per column. The
production ``_mode_block_gramian`` marches all columns as one block; the
tests require the two to agree bit for bit.

``lr_control_per_mode`` is the dyadic-block control as it stood before
production ``lr_control`` marched the whole model: every march is one
``evolve_mode`` call per mode, the controlled modes' free marches apart
from the rest, and the modes above the cap march without sources rather
than under zero rows. The tests require the same bits, or the same
``NonConvergenceError`` message.

``gramian_theta_quadrature`` is the control Gramian of a ``BoxUnionSet``
by the route production took for every box union before the mask picked
the path: the masked adjoint field on the (theta node, radial node) grid,
projected back onto the modes by angular quadrature, even when the mask
is the same at every theta node. Production masks the mode data radially
for such a mask; the tests require the two to agree to 1e-12.

``angular_gram_nine_case`` is the restricted angular Gram as it stood
before production ``_angular_gram`` built it from two moment tables: each
entry is its own trig integral, picked from nine cases by the two parities
and frequencies, with its sines and cosines evaluated anew. The tests
require the same bits, in float64 and in mp.

``gram_lambda_min_full`` and ``coupled_observability_inverse_mp`` are the
arbitrary-precision routes as they stood before the production code was
cut down: one ``mp.eigsy`` on the full restricted Gram (no parity split),
and the coupled pencil solved through ``mp.inverse`` of the Cholesky
factor and a full ``mp.eigsy`` with eigenvectors (no inverse iteration).
Both keep the precision ladders production had then. The Gram's ladder
is production's still; the coupled one starts 30 digits above
``gram_lambda_min_full``'s precision and grows by 1.5x, which matches
production's start wherever the Gram resolves on its first attempt, so
there the tests can require the same working precision as well as the
same numbers.

``gram_lambda_min_parity_blocks`` is the restricted Gram as production
solved it before the prolate route: the Gram re-centred on (-w, w), one
eigenvalues-only ``mp.eigsy`` of its cos block and one of its sin block,
on the same ladder and acceptance rule as ``gram_lambda_min_full``.

``coupled_observability_unsplit_mp`` is the coupled mp route as it stood
before production split the pencil by parity: one pencil of the whole
mode set on (c, d), starting 30 digits above ``gram_lambda_min_full``'s
precision and growing by 1.5x, solved by ``_pencil_top_mp``. That
composes the two steps production took before its float64 shift:
``_pencil_top_value_mp``, the largest eigenvalue of an eigenvalues-only
``mp.eigsy`` of ``W W^T``, and ``_pencil_vector_mp``, inverse iteration
on the shifted pencil ``(A - sigma B) x' = B x`` on one LU factorization.
The tests require the same ``c_emp`` bits and the same extremizer up to
sign, and the same precision string wherever the angular Gram resolves
on its first attempt.

``_coupled_matrices_mp`` is the coupled mp pencil as production assembled
it before one ``_observation_form`` served both precisions: a per-entry
double loop over the upper triangle, each entry ``g * o * (1 - e^{-sT}) / s``
with its own ``mu`` and overlap. The tests require the same bits.

``bessel_oracle_brentq`` is the closed-form radial spectrum with the
Bessel zeros found in double precision: a McMahon guess, a bracket widened
until ``scipy.special.jv`` changes sign, then ``scipy.optimize.brentq``.
Production ``bessel_oracle`` takes the zeros from ``mp.besseljzero``; the
two share no root finder and no Bessel evaluation.

``observed_l1_per_node`` is the observed-L1 quadrature of the measurable
pipeline as a node-by-node loop: one slice mask per piece and datum, one
field per node through ``field_at_per_node``, which keeps every
subnormal coefficient. Production ``_observed_l1`` builds the slice
weights once per family, evaluates a piece's nodes in one product and
zeroes sub-normal coefficients; the tests require the same bits.
``measurable_datum_per_node`` wraps it into one datum's record.

``box_union_edge_walk`` is the time structure of a ``BoxUnionSet`` as it
stood before the set computed its cells once: the sorted time edges are
walked afresh for the measure and again for the kept time cells, with
``slice_measure`` at every cell midpoint each time. The tests require the
same bits from ``measure`` and ``build_time_slices``.

``counting_measure`` and ``boundary_layer_allowance`` are the grid-count
cross-check that ``build_time_slices`` ran when it was handed a model:
the region's measure counted cell by cell on the model grid at the time
half-nodes, and the error bound of one cell layer per box face. The tests
require the count to stay within the bound.
"""

import math

import mpmath as mp
import numpy as np
from scipy.optimize import brentq
from scipy.special import jv

from degenctrl.control import _EPS_FLOOR, LRResult, _mode_block_gramian
from degenctrl.errors import ConfigError, InvariantError, NonConvergenceError
from degenctrl.evolution import (_Stepper, evolve_mode, solve_adjoint,
                                 solve_forward)
from degenctrl.measurable import SpectralPropagator, _pieces_within
from degenctrl.model import (TWO_PI, ModeCoeffs, ModeIndex, TimeGrid,
                             _frozen, mode_set, synthesize_field, zero_coeffs)
from degenctrl.observability import (_angular_gram, _coupled_form,
                                     _recentred, _restricted_overlap)
from degenctrl.spectral import bessel_order

_MAX_SWEEPS = 64
# the step budget of the coupled mp route's inverse iteration before its
# float64 shift
_INVERSE_ITERATIONS = 8


def jacobi_eigh_mp(matrix: "mp.matrix", rel_tol=None):
    """Arbitrary-precision cyclic Jacobi on an mpmath matrix.

    rel_tol defaults to a few digits above the working precision. Returns
    (values, vectors) with values as a sorted list of mpf.
    """
    n = matrix.rows
    a = matrix.copy()
    if rel_tol is None:
        rel_tol = mp.mpf(10) ** (-(mp.mp.dps - 4))
    v = mp.eye(n)
    one = mp.mpf(1)
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0:
                    continue
                gate = rel_tol * mp.sqrt(abs(a[p, p] * a[q, q]))
                if abs(apq) <= gate:
                    continue
                rotated = True
                tau = (a[q, q] - a[p, p]) / (2 * apq)
                if tau >= 0:
                    t = one / (tau + mp.sqrt(one + tau * tau))
                else:
                    t = -one / (-tau + mp.sqrt(one + tau * tau))
                c = one / mp.sqrt(one + t * t)
                s = t * c
                for k in range(n):
                    akp, akq = a[p, k], a[q, k]
                    a[p, k] = c * akp - s * akq
                    a[q, k] = s * akp + c * akq
                for k in range(n):
                    akp, akq = a[k, p], a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                a[p, q] = mp.mpf(0)
                a[q, p] = mp.mpf(0)
                for k in range(n):
                    vkp, vkq = v[k, p], v[k, q]
                    v[k, p] = c * vkp - s * vkq
                    v[k, q] = s * vkp + c * vkq
        if not rotated:
            pairs = sorted(((a[i, i], i) for i in range(n)), key=lambda x: x[0])
            vals = [pair[0] for pair in pairs]
            vecs = mp.zeros(n)
            for col, (_, i) in enumerate(pairs):
                for rr in range(n):
                    vecs[rr, col] = v[rr, i]
            return vals, vecs
    raise NonConvergenceError("Jacobi sweep budget exhausted (mp)")


def evolve_mode_every_step(op, mode, phi0, sources, tgrid):
    """``evolve_mode`` without the fixed-point exit: one step per half step."""
    phi0 = np.asarray(phi0, dtype=float)
    size = op.mass.size
    if phi0.ndim not in (1, 2) or phi0.shape[0] != size:
        raise ConfigError("initial data must be one radial vector or a block "
                          "of radial columns matching the operator")
    if sources is not None:
        sources = np.asarray(sources, dtype=float)
        if sources.shape != (tgrid.n_time,) + phi0.shape:
            raise ConfigError("source array must hold one radial row per half step")
    stepper = _Stepper(op, mode.n, tgrid.dt, block=phi0.ndim == 2)
    states = np.empty((tgrid.n_time + 1,) + phi0.shape)
    states[0] = phi0
    v = phi0
    for k in range(tgrid.n_time):
        v = stepper.step(v, None if sources is None else sources[k])
        states[k + 1] = v
    if not np.all(np.isfinite(states)):
        raise InvariantError("trajectory contains non-finite entries")
    if sources is None:
        # per column for a block: the sum runs over the radial axis only
        norms = np.sqrt(np.sum(states ** 2 * stepper.m, axis=1))
        if np.any(norms[1:] > norms[:-1] * (1.0 + 1e-12)):
            raise InvariantError("source-free step increased the discrete energy")
    return _frozen(states)


def mode_block_gramian_columns(op, n_freq, mask, tgrid):
    """Dense per-mode control Gramian over one block, column by column."""
    size = op.mass.size
    mode = ModeIndex("cos", n_freq)
    cols = np.empty((size, size))
    for j in range(size):
        unit = np.zeros(size)
        unit[j] = 1.0
        back = evolve_mode(op, mode, unit, None, tgrid)[::-1]
        src = 0.5 * (back[:-1] + back[1:]) * mask[None, :]
        cols[:, j] = evolve_mode(op, mode, np.zeros(size), src, tgrid)[-1]
    return cols


def gramian_theta_quadrature(region, y_terminal):
    """Control Gramian of a box union through angular quadrature."""
    model = y_terminal.model
    mask = region.grid_masks(model, model.tgrid.half_nodes)
    adj = solve_adjoint(y_terminal)
    mid = 0.5 * (adj[:-1] + adj[1:])
    fields = np.einsum("qm,tmr->tqr", model.basis_matrix, mid) * mask
    sources = model.theta_weight * np.einsum(
        "mq,tqr->tmr", model.basis_matrix.T, fields)
    return ModeCoeffs(model, solve_forward(zero_coeffs(model), sources)[-1])


def lr_control_per_mode(phi0, region, tol, n_blocks=3):
    """Dyadic-block control with one evolve_mode call per mode and march."""
    model = phi0.model
    op = model.op
    mask = model.grid.observed_band(region.band_a, region.band_b)
    mass = model.grid.mass
    T = model.config.T_horizon
    n_time = model.config.n_time

    state = phi0.data.copy()
    boundaries = [0.0]
    caps, costs, norms, epsilons = [], [], [], []

    def mode_norm2(vec):
        return float(np.sum(mass * vec ** 2))

    for k in range(n_blocks):
        half_len = T * 2.0 ** (-k - 2)
        sub = TimeGrid(half_len, n_time)
        cap = 2 ** k
        budget = 0.5 * tol * 2.0 ** (-k)
        controlled = [i for i, m in enumerate(model.modes) if m.n <= cap]
        grams = {}
        frees = {}
        for i in controlled:
            n = model.modes[i].n
            if n not in grams:
                grams[n] = _mode_block_gramian(op, n, mask, sub)
            frees[i] = evolve_mode(op, model.modes[i], state[i], None, sub)[-1]

        eps = 1e-4
        while True:
            low_energy = 0.0
            ys = {}
            for i in controlled:
                n = model.modes[i].n
                g = grams[n]
                y = np.linalg.solve(g + eps * np.eye(g.shape[0]), -frees[i])
                ys[i] = y
                low_energy += mode_norm2(eps * y)
            if math.sqrt(low_energy) <= budget or eps <= _EPS_FLOOR:
                break
            eps /= 10.0
        if math.sqrt(low_energy) > budget:
            raise NonConvergenceError(
                f"block {k} budget {budget:.3e} unreachable at "
                f"penalty floor {_EPS_FLOOR:.1e}")
        epsilons.append(eps)

        block_cost = 0.0
        new_state = state.copy()
        for i, mode in enumerate(model.modes):
            if i in ys:
                back = evolve_mode(op, mode, ys[i], None, sub)[::-1]
                src = 0.5 * (back[:-1] + back[1:]) * mask[None, :]
                block_cost += sub.dt * float(np.sum(src ** 2 * mass[None, :]))
                new_state[i] = evolve_mode(op, mode, state[i], src, sub)[-1]
            else:
                new_state[i] = evolve_mode(op, mode, state[i], None, sub)[-1]
        for i, mode in enumerate(model.modes):
            new_state[i] = evolve_mode(op, mode, new_state[i], None, sub)[-1]
        state = new_state
        caps.append(k)
        costs.append(block_cost)
        norms.append(math.sqrt(float(np.sum(mass[None, :] * state ** 2))))
        boundaries.append(T * (1.0 - 2.0 ** (-k - 1)))

    tail = TimeGrid(T * 2.0 ** (-n_blocks), n_time)
    for i, mode in enumerate(model.modes):
        state[i] = evolve_mode(op, mode, state[i], None, tail)[-1]
    boundaries.append(T)
    final = math.sqrt(float(np.sum(mass[None, :] * state ** 2)))
    return LRResult(
        boundaries=tuple(boundaries), caps=tuple(caps),
        block_costs=tuple(costs), block_norms=tuple(norms),
        epsilons=tuple(epsilons), final_residual=final, tol=float(tol),
        converged=final <= tol)


def _trig_product_integral(kind1, n1, kind2, n2, c, d, lib):
    """Integral over (c,d) of the product of two raw trig basis factors."""
    sin, cos = lib.sin, lib.cos

    def s_diff(k):
        return sin(k * d) - sin(k * c)

    def c_diff(k):
        return cos(k * d) - cos(k * c)

    if kind1 == "sin" and kind2 == "cos":
        kind1, n1, kind2, n2 = kind2, n2, kind1, n1

    if kind1 == "cos" and kind2 == "cos":
        if n1 == 0 and n2 == 0:
            return d - c
        if n1 == n2:
            return (d - c) / 2 + s_diff(2 * n1) / (4 * n1)
        if n1 == 0:
            return s_diff(n2) / n2
        if n2 == 0:
            return s_diff(n1) / n1
        return (s_diff(n1 - n2) / (n1 - n2) + s_diff(n1 + n2) / (n1 + n2)) / 2
    if kind1 == "sin" and kind2 == "sin":
        if n1 == n2:
            return (d - c) / 2 - s_diff(2 * n1) / (4 * n1)
        return (s_diff(n1 - n2) / (n1 - n2) - s_diff(n1 + n2) / (n1 + n2)) / 2
    # cos(n1 t) sin(n2 t), n2 >= 1
    if n1 == n2:
        return -c_diff(2 * n1) / (4 * n1)
    if n1 == 0:
        return -c_diff(n2) / n2
    return -(c_diff(n1 + n2) / (n1 + n2) + c_diff(n2 - n1) / (n2 - n1)) / 2


def angular_gram_nine_case(modes, c, d, lib):
    """Restricted angular Gram with one nine-case trig integral per entry."""
    pi = lib.pi
    dim = len(modes)
    if lib is math:
        out = np.empty((dim, dim))
    else:
        out = mp.zeros(dim)
    norms = []
    for m in modes:
        if m.parity == "cos" and m.n == 0:
            norms.append(1 / lib.sqrt(2 * pi))
        else:
            norms.append(1 / lib.sqrt(pi))
    for i, mi in enumerate(modes):
        for j in range(i, dim):
            mj = modes[j]
            raw = _trig_product_integral(mi.parity, mi.n, mj.parity, mj.n,
                                         c, d, lib)
            val = norms[i] * norms[j] * raw
            out[i, j] = val
            out[j, i] = val
    return out


def _gram_lambda_min(K, interval, blocks):
    """(lambda_min, dps_used) over the eigsy spectra of blocks(modes, c, d)."""
    c, d = float(interval[0]), float(interval[1])
    modes = mode_set(K)
    dps = max(30, 20 + int(math.ceil(4.0 * K)))
    for _ in range(6):
        with mp.workdps(dps):
            vals = [v for gm in blocks(modes, mp.mpf(c), mp.mpf(d))
                    for v in mp.eigsy(mp.matrix(gm.tolist()),
                                      eigvals_only=True)]
            lam_min, lam_max = min(vals), max(vals)
            if lam_min > mp.mpf(10) ** (12 - dps) * lam_max:
                return float(lam_min), dps
        dps *= 2
    raise NonConvergenceError("smallest Gram eigenvalue not resolved")


def gram_lambda_min_full(K, interval):
    """(lambda_min, dps_used) of the restricted Gram, full-matrix mp.eigsy."""
    return _gram_lambda_min(
        K, interval, lambda modes, c, d: [_angular_gram(modes, c, d, mp)])


def gram_lambda_min_parity_blocks(K, interval):
    """(lambda_min, dps_used) of the restricted Gram, one mp.eigsy per
    parity block on the re-centred interval (-w, w)."""
    def blocks(modes, c, d):
        w, _, parts = _recentred(modes, c, d)
        return [_angular_gram(part, -w, w, mp) for part in parts if part]

    return _gram_lambda_min(K, interval, blocks)


def _coupled_matrices_mp(modes, gram_ang, spectrum, a, b, T, k_max):
    """Assemble the coupled terminal and observation forms in mp precision.

    Basis index i = im * k_max + ik pairs angular mode im with radial
    eigenmode ik; the observation form is the Kronecker product of the
    angular Gram and the radial overlap, weighted by closed-form time
    integrals. The terminal form is diagonal and returned as its diagonal.
    """
    lam = [mp.mpf(float(v)) for v in spectrum.values[:k_max]]
    overlap = _restricted_overlap(spectrum, a, b, k_max)
    dim = len(modes) * k_max
    mu = [lam[k] + m.n * m.n for m in modes for k in range(k_max)]
    a_diag = [mp.e ** (-2 * v * T) for v in mu]
    b_mat = mp.zeros(dim)
    for i in range(dim):
        im, ik = divmod(i, k_max)
        for j in range(i, dim):
            jm, jk = divmod(j, k_max)
            g = gram_ang[im, jm]
            if g == 0:
                continue
            s = mu[i] + mu[j]
            val = g * mp.mpf(float(overlap[ik, jk])) * (1 - mp.e ** (-s * T)) / s
            b_mat[i, j] = val
            b_mat[j, i] = val
    return a_diag, b_mat


def coupled_observability_inverse_mp(model, spectrum, interval, a, b, j,
                                     k_max):
    """Coupled mp solve by explicit inverse and a full mp.eigsy.

    Returns (c_emp, extremal, residual, precision) of the largest eigenpair
    of the pencil, with the production precision ladder.
    """
    c, d = float(interval[0]), float(interval[1])
    cap = 2 ** j
    modes = mode_set(cap)
    k_max = min(k_max, spectrum.values.size)
    dim = len(modes) * k_max
    T = model.config.T_horizon
    dps = gram_lambda_min_full(cap, (c, d))[1] + 30
    for _ in range(3):
        with mp.workdps(dps):
            gm = _angular_gram(modes, mp.mpf(c), mp.mpf(d), mp)
            a_diag, b_mp = _coupled_matrices_mp(modes, gm, spectrum, a, b,
                                                mp.mpf(T), k_max)
            a_mp = mp.diag(a_diag)
            try:
                low = mp.cholesky(b_mp)
            except ValueError:
                dps = int(dps * 1.5)
                continue
            low_inv = mp.inverse(low)
            vals, vecs = mp.eigsy(low_inv * a_mp * low_inv.T)
            lam = vals[dim - 1]
            x_mp = low_inv.T * vecs[:, dim - 1]
            ax = a_mp * x_mp
            bx = b_mp * x_mp
            num = mp.sqrt(sum((ax[i, 0] - lam * bx[i, 0]) ** 2
                              for i in range(dim)))
            den = mp.sqrt(sum(bx[i, 0] ** 2 for i in range(dim)))
            nrm = mp.sqrt(sum(x_mp[i, 0] ** 2 for i in range(dim)))
            x = np.array([float(x_mp[i, 0] / nrm) for i in range(dim)])
            return float(lam), x, float(num / den), f"mp(dps={dps})"
    raise NonConvergenceError("coupled observation Gram not positive definite")


def _pencil_top_value_mp(a_diag: np.ndarray, b: np.ndarray):
    """Top eigenvalue of the pencil (diag(a_diag), b), and b as an mp.matrix.

    b = L L^T by mp.cholesky, which raises ValueError when b is not
    positive definite. L^-1 A L^-T = W W^T with W = L^-1 diag(sqrt(a)),
    built column by column by forward substitution; the eigenvalue is the
    largest of an eigenvalues-only mp.eigsy of W W^T.
    """
    dim = len(a_diag)
    b_mat = mp.matrix(b.tolist())
    rows = mp.cholesky(b_mat).tolist()
    cols = []                      # cols[k] holds W[k:, k]
    for k in range(dim):
        col = [mp.sqrt(a_diag[k]) / rows[k][k]]
        for i in range(k + 1, dim):
            col.append(-mp.fdot(rows[i][k:i], col) / rows[i][i])
        cols.append(col)
    w_rows = [[cols[k][i - k] for k in range(i + 1)] for i in range(dim)]
    wwt = mp.matrix(dim)
    for i in range(dim):
        for j in range(i + 1):
            val = mp.fdot(w_rows[i][:j + 1], w_rows[j])
            wwt[i, j] = val
            wwt[j, i] = val
    return max(mp.eigsy(wwt, eigvals_only=True)), b_mat


def _pencil_vector_mp(a_diag: np.ndarray, b_mat, lam):
    """Unit eigenvector at the top eigenvalue lam and its relative residual,
    by inverse iteration (A - sigma B) x' = B x with sigma just above lam
    on one LU factorization, in the working precision."""
    dim = len(a_diag)
    sigma = lam * (1 + mp.mpf(10) ** (-(mp.mp.dps // 2)))
    shifted = mp.diag(a_diag) - sigma * b_mat
    lu, perm = mp.mp.LU_decomp(shifted)
    x = mp.ones(dim, 1) / mp.sqrt(dim)
    for _ in range(_INVERSE_ITERATIONS):
        y = mp.mp.U_solve(lu, mp.mp.L_solve(lu, b_mat * x, perm))
        y /= mp.norm(y) if mp.fdot(y, x) > 0 else -mp.norm(y)
        step = mp.norm(y - x)
        x = y
        if step <= mp.mpf(10) ** (3 - mp.mp.dps):
            break
    bx = b_mat * x
    num = mp.norm(mp.matrix([a_diag[i] * x[i] - lam * bx[i]
                             for i in range(dim)]))
    return x, float(num / mp.norm(bx))


def _pencil_top_mp(a_diag, b):
    """Top eigenvalue, unit eigenvector and relative residual of the pencil
    (diag(a_diag), b), in the working precision."""
    lam, b_mat = _pencil_top_value_mp(a_diag, b)
    return (lam, *_pencil_vector_mp(a_diag, b_mat, lam))


def coupled_observability_unsplit_mp(spectrum, interval, a, b, j, k_max, T):
    """(c_emp, extremal, residual, precision) of the whole coupled mp pencil.

    The pencil of mode_set(2^j) on (c, d) is assembled and solved in one
    piece, starting 30 digits above the angular Gram's precision and
    growing by 1.5x while mp.cholesky fails.
    """
    c, d = float(interval[0]), float(interval[1])
    cap = 2 ** j
    modes = mode_set(cap)
    lam = spectrum.values[:k_max]
    overlap = _restricted_overlap(spectrum, a, b, k_max)
    dps = gram_lambda_min_full(cap, (c, d))[1] + 30
    to_mp = np.frompyfunc(mp.mpf, 1, 1)
    for _ in range(3):
        with mp.workdps(dps):
            pencil = _coupled_form(modes, to_mp(lam), to_mp(overlap),
                                   mp.mpf(c), mp.mpf(d), mp.mpf(T), mp)
            try:
                c_emp, x, res = _pencil_top_mp(*pencil)
            except ValueError:
                dps = int(dps * 1.5)
                continue
        return (float(c_emp), np.array([float(v) for v in x]), res,
                f"mp(dps={dps})")
    raise NonConvergenceError("coupled observation Gram not positive definite")


def bessel_oracle_brentq(alpha, k):
    """First k eigenvalues ((2-alpha)/2)^2 j_{nu,k}^2, zeros by brentq."""
    nu = bessel_order(alpha)
    kappa = (2.0 - alpha) / 2.0
    zeros = []
    for idx in range(1, k + 1):
        guess = (idx + nu / 2.0 - 0.25) * np.pi
        lo, hi = guess - 1.2, guess + 1.2
        while jv(nu, lo) * jv(nu, hi) > 0.0:
            lo -= 0.1
            hi += 0.1
            if hi - lo > 20.0:  # pragma: no cover - guard against bracket runaway
                raise NonConvergenceError(f"cannot bracket Bessel zero {idx}")
        zeros.append(brentq(lambda x: jv(nu, x), lo, hi, xtol=1e-14))
    return (kappa * np.asarray(zeros)) ** 2


def field_at_per_node(prop, t):
    """Field of a SpectralPropagator at one time, subnormals kept."""
    coeffs = prop.coeffs * np.exp(-prop.model.mu * t)
    data = coeffs @ prop.model.spectrum.vectors.T
    return synthesize_field(ModeCoeffs(prop.model, data)).values


def observed_l1_per_node(model, prop, region, pieces, n_quad):
    """Integral over time pieces of the L1 norm of the field on D_t."""
    cell = model.theta_weight * model.grid.mass[None, :]
    total = 0.0
    for lo, hi in pieces:
        mask = region.slice_mask(model, 0.5 * (lo + hi))
        if not mask.any():
            continue
        width = (hi - lo) / n_quad
        for i in range(n_quad):
            tm = lo + (i + 0.5) * width
            field = field_at_per_node(prop, tm)
            total += width * float(np.sum(np.abs(field) * mask * cell))
    return total


def measurable_datum_per_node(phi0, region, n_quad):
    """(rho, terminal_norm, observed_l1) of one datum over the horizon."""
    prop = SpectralPropagator(phi0)
    horizon = region.horizon
    terminal = float(np.sqrt(np.sum(
        (prop.coeffs * np.exp(-prop.model.mu * horizon)) ** 2)))
    observed = observed_l1_per_node(
        prop.model, prop, region, _pieces_within(region, [(0.0, horizon)]),
        n_quad)
    return terminal / observed, terminal, observed


def box_union_edge_walk(region):
    """(measure, threshold, kept time cells) of a BoxUnionSet by edge walks."""
    edges = {0.0, region.horizon}
    for _, _, (t0, t1) in region.boxes:
        edges.update((t0, t1))
    edges = tuple(sorted(edges))
    measure = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        measure += region.slice_measure(0.5 * (lo + hi)) * (hi - lo)
    threshold = measure / (2.0 * region.horizon)
    kept = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if region.slice_measure(0.5 * (lo + hi)) >= threshold - 1e-15:
            kept.append((lo, hi))
    return measure, threshold, kept


def counting_measure(region, model):
    """Cell-counting measure of a BoxUnionSet on the model grid."""
    cell = model.theta_weight * model.grid.mass[None, :] * model.tgrid.dt
    total = 0.0
    for mask in region.grid_masks(model, model.tgrid.half_nodes):
        total += float(np.sum(mask * cell))
    return total


def boundary_layer_allowance(region, model):
    """Counting error bound: one cell layer per box face on the model grid."""
    d_th = TWO_PI / model.config.theta_quad_points
    d_r = float(np.max(np.diff(np.concatenate(
        ([0.0], model.grid.half_nodes, [1.0])))))
    d_t = model.tgrid.dt
    allow = 0.0
    for (h0, h1), (r0, r1), (t0, t1) in region.boxes:
        vol = (h1 - h0) * (r1 - r0) * (t1 - t0)
        allow += 2.0 * vol * (d_th / (h1 - h0) + d_r / (r1 - r0)
                              + d_t / (t1 - t0))
    return allow
