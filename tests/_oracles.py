"""Independent reference routines for cross-checking production solvers.

``jacobi_eigh_mp`` is an arbitrary-precision cyclic Jacobi eigensolver.
Production code diagonalizes with mpmath's Householder tridiagonalization
and QL iteration (``mp.eigsy``); the tests compare against this rotation
method, a different algorithm, as a brute-force oracle. Rotations sweep
the strict upper triangle in row-major order, so runs are deterministic,
and a sweep that performs no rotation ends the iteration.

``evolve_mode_every_step`` is the Crank-Nicolson march that computes all
``n_time`` steps. Production ``evolve_mode`` stops stepping at a bitwise
fixed point after the first step; the tests require the same bits.

``mode_block_gramian_columns`` is the dyadic-block control Gramian built
one unit column at a time, two single-vector marches per column. The
production ``_mode_block_gramian`` marches all columns as one block; the
tests require the two to agree bit for bit.

``gram_lambda_min_full`` and ``coupled_observability_inverse_mp`` are the
arbitrary-precision routes as they stood before the production code was
cut down: one ``mp.eigsy`` on the full restricted Gram (no parity split),
and the coupled pencil solved through ``mp.inverse`` of the Cholesky
factor and a full ``mp.eigsy`` with eigenvectors (no inverse iteration).
Both keep the production precision ladders, so the tests can require the
same working precision as well as the same numbers.

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
"""

import math

import mpmath as mp
import numpy as np
from scipy.optimize import brentq
from scipy.special import jv

from degenctrl.errors import ConfigError, InvariantError, NonConvergenceError
from degenctrl.evolution import _Stepper, evolve_mode
from degenctrl.measurable import SpectralPropagator, _pieces_within
from degenctrl.model import (ModeCoeffs, ModeIndex, _frozen, mode_set,
                             synthesize_field)
from degenctrl.observability import (_angular_gram, _coupled_matrices_mp,
                                     torus_smallest_gram_eigenvalue)
from degenctrl.spectral import bessel_order

_MAX_SWEEPS = 64


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


def gram_lambda_min_full(K, interval):
    """(lambda_min, dps_used) of the restricted Gram, full-matrix mp.eigsy."""
    c, d = float(interval[0]), float(interval[1])
    modes = mode_set(K)
    dps = max(30, 20 + int(math.ceil(4.0 * K)))
    for _ in range(6):
        with mp.workdps(dps):
            gm = _angular_gram(modes, mp.mpf(c), mp.mpf(d), mp)
            vals = mp.eigsy(gm, eigvals_only=True)
            lam_min, lam_max = vals[0], vals[len(modes) - 1]
            if lam_min > mp.mpf(10) ** (12 - dps) * lam_max:
                return float(lam_min), dps
        dps *= 2
    raise NonConvergenceError("smallest Gram eigenvalue not resolved")


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
    dps = torus_smallest_gram_eigenvalue(cap, (c, d)).dps_used + 30
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
    coeffs = prop.coeffs * np.exp(-prop.mu * t)
    data = coeffs @ prop.spectrum.vectors.T
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


def measurable_datum_per_node(model, spectrum, phi0, region, n_quad):
    """(rho, terminal_norm, observed_l1) of one datum over the horizon."""
    prop = SpectralPropagator(spectrum, phi0)
    horizon = region.horizon
    terminal = float(np.sqrt(np.sum(
        (prop.coeffs * np.exp(-prop.mu * horizon)) ** 2)))
    observed = observed_l1_per_node(
        model, prop, region, _pieces_within(region, [(0.0, horizon)]), n_quad)
    return terminal / observed, terminal, observed
