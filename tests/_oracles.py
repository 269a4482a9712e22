"""Independent reference routines for cross-checking production solvers.

``jacobi_eigh_mp`` is an arbitrary-precision cyclic Jacobi eigensolver.
Production code diagonalizes with mpmath's Householder tridiagonalization
and QL iteration (``mp.eigsy``); the tests compare against this rotation
method, a different algorithm, as a brute-force oracle. Rotations sweep
the strict upper triangle in row-major order, so runs are deterministic,
and a sweep that performs no rotation ends the iteration.

``mode_block_gramian_columns`` is the dyadic-block control Gramian built
one unit column at a time, two single-vector marches per column. The
production ``_mode_block_gramian`` marches all columns as one block; the
tests require the two to agree bit for bit.
"""

import mpmath as mp
import numpy as np

from degenctrl.errors import NonConvergenceError
from degenctrl.evolution import evolve_mode
from degenctrl.model import ModeIndex

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


def mode_block_gramian_columns(op, n_freq, mask, tgrid):
    """Dense per-mode control Gramian over one block, column by column."""
    size = op.mass.size
    mode = ModeIndex("cos", n_freq)
    cols = np.empty((size, size))
    for j in range(size):
        unit = np.zeros(size)
        unit[j] = 1.0
        back = evolve_mode(op, mode, unit, None, tgrid).states[::-1]
        src = 0.5 * (back[:-1] + back[1:]) * mask[None, :]
        cols[:, j] = evolve_mode(op, mode, np.zeros(size), src, tgrid).states[-1]
    return cols
