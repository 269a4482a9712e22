"""Spectra of the model's radial operator, 2D eigenvalues, oracle, Hardy.

An independent eigenvalue oracle comes from the closed-form solution of
the continuous problem in terms of Bessel functions of fractional order,
with the zeros taken from mpmath's besseljzero; the two routes share no
discretization and cross-validate each other.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, InvariantError, NonConvergenceError
from .model import Model, RadialGrid, RadialOperator, _frozen


@dataclass(frozen=True)
class RadialSpectrum:
    """First eigenpairs of the generalized problem (stiffness, mass).

    Eigenvectors are columns of `vectors`, normalized to unit discrete
    L2 norm, with a deterministic sign convention.
    """

    alpha: float
    grid: RadialGrid
    values: np.ndarray     # ascending, all positive
    vectors: np.ndarray    # shape (n_r - 1, k)


def _symmetrized(op: RadialOperator):
    """Diagonals of M^-1/2 K M^-1/2: the pencil as an ordinary matrix."""
    m = op.mass
    return op.diag / m, op.off / np.sqrt(m[:-1] * m[1:])


def radial_spectrum(op: RadialOperator, k: int) -> RadialSpectrum:
    """Generalized symmetric tridiagonal eigensolve by bisection.

    A diagonal similarity with the square root of the mass reduces the
    pencil to an ordinary symmetric tridiagonal matrix, solved by Sturm
    sequence bisection with inverse iteration for the vectors. Both are
    deterministic, so repeated runs agree bit for bit.
    """
    m = op.mass
    size = m.size
    if not 1 <= k <= size:
        raise ConfigError(f"requested {k} eigenpairs from a size-{size} operator")
    d, e = _symmetrized(op)
    try:
        vals, vecs = eigh_tridiagonal(
            d, e, select="i", select_range=(0, k - 1), lapack_driver="stebz")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NonConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc

    phi = vecs / np.sqrt(m)[:, None]
    for j in range(k):
        nrm = np.sqrt(np.sum(m * phi[:, j] ** 2))
        phi[:, j] /= nrm
        pivot = int(np.argmax(np.abs(phi[:, j])))
        if phi[pivot, j] < 0.0:
            phi[:, j] = -phi[:, j]

    if not np.all(np.diff(vals) >= 0.0):
        raise InvariantError("eigenvalues not sorted ascending")
    gap_floor = (1.0 - op.alpha) ** 2 / 4.0
    if vals[0] <= gap_floor:
        raise InvariantError(
            f"smallest eigenvalue {vals[0]} at or below the gap floor {gap_floor}")
    # orthogonality and residual checks on the returned block
    gram = (phi * m[:, None]).T @ phi
    ortho = np.max(np.abs(gram - np.eye(k)))
    if ortho > 1e-8:
        raise InvariantError(f"mass orthogonality violated: {ortho:.3e}")
    # attainable accuracy scales with the transformed matrix norm, not the
    # eigenvalue itself; on fine graded meshes the former is vastly larger
    pad = np.abs(np.concatenate([[0.0], e]))
    bnorm = float(np.max(np.abs(d) + pad + np.abs(np.concatenate([e, [0.0]]))))
    for j in range(k):
        res = op.apply(phi[:, j]) - vals[j] * m * phi[:, j]
        rnorm = np.sqrt(np.sum(res ** 2 / m))
        if rnorm > max(1e-12 * bnorm, 1e-8 * vals[j]):
            raise InvariantError(f"eigen residual {rnorm:.3e} too large at index {j}")

    return RadialSpectrum(
        alpha=op.alpha, grid=op.grid, values=_frozen(vals), vectors=_frozen(phi))


def full_spectrum(model: Model, bound: float) -> list:
    """All 2D eigenvalues lam_k + n^2 up to bound, ascending.

    Returns tuples (parity, n, k, value) with 1-based radial index k.
    Ties are ordered by (n, k) and then parity, cosine first. Radial
    eigenvalues are found by a value-range Sturm bisection, so no
    truncation guesswork is involved.
    """
    if bound <= 0.0:
        raise ConfigError("bound must be positive")
    d, e = _symmetrized(model.op)
    lam = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                           select_range=(0.0, bound), lapack_driver="stebz")
    out = []
    for mode in model.modes:
        base = float(mode.n * mode.n)
        for j, lv in enumerate(lam):
            val = float(lv) + base
            if val > bound:
                break
            out.append((mode.parity, mode.n, j + 1, val))
    out.sort(key=lambda rec: (rec[3], rec[1], rec[2], 0 if rec[0] == "cos" else 1))
    return out


def bessel_order(alpha: float) -> float:
    return (1.0 - alpha) / (2.0 - alpha)


def bessel_oracle(alpha: float, k: int) -> np.ndarray:
    """First k eigenvalues from the continuous closed form.

    Separating the degenerate equation gives eigenfunctions
    r^((1-alpha)/2) J_nu(2 sqrt(lam) r^((2-alpha)/2) / (2-alpha)) with
    nu = (1-alpha)/(2-alpha); the Dirichlet end at r = 1 places sqrt(lam)
    at scaled zeros of J_nu, so lam_k = ((2-alpha)/2)^2 j_{nu,k}^2. The
    zeros j_{nu,k} are mpmath's besseljzero at the working precision.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha out of range (0,1): {alpha!r}")
    if k < 1:
        raise ConfigError("need at least one eigenvalue")
    nu = bessel_order(alpha)
    kappa = (2.0 - alpha) / 2.0
    zeros = np.array([float(mp.besseljzero(nu, idx))
                      for idx in range(1, k + 1)])
    if not np.all(np.diff(zeros) > 0.0):
        raise InvariantError("Bessel zeros not strictly increasing")
    return _frozen((kappa * zeros) ** 2)


@dataclass(frozen=True)
class HardyReport:
    """Both sides of the weighted Hardy inequality for one sample function."""

    alpha: float
    numerator: float        # integral of r^(alpha-2) u^2
    denominator: float      # integral of r^alpha (u')^2
    ratio: float
    bound: float            # 4 / (1-alpha)^2
    exceeds_bound: bool


def hardy_ratio(u: np.ndarray, alpha: float, grid: RadialGrid) -> HardyReport:
    """Midpoint-quadrature Hardy quotient for interior samples of u.

    u holds values at the interior nodes; the Dirichlet zeros at both ends
    are implicit, which is exactly the class the inequality covers.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.nodes.shape:
        raise ConfigError("sample length does not match the interior grid")
    if not np.any(u != 0.0):
        raise ConfigError("u is identically zero, the quotient is undefined")
    numer = float(np.sum(grid.mass * grid.nodes ** (alpha - 2.0) * u ** 2))
    padded = np.concatenate(([0.0], u, [0.0]))
    slopes = np.diff(padded) / grid.cell_widths
    denom = float(np.sum(grid.half_weights * slopes ** 2 * grid.cell_widths))
    if denom == 0.0:
        raise ConfigError("zero Hardy denominator")
    bound = 4.0 / (1.0 - alpha) ** 2
    ratio = numer / denom
    return HardyReport(
        alpha=alpha,
        numerator=numer,
        denominator=denom,
        ratio=ratio,
        bound=bound,
        exceeds_bound=bool(ratio > bound),
    )
