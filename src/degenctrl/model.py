"""Discrete model of the periodic strip T x (0,1) with a degenerate radial weight.

The continuous state lives on the cylinder surface: an angle theta on the
torus and a radius r in (0,1), with diffusion coefficient w(r) = r^alpha
vanishing at r = 0. Fields are represented two ways and the maps between
them are exact at the discrete level:

* a tensor grid of values, uniform in theta and graded in r, and
* one radial coefficient vector per Fourier mode in theta.

The angular basis is orthonormal on the torus: the constant mode is
1/sqrt(2*pi) and each oscillating mode cos(n theta)/sqrt(pi) or
sin(n theta)/sqrt(pi). With a uniform angular quadrature of at least
2*n_theta_max + 2 points, analysis and synthesis are exact on the span of
the retained modes, so the round trip is the identity and the discrete
Parseval identity holds to rounding.

The radial grid is graded toward r = 0 as r_i = (i/n_r)^g because the
natural eigenfunctions of the degenerate operator behave like a fractional
power of r there. Half nodes follow the same map at half-integer indices;
interior cell measures m_i = r_{i+1/2} - r_{i-1/2} define the radial inner
product used by every module.

The model owns its time grid, its radial operator A u = -(r^alpha u')',
vanishing at both ends, assembled once by build_model, and its complete
eigenbasis with the 2D eigenvalues mu = lam_k + n^2 and their ascending
order, solved on first use. The operator's discretization is a flux-form
finite volume scheme on the graded mesh. Each face between neighbouring
nodes carries a conductance equal to the reciprocal of the resistivity
integral of the cell,

    c = (1 - alpha) / (r_right^(1-alpha) - r_left^(1-alpha)),

which is the unique three-point coefficient that makes the scheme exact on
every function whose flux r^alpha u' is constant across the face. Those
flux-linear functions A + B r^(1-alpha) are precisely the local behaviour
of the eigenfunctions at the degenerate end, so the choice restores clean
second-order eigenvalue convergence even for alpha close to 1, where any
pointwise sampling of the vanishing coefficient stalls near first order.
"""

from dataclasses import dataclass, fields
from functools import cached_property
import math

import numpy as np

from .errors import ConfigError, InvariantError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelConfig:
    """Scenario parameters. Validated on construction, immutable after."""

    alpha: float
    T_horizon: float
    n_theta_max: int
    n_r: int
    grid_power: float = 0.0   # 0 means: use the resolving default 2/(2-alpha)
    n_time: int = 64
    theta_quad_points: int = 0  # 0 means: default 4*n_theta_max + 8

    def __post_init__(self):
        for f in fields(self):
            coerce = integer if f.type is int else real_number
            object.__setattr__(self, f.name, coerce(f.name, getattr(self, f.name)))

        check_alpha(self.alpha)
        if self.T_horizon <= 0.0:
            raise ConfigError(f"T_horizon must be positive: {self.T_horizon!r}")
        if self.n_theta_max < 0:
            raise ConfigError(f"n_theta_max must be >= 0: {self.n_theta_max!r}")
        if self.n_r < 8:
            raise ConfigError(f"n_r must be >= 8: {self.n_r!r}")
        if self.grid_power == 0.0:
            object.__setattr__(self, "grid_power", 2.0 / (2.0 - self.alpha))
        if self.grid_power < 1.0:
            raise ConfigError(f"grid_power must be >= 1: {self.grid_power!r}")
        if self.n_time < 2:
            raise ConfigError(f"n_time must be >= 2: {self.n_time!r}")
        if self.theta_quad_points == 0:
            object.__setattr__(self, "theta_quad_points", 4 * self.n_theta_max + 8)
        q_min = 2 * self.n_theta_max + 2
        if self.theta_quad_points < q_min:
            raise ConfigError(
                f"theta_quad_points must be >= {q_min}: {self.theta_quad_points!r}")
        n_modes = 2 * self.n_theta_max + 1
        check_index_range("n_r", (self.n_r + 1,))
        check_index_range("n_theta_max and theta_quad_points",
                          (self.theta_quad_points, n_modes))
        check_index_range("n_time", (self.n_time + 1, n_modes, self.n_r - 1))


def real_number(key: str, value) -> float:
    """A real config value: a finite int or float, not a bool; an int past
    float range counts as not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def integer(key: str, value) -> int:
    """An integer config value: an int, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def check_alpha(alpha: float):
    """Refuse a weight exponent outside the model's range (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha out of range (0,1): {alpha!r}")


def check_index_range(keys: str, shape: tuple):
    """Refuse a float64 array past numpy's index range, allocating nothing."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise ConfigError(f"{keys} too large: an array of shape "
                          f"{shape} exceeds numpy's index range")


def _frozen(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RadialGrid:
    """Graded radial mesh with half nodes and cell measures.

    The grid is geometry only: the weight exponent alpha belongs to the
    operator assembled on it. nodes holds the interior points r_1 < ... <
    r_{n_r-1}; the Dirichlet endpoints r_0 = 0 and r_{n_r} = 1 are
    implicit. half_nodes holds r_{i+1/2} = ((i+1/2)/n_r)^g for i =
    0..n_r-1, so half_nodes[i] sits between nodes i and i+1 of the full
    mesh. mass[i-1] is the measure of the cell around interior node i.
    """

    n_r: int
    grid_power: float
    nodes: np.ndarray
    cell_widths: np.ndarray    # h_{i+1/2} = r_{i+1} - r_i, length n_r
    half_nodes: np.ndarray     # length n_r
    mass: np.ndarray           # length n_r - 1

    def band(self, a: float, b: float) -> np.ndarray:
        """Boolean mask of the interior nodes strictly inside (a, b)."""
        return (self.nodes > a) & (self.nodes < b)

    def observed_band(self, a: float, b: float) -> np.ndarray:
        """band(a, b) of an observation or control band, which needs a node."""
        mask = self.band(a, b)
        if not mask.any():
            raise ConfigError(f"no radial nodes inside ({a}, {b})")
        return mask


def build_radial_grid(n_r: int, grid_power: float) -> RadialGrid:
    idx = np.arange(0, n_r + 1, dtype=float)
    full = (idx / n_r) ** grid_power
    half = ((idx[:-1] + 0.5) / n_r) ** grid_power
    grid = RadialGrid(
        n_r=n_r,
        grid_power=grid_power,
        nodes=_frozen(full[1:-1]),
        cell_widths=_frozen(np.diff(full)),
        half_nodes=_frozen(half),
        mass=_frozen(half[1:] - half[:-1]),
    )
    if not np.all(np.diff(grid.nodes) > 0.0):
        raise ConfigError("radial nodes are not strictly increasing")
    if not (np.all(grid.mass > 0.0) and np.all(grid.half_nodes > 0.0)):
        raise ConfigError("degenerate radial cells")
    return grid


@dataclass(frozen=True)
class RadialOperator:
    """Symmetric tridiagonal stiffness plus diagonal mass, both positive.

    diag/off are the stiffness entries over interior nodes; the mass
    vector defines the inner product in which the operator is symmetric
    positive definite.
    """

    alpha: float
    grid: RadialGrid
    diag: np.ndarray          # length n_r - 1
    off: np.ndarray           # length n_r - 2, strictly negative
    conductance: np.ndarray   # per-face coefficients, length n_r

    @property
    def mass(self) -> np.ndarray:
        return self.grid.mass

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Stiffness matrix times a vector of interior samples."""
        out = self.diag * u
        out[:-1] += self.off * u[1:]
        out[1:] += self.off * u[:-1]
        return out

    def energy(self, u: np.ndarray) -> float:
        """Quadratic form u^T S u = sum of c * (jump of u)^2 over faces."""
        jumps = np.empty(self.grid.n_r)
        jumps[0] = u[0]
        jumps[1:-1] = np.diff(u)
        jumps[-1] = -u[-1]
        return float(np.sum(self.conductance * jumps ** 2))


def assemble_radial_operator(alpha: float, grid: RadialGrid) -> RadialOperator:
    check_alpha(alpha)
    full = np.concatenate(([0.0], grid.nodes, [1.0]))
    pw = full ** (1.0 - alpha)
    cond = (1.0 - alpha) / np.diff(pw)
    if not np.all(np.isfinite(cond)) or not np.all(cond > 0.0):
        raise InvariantError("non-positive face conductance")
    diag = cond[:-1] + cond[1:]
    off = -cond[1:-1]
    return RadialOperator(
        alpha=alpha,
        grid=grid,
        diag=_frozen(diag),
        off=_frozen(off),
        conductance=_frozen(cond),
    )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of (0, T) into n_time steps."""

    T: float
    n_time: int

    def __post_init__(self):
        if self.T <= 0.0 or self.n_time < 2:
            raise ConfigError("time grid needs T > 0 and at least 2 steps")

    @property
    def dt(self) -> float:
        return self.T / self.n_time

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_time + 1) * self.dt

    @property
    def half_nodes(self) -> np.ndarray:
        return (np.arange(self.n_time) + 0.5) * self.dt


@dataclass(frozen=True, order=True)
class ModeIndex:
    """One angular Fourier mode: parity 'cos' or 'sin' and frequency n.

    Ordering is (parity, n) with 'cos' before 'sin', the canonical
    reduction order for anything aggregated over modes.
    """

    parity: str
    n: int

    def __post_init__(self):
        if self.parity not in ("cos", "sin"):
            raise ConfigError(f"parity must be 'cos' or 'sin': {self.parity!r}")
        if self.n < 0 or (self.parity == "sin" and self.n == 0):
            raise ConfigError(f"invalid mode ({self.parity}, {self.n})")


def mode_set(n_theta_max: int) -> tuple:
    cos_part = [ModeIndex("cos", n) for n in range(0, n_theta_max + 1)]
    sin_part = [ModeIndex("sin", n) for n in range(1, n_theta_max + 1)]
    return tuple(cos_part + sin_part)


def angular_basis_value(mode: ModeIndex, theta):
    """Evaluate the orthonormal torus basis function of one mode."""
    theta = np.asarray(theta, dtype=float)
    if mode.parity == "cos":
        if mode.n == 0:
            return np.full_like(theta, 1.0 / math.sqrt(TWO_PI))
        return np.cos(mode.n * theta) / math.sqrt(math.pi)
    return np.sin(mode.n * theta) / math.sqrt(math.pi)


@dataclass(frozen=True)
class Model:
    """Everything a ModelConfig fixes: grids, operator, quadrature, modes."""

    config: ModelConfig
    grid: RadialGrid
    op: RadialOperator
    theta_nodes: np.ndarray
    theta_weight: float            # uniform quadrature weight 2*pi/Q
    modes: tuple                   # ordered ModeIndex tuple
    basis_matrix: np.ndarray       # shape (Q, n_modes), column per mode

    @property
    def n_radial(self) -> int:
        return self.grid.n_r - 1

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @cached_property
    def tgrid(self) -> TimeGrid:
        """The uniform time grid of (0, T_horizon) in n_time steps."""
        return TimeGrid(self.config.T_horizon, self.config.n_time)

    @cached_property
    def spectrum(self):
        """All n_r - 1 radial eigenpairs of op, solved once on first use."""
        # imported here: spectral imports this module
        from .spectral import radial_spectrum
        return radial_spectrum(self.op, self.n_radial)

    @cached_property
    def mu(self) -> np.ndarray:
        """2D eigenvalues lam_k + n^2, shape (n_modes, n_r - 1), read-only.

        Row i belongs to modes[i] and column k to the k-th column of
        spectrum.vectors.
        """
        freqs = np.array([m.n for m in self.modes], dtype=float)
        return _frozen(self.spectrum.values[None, :] + freqs[:, None] ** 2)

    @cached_property
    def mu_order(self) -> np.ndarray:
        """Flat indices of mu in ascending order, ties by flat index."""
        order = np.lexsort((np.arange(self.mu.size), self.mu.ravel()))
        order.flags.writeable = False
        return order

    def mode_position(self, mode: ModeIndex) -> int:
        try:
            return self._mode_lookup[mode]
        except KeyError:
            raise ConfigError(
                f"mode ({mode.parity}, {mode.n}) is not in the model: "
                f"n_theta_max is {self.config.n_theta_max}") from None

    def __post_init__(self):
        lookup = {m: i for i, m in enumerate(self.modes)}
        object.__setattr__(self, "_mode_lookup", lookup)


def build_model(config: ModelConfig) -> Model:
    grid = build_radial_grid(config.n_r, config.grid_power)
    q = config.theta_quad_points
    theta = np.arange(q, dtype=float) * (TWO_PI / q)
    modes = mode_set(config.n_theta_max)
    basis = np.column_stack([angular_basis_value(m, theta) for m in modes])
    return Model(
        config=config,
        grid=grid,
        op=assemble_radial_operator(config.alpha, grid),
        theta_nodes=_frozen(theta),
        theta_weight=TWO_PI / q,
        modes=modes,
        basis_matrix=_frozen(basis),
    )


@dataclass(frozen=True)
class Field2D:
    """Grid values of a scalar field, shape (theta_quad_points, n_r - 1)."""

    model: Model
    values: np.ndarray

    def __post_init__(self):
        expected = (self.model.config.theta_quad_points, self.model.n_radial)
        if self.values.shape != expected:
            raise ConfigError(
                f"field shape {self.values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("field contains non-finite entries")


@dataclass(frozen=True)
class ModeCoeffs:
    """Radial coefficient vectors for the complete mode set, one row per mode."""

    model: Model
    data: np.ndarray    # shape (n_modes, n_r - 1)

    def __post_init__(self):
        expected = (self.model.n_modes, self.model.n_radial)
        if self.data.shape != expected:
            raise ConfigError(
                f"coefficient shape {self.data.shape} does not match {expected}")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("coefficients contain non-finite entries")


def zero_coeffs(model: Model) -> ModeCoeffs:
    return ModeCoeffs(model, np.zeros((model.n_modes, model.n_radial)))


def project_modes(fld: Field2D) -> ModeCoeffs:
    """Angular analysis: quadrature of the field against each basis function.

    The rectangle rule on the uniform periodic grid integrates products of
    retained modes exactly, so on their span this is the true L2(T) pairing.
    """
    model = fld.model
    coeffs = model.theta_weight * (model.basis_matrix.T @ fld.values)
    return ModeCoeffs(model, coeffs)


def synthesize_field(coeffs: ModeCoeffs) -> Field2D:
    """Angular synthesis: pointwise mode sum on the tensor grid."""
    model = coeffs.model
    return Field2D(model, model.basis_matrix @ coeffs.data)


def coeffs_inner(a: ModeCoeffs, b: ModeCoeffs) -> float:
    """Discrete L2 inner product over the strip, mass weighted in r."""
    mass = a.model.grid.mass
    return float(np.sum(a.data * b.data * mass[None, :]))


def field_norm2(fld: Field2D) -> float:
    """Quadrature of the squared field over the strip."""
    mass = fld.model.grid.mass
    sq = fld.values ** 2
    return float(fld.model.theta_weight * np.sum(sq * mass[None, :]))
