"""Shared fixtures. Everything heavy is session scoped and deterministic."""

import numpy as np
import pytest

from degenctrl import (BoxUnionSet, ModeCoeffs, ModeIndex,
                       ModelConfig, apply_control_gramian, build_model,
                       datum_family,
                       hum_control, measurable_observability_ratio,
                       radial_spectrum, solve_forward,
                       torus_smallest_gram_eigenvalue)

TWO_BOXES = (((0.5, 2.0), (0.32, 0.45), (0.05, 0.45)),
             ((3.0, 5.5), (0.45, 0.58), (0.5, 0.95)))


@pytest.fixture(scope="session")
def desk_model():
    return build_model(ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=4,
                                   n_r=60, n_time=48))


@pytest.fixture(scope="session")
def desk_spec(desk_model):
    return radial_spectrum(desk_model.op, 6)


@pytest.fixture(scope="session")
def desk_phi0(desk_model, desk_spec):
    data = np.zeros((desk_model.n_modes, desk_model.n_radial))
    data[desk_model.mode_position(ModeIndex("cos", 1))] = \
        desk_spec.vectors[:, 0]
    data[desk_model.mode_position(ModeIndex("sin", 2))] += \
        desk_spec.vectors[:, 2]
    return ModeCoeffs(desk_model, data)


@pytest.fixture(scope="session")
def desk_hum(desk_phi0):
    return hum_control(desk_phi0, BoxUnionSet.cylinder(0.3, 0.6, 1.0), 1e-6,
                       cg_tol=1e-8)


@pytest.fixture(scope="session")
def desk_dense_hum_y(desk_model, desk_phi0):
    """Direct-solve reference for the penalized system, assembled densely."""
    dim = desk_model.n_modes * desk_model.n_radial
    region = BoxUnionSet.cylinder(0.3, 0.6, 1.0)
    gram = np.empty((dim, dim))
    for j in range(dim):
        unit = np.zeros(dim)
        unit[j] = 1.0
        out = apply_control_gramian(
            region, ModeCoeffs(desk_model, unit.reshape(desk_model.n_modes, -1)))
        gram[:, j] = out.data.ravel()
    free_t = solve_forward(desk_phi0)[-1]
    w = np.sqrt(np.tile(desk_model.grid.mass, desk_model.n_modes))
    a_sym = w[:, None] * gram / w[None, :] + 1e-6 * np.eye(dim)
    rhs = -(w * free_t.ravel())
    return (np.linalg.solve(a_sym, rhs) / w).reshape(desk_model.n_modes, -1)


# smaller strip used by the measurable-set pipeline
@pytest.fixture(scope="session")
def meas_model():
    return build_model(ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=2,
                                   n_r=48, n_time=32))


@pytest.fixture(scope="session")
def meas_region():
    return BoxUnionSet(boxes=TWO_BOXES, band_a=0.3, band_b=0.6, horizon=1.0)


@pytest.fixture(scope="session")
def meas_family(meas_model):
    return datum_family(meas_model, 20, 11)


@pytest.fixture(scope="session")
def meas_report(meas_family, meas_region):
    return measurable_observability_ratio(meas_family, meas_region)


@pytest.fixture(scope="session")
def unit_gram():
    """Memoized unit-interval restricted Gram, shared across the suite."""
    cache = {}

    def get(k):
        if k not in cache:
            cache[k] = torus_smallest_gram_eigenvalue(k, (0.0, 1.0))
        return cache[k]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
