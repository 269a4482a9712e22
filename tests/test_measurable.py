"""Measurable observation sets, density sequences, analytic-growth checks."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenctrl import (BoxUnionSet, ConfigError, ModeCoeffs, ModelConfig,
                       NonConvergenceError, SpectralPropagator, TimeSliceSet,
                       build_model, build_time_slices, choose_q, datum_family,
                       density_point_of, density_sequence,
                       derivative_bound_report, extended_field, hum_control,
                       measurable_observability_ratio,
                       slab_interpolation_report, solve_forward)
from degenctrl.measurable import _FIELD_CHUNK, _pieces_within
from ._golden import check_golden
from ._oracles import (boundary_layer_allowance, box_union_edge_walk,
                       counting_measure, measurable_datum_per_node,
                       observed_l1_per_node)

TWO_BOXES = (((0.5, 2.0), (0.32, 0.45), (0.05, 0.45)),
             ((3.0, 5.5), (0.45, 0.58), (0.5, 0.95)))


def _region(boxes=TWO_BOXES, band=(0.3, 0.6), horizon=1.0):
    return BoxUnionSet(boxes=boxes, band_a=band[0], band_b=band[1],
                       horizon=horizon)


def _seeded_unions():
    """The 100 seeded unions of one to three boxes of acceptance c12."""
    rng = np.random.default_rng(2026)
    out = []
    for _ in range(100):
        boxes = []
        for _ in range(int(rng.integers(1, 4))):
            t0 = float(rng.uniform(0.0, 0.8))
            t1 = float(rng.uniform(t0 + 0.05, 1.0))
            h0 = float(rng.uniform(0.0, 5.0))
            h1 = float(rng.uniform(h0 + 0.1, 2.0 * math.pi))
            r0 = float(rng.uniform(0.3, 0.55))
            r1 = float(rng.uniform(r0 + 0.01, 0.6))
            boxes.append(((h0, h1), (r0, r1), (t0, t1)))
        out.append(_region(tuple(boxes)))
    return out


def test_exact_measure_with_overlap():
    boxes = (((0.0, 1.0), (0.32, 0.42), (0.0, 0.5)),
             ((0.5, 1.5), (0.37, 0.47), (0.25, 0.75)))
    region = _region(boxes, band=(0.3, 0.5))
    # inclusion-exclusion by hand: 0.05 + 0.05 - 0.5*0.05*0.25
    assert region.measure == pytest.approx(0.1 - 0.00625, abs=1e-15)


def test_box_union_measure_is_derived_not_given():
    with pytest.raises(TypeError):
        BoxUnionSet(boxes=TWO_BOXES, band_a=0.3, band_b=0.6, horizon=1.0,
                    measure=5.0)


def test_slice_measure_by_hand():
    boxes = (((0.0, 1.0), (0.32, 0.42), (0.0, 0.5)),
             ((0.5, 1.5), (0.37, 0.47), (0.25, 0.75)))
    region = _region(boxes, band=(0.3, 0.5))
    # at t=0.3 both boxes are active; the r-overlap strip is (0.37, 0.42)
    assert region.slice_measure(0.3) == pytest.approx(
        0.1 + 0.1 - 0.5 * 0.05, abs=1e-15)
    assert region.slice_measure(0.6) == pytest.approx(0.1, abs=1e-15)
    assert region.slice_measure(0.9) == 0.0


def test_region_validation():
    with pytest.raises(ConfigError):
        _region((((0.0, 7.0), (0.32, 0.42), (0.0, 0.5)),))
    with pytest.raises(ConfigError):
        _region((((0.0, 1.0), (0.32, 0.42), (0.0, 1.5)),))
    with pytest.raises(ConfigError):
        _region((((0.0, 1.0), (0.2, 0.42), (0.0, 0.5)),))   # r leaves the band
    with pytest.raises(ConfigError):
        _region(())


@pytest.mark.parametrize("horizon", [0.96, 2.0])
def test_horizon_must_match_the_model(meas_family, horizon):
    # a set built for another time slab must not be read on this model
    region = _region(horizon=horizon)
    with pytest.raises(ConfigError, match="horizon"):
        measurable_observability_ratio(meas_family, region)
    with pytest.raises(ConfigError, match="horizon"):
        hum_control(meas_family[0], region, 1e-4)


def test_contains_and_slice_mask_agree(meas_model):
    region = _region()
    rng = np.random.default_rng(3)
    for t in (0.1, 0.3, 0.7):
        mask = region.slice_mask(meas_model, t)
        for _ in range(20):
            qi = int(rng.integers(meas_model.config.theta_quad_points))
            ri = int(rng.integers(meas_model.n_radial))
            theta = meas_model.theta_nodes[qi]
            r = meas_model.grid.nodes[ri]
            assert bool(mask[qi, ri]) == region.contains(theta, r, t)
    # a node on a lower radial box edge lies outside the box in both
    edge = build_model(ModelConfig(alpha=0.5, T_horizon=1.0, n_theta_max=2,
                                   n_r=40, n_time=32, grid_power=1.0))
    ri = int(np.flatnonzero(edge.grid.nodes == 0.45)[0])
    qi = int(np.flatnonzero(edge.theta_nodes >= 3.0)[0])
    mask = region.slice_mask(edge, 0.7)
    assert bool(mask[qi, ri]) == region.contains(edge.theta_nodes[qi], 0.45,
                                                 0.7)


def test_cells_match_the_edge_walk(meas_region):
    for region in [meas_region] + _seeded_unions():
        measure, threshold, kept = box_union_edge_walk(region)
        assert region.measure == measure
        assert build_time_slices(region) == TimeSliceSet(
            threshold=threshold, intervals=kept, horizon=region.horizon)


def test_counted_measure_within_the_boundary_layer(meas_model, meas_region):
    # meas_region holds the default two boxes of the measurable command
    family_model = build_model(ModelConfig(alpha=0.5, T_horizon=1.0,
                                           n_theta_max=4, n_r=96, n_time=48))
    cases = ([(meas_region, meas_model), (meas_region, family_model)]
             + [(region, meas_model) for region in _seeded_unions()])
    for region, model in cases:
        counted = counting_measure(region, model)
        allow = boundary_layer_allowance(region, model)
        assert abs(counted - region.measure) <= allow + 1e-12


def test_time_slice_measure_adds_left_to_right():
    # sum() compensates float rounding from Python 3.12 on; this case
    # shows it: the left-to-right sum is 0.6000000000000001, fsum 0.6
    intervals = ((0.0, 0.1), (0.2, 0.4), (0.45, 0.75))
    total = 0.0
    for u, v in intervals:
        total += v - u
    assert total != math.fsum(v - u for u, v in intervals)
    slices = TimeSliceSet(threshold=0.0, intervals=intervals, horizon=1.0)
    assert slices.measure.hex() == total.hex()


def test_time_slices_floor_and_threshold(meas_model):
    region = _region()
    slices = build_time_slices(region)
    assert slices.threshold == pytest.approx(
        region.measure / (2.0 * region.horizon))
    # every kept instant carries at least the threshold slice measure
    for lo, hi in slices.intervals:
        mid = 0.5 * (lo + hi)
        assert region.slice_measure(mid) >= slices.threshold - 1e-12
    floor = region.measure / (2.0 * region.patch_measure())
    assert slices.measure >= floor - 1e-15
    assert slices.measure_within(0.0, region.horizon) == pytest.approx(
        slices.measure)


def test_slice_indicator_dominated_by_region(meas_model):
    # chi_E(t) chi_{D_t}(theta, r) <= chi_D(theta, r, t) on grid samples
    region = _region()
    slices = build_time_slices(region)
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = float(rng.uniform(0.0, region.horizon))
        if not slices.contains(t):
            continue
        qi = int(rng.integers(meas_model.config.theta_quad_points))
        ri = int(rng.integers(meas_model.n_radial))
        theta = meas_model.theta_nodes[qi]
        r = meas_model.grid.nodes[ri]
        in_slice = bool(region.slice_mask(meas_model, t)[qi, ri])
        assert (not in_slice) or region.contains(theta, r, t)


def test_density_sequence_full_interval():
    slices = TimeSliceSet(threshold=0.0, intervals=((0.0, 1.0),),
                          horizon=1.0)
    seq = density_sequence(slices, 0.5, 0.5, m_max=4)
    assert np.allclose(seq.values, (0.9, 0.7, 0.6, 0.55), atol=1e-12)
    assert all(f >= 1.0 - 1e-12 for f in seq.gap_fractions)
    gaps = np.diff(seq.values)
    assert gaps[1] / gaps[0] == pytest.approx(0.5, abs=1e-12)


def test_density_sequence_gap_identity_random():
    slices = TimeSliceSet(threshold=0.0, intervals=((0.0, 1.0),),
                          horizon=1.0)
    for q in (0.3, 0.6, 0.9):
        seq = density_sequence(slices, 0.4, q, m_max=6)
        gaps = -np.diff(seq.values)
        for a, b in zip(gaps, gaps[1:]):
            assert b / a == pytest.approx(q, abs=1e-12)


def test_density_sequence_dyadic_holes():
    # full interval minus small holes around dyadic points stays feasible
    holes = []
    for level in (1, 2, 3):
        for j in range(1, 2 ** level, 2):
            center = j / 2 ** level
            holes.append((center - 1e-4, center + 1e-4))
    holes.sort()
    keep, prev = [], 0.0
    for lo, hi in holes:
        if lo > prev:
            keep.append((prev, lo))
        prev = max(prev, hi)
    if prev < 1.0:
        keep.append((prev, 1.0))
    slices = TimeSliceSet(threshold=0.0, intervals=tuple(keep), horizon=1.0)
    seq = density_sequence(slices, 1.0 / 3.0, 0.5, m_max=8)
    assert all(f >= 1.0 / 3.0 - 1e-12 for f in seq.gap_fractions)


def test_density_sequence_fails_off_the_set():
    slices = TimeSliceSet(threshold=0.0, intervals=((0.4, 0.5),),
                          horizon=1.0)
    with pytest.raises(NonConvergenceError):
        density_sequence(slices, 0.6, 0.9, m_max=8)


def test_density_point_is_largest_interval_midpoint():
    slices = TimeSliceSet(threshold=0.0,
                          intervals=((0.0, 0.1), (0.3, 0.8), (0.9, 1.0)),
                          horizon=1.0)
    assert density_point_of(slices) == pytest.approx(0.55)


def test_choose_q_oracle():
    with mp.workdps(50):
        oracle = float(((mp.mpf(1) + 1 - mp.mpf("0.5")) / 2) ** (mp.mpf(1) / 8))
    assert choose_q(1.0, 0.5) == pytest.approx(oracle, abs=1e-15)
    assert choose_q(1.0, 0.5) == pytest.approx(0.9646786299603094, abs=1e-15)
    assert choose_q(1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    qs = [choose_q(1.0, h) for h in (0.2, 0.5, 0.8)]
    assert qs[0] > qs[1] > qs[2]
    with pytest.raises(ConfigError):
        choose_q(0.5, 0.5)
    with pytest.raises(ConfigError):
        choose_q(1.0, 1.0)


def test_propagator_matches_march(meas_model, rng):
    data = rng.standard_normal((meas_model.n_modes, meas_model.n_radial))
    phi0 = ModeCoeffs(meas_model, data)
    prop = SpectralPropagator(phi0)
    # exact reconstruction at t=0
    assert np.max(np.abs(prop.data_at(0.0) - data)) < 1e-9
    # time derivative against a centered difference
    h = 1e-5
    fd = (prop.data_at(0.5 + h) - prop.data_at(0.5 - h)) / (2.0 * h)
    assert np.max(np.abs(fd - prop.data_at(0.5, order=1))) <= 1e-5 \
        * max(1.0, np.max(np.abs(fd)))
    # terminal norm against the marched trajectory; the trapezoidal march
    # is not L-stable, so rough components with mu*dt >> 1 barely decay
    # under it and the comparison only makes sense on a resolved datum
    smooth_data = np.stack([meas_model.spectrum.vectors[:, :2]
                            @ rng.standard_normal(2)
                            for _ in range(meas_model.n_modes)])
    smooth = ModeCoeffs(meas_model, smooth_data)
    sprop = SpectralPropagator(smooth)
    terminal = solve_forward(smooth)[-1]
    T = meas_model.config.T_horizon
    assert sprop.norm_at(T) == pytest.approx(
        math.sqrt(np.sum(meas_model.grid.mass * terminal ** 2)), rel=5e-2)


def test_family_fixes_the_model_of_the_ratio(meas_model, meas_family,
                                             meas_region):
    # the eigenbasis comes with the data: an alpha 0.3 family is measured
    # on the alpha 0.3 operator, never on one passed beside it
    other = build_model(ModelConfig(alpha=0.3, T_horizon=1.0,
                                    n_theta_max=2, n_r=48, n_time=32))
    family = datum_family(other, 20, 11)
    rep = measurable_observability_ratio(family, meas_region)
    assert rep.rho_max == pytest.approx(0.26823, rel=1e-4)
    for rec, phi0 in zip(rep.per_datum, family):
        assert rec.rho == measurable_datum_per_node(phi0, meas_region, 16)[0]
    # one Model object per family, even for an equal config
    twin = build_model(meas_model.config)
    for mixed in (family[:2] + meas_family[:2],
                  meas_family[:2] + datum_family(twin, 1, 11)):
        with pytest.raises(ConfigError, match="different models"):
            measurable_observability_ratio(mixed, meas_region)
    with pytest.raises(ConfigError, match="at least one datum"):
        measurable_observability_ratio((), meas_region)


def test_field_at_stacks_the_scalar_calls(meas_family):
    # the late times put mu t past 708 for the high modes
    times = np.array([0.0, 0.013, 0.25, 0.5, 0.77, 1.0])
    for phi0 in meas_family[::6]:
        prop = SpectralPropagator(phi0)
        stacked = prop.field_at(times)
        assert stacked.shape == (times.size,) + prop.field_at(0.5).shape
        assert np.array_equal(stacked,
                              np.stack([prop.field_at(t) for t in times]))


def _assert_records_match_oracle(family, region, n_quad):
    rep = measurable_observability_ratio(family, region, n_quad=n_quad)
    for rec, phi0 in zip(rep.per_datum, family):
        rho, terminal, observed = measurable_datum_per_node(
            phi0, region, n_quad)
        assert not rec.excluded
        assert rec.observed_l1 == observed
        assert rec.terminal_norm == terminal
        assert rec.rho == rho


def test_records_match_the_per_node_oracle(meas_family, meas_region):
    _assert_records_match_oracle(meas_family, meas_region, 16)
    # one box whose time piece is short
    short = _region((((0.5, 2.0), (0.32, 0.45), (0.2, 0.23)),))
    _assert_records_match_oracle(meas_family, short, 16)


def test_observed_l1_past_one_chunk_matches_the_oracle(
        meas_model, meas_family, meas_region):
    n_quad = 2 * _FIELD_CHUNK + 5
    _assert_records_match_oracle(meas_family[:3], meas_region, n_quad)
    slices = build_time_slices(meas_region)
    rep = slab_interpolation_report(meas_family[0], 0.0, meas_region.horizon,
                                    slices, meas_region, n_quad=n_quad)
    prop = SpectralPropagator(meas_family[0])
    assert rep.observed == observed_l1_per_node(
        meas_model, prop, meas_region,
        _pieces_within(meas_region, slices.intervals), n_quad)


def test_coeff_at_flushes_only_subnormal_products(meas_model):
    data = np.zeros((meas_model.n_modes, meas_model.n_radial))
    data[:] = meas_model.spectrum.vectors[:, -6:].sum(axis=1)
    prop = SpectralPropagator(ModeCoeffs(meas_model, data))
    t = 720.0 / float(np.max(prop.model.mu))
    tiny = np.finfo(float).tiny
    for order in (0, 1):
        raw = prop.coeffs * np.exp(-prop.model.mu * t)
        if order:
            raw = raw * (-prop.model.mu) ** order
        normal = np.abs(raw) >= tiny
        # the test means something only if some products are subnormal
        assert np.any((raw != 0.0) & ~normal)
        got = prop.coeff_at(t, order)
        assert not np.any((got != 0.0) & (np.abs(got) < tiny))
        assert np.array_equal(got[normal], raw[normal])
        assert np.all(got[~normal] == 0.0)


def _eigen_datum(model, pos, k):
    data = np.zeros((model.n_modes, model.n_radial))
    data[pos] = model.spectrum.vectors[:, k]
    return ModeCoeffs(model, data)


def test_extended_field_invariants(meas_model):
    phi0 = _eigen_datum(meas_model, 0, 0)
    tau = np.linspace(0.0, 0.5, 6)
    ext = extended_field(phi0, 0.5, tau, cap=8)
    assert ext.snapshot_gap <= 1e-9
    assert ext.elliptic_residual <= 1e-6
    norms = [ext.norm_at_tau(j) for j in range(tau.size)]
    assert all(a < b for a, b in zip(norms, norms[1:]))
    # tau=0 column reproduces the free solution of the capped part
    prop = SpectralPropagator(phi0)
    gap = np.max(np.abs(ext.samples[0] - prop.field_at(0.5)))
    assert gap <= 1e-9


def test_extended_field_validation(meas_model):
    phi0 = _eigen_datum(meas_model, 0, 0)
    with pytest.raises(ConfigError):
        extended_field(phi0, 0.0, np.array([0.0]), cap=4)
    with pytest.raises(ConfigError):
        extended_field(phi0, 0.5, np.array([0.0]), cap=0)
    with pytest.raises(ConfigError):
        # sqrt(mu_max) tau_max beyond the overflow guard
        extended_field(phi0, 0.5, np.array([0.0, 1000.0]),
                       cap=meas_model.n_modes * meas_model.n_radial)


def test_derivative_bound_and_factorial(meas_model):
    phi0 = _eigen_datum(meas_model, 0, 0)
    for t in (0.25, 1.0):
        rep = derivative_bound_report(phi0, t, 8)
        assert not rep.capped
        for l, disc, bound in zip(rep.orders, rep.discrete_max,
                                  rep.calculus_bound):
            if l == 0:
                continue
            assert disc <= bound * (1.0 + 1e-12)
    rep = derivative_bound_report(phi0, 1.0, 8)
    check_golden("factorial_ratio_max", max(rep.factorial_ratio))


def test_derivative_bound_capped_flag(meas_model):
    phi0 = _eigen_datum(meas_model, 0, 0)
    rep = derivative_bound_report(phi0, 0.5, 300)
    assert rep.capped
    assert rep.orders[-1] == 200
    with pytest.raises(ConfigError):
        derivative_bound_report(phi0, 0.0, 4)


def test_slab_interpolation_thin_box(meas_model):
    region = _region((((0.0, 0.2), (0.3, 0.35), (0.2, 0.3)),),
                     band=(0.3, 0.6))
    slices = build_time_slices(region)
    phi0 = _eigen_datum(meas_model, 0, 0)
    rep = slab_interpolation_report(phi0, 0.15, 0.35, slices, region)
    assert not rep.degenerate
    assert 0.0 < rep.h_emp < 1.0
    check_golden("slab_h_emp", rep.h_emp)


@pytest.mark.parametrize("n_quad", [0, -2])
def test_nonpositive_quadrature_count_is_config_error(
        meas_model, meas_family, meas_region, n_quad):
    with pytest.raises(ConfigError, match="n_quad"):
        measurable_observability_ratio(meas_family, meas_region,
                                       n_quad=n_quad)
    slices = build_time_slices(meas_region)
    with pytest.raises(ConfigError, match="n_quad"):
        slab_interpolation_report(meas_family[0], 0.0, meas_region.horizon,
                                  slices, meas_region, n_quad=n_quad)


def test_datum_family_deterministic(meas_model):
    fam1 = datum_family(meas_model, 8, 11)
    fam2 = datum_family(meas_model, 8, 11)
    assert len(fam1) == 8
    mass = meas_model.grid.mass
    for a, b in zip(fam1, fam2):
        assert np.array_equal(a.data, b.data)
        nrm = float(np.sum(mass[None, :] * a.data ** 2))
        assert nrm == pytest.approx(1.0, rel=1e-12)
    # leading members are pure eigenmodes: exactly one nonzero mode row
    rows = np.count_nonzero(np.any(fam1[0].data != 0.0, axis=1))
    assert rows == 1


def test_measurable_pipeline_end_to_end(meas_region, meas_family,
                                        meas_report):
    rep = meas_report
    assert rep.sequence_note == "ok"
    assert len(rep.sequence) > 0
    assert len(rep.per_datum) == 20
    assert all(r.rho > 0 for r in rep.per_datum if not r.excluded)
    assert rep.rho_max == max(r.rho for r in rep.per_datum if not r.excluded)
    assert rep.e_measure >= (meas_region.measure
                             / (2.0 * meas_region.patch_measure()))
    check_golden("measurable_rho_max", rep.rho_max)
    # a much larger observation region must observe at least as well
    big = _region((((0.0, 6.28), (0.31, 0.59), (0.05, 0.95)),))
    rep_big = measurable_observability_ratio(meas_family, big)
    assert rep_big.rho_max < rep.rho_max


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_box_unions_floor(seed):
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(int(rng.integers(1, 4))):
        t0 = float(rng.uniform(0.0, 0.8))
        t1 = float(rng.uniform(t0 + 0.05, 1.0))
        th0 = float(rng.uniform(0.0, 5.0))
        th1 = float(rng.uniform(th0 + 0.1, 2.0 * math.pi))
        r0 = float(rng.uniform(0.3, 0.55))
        r1 = float(rng.uniform(r0 + 0.01, 0.6))
        boxes.append(((th0, th1), (r0, r1), (t0, t1)))
    region = _region(tuple(boxes))
    slices = build_time_slices(region)
    assert slices.measure >= region.measure \
        / (2.0 * region.patch_measure()) - 1e-15
