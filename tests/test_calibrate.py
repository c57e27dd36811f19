"""Voigt density vs quadrature oracles; closed-form Gaussian boundaries and crosstalk vs grid,
root-bracketing and Monte-Carlo oracles; labelling, label-moment models, angle search."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.ndimage import gaussian_filter1d
from scipy.optimize import brentq
from scipy.signal import find_peaks as scipy_find_peaks
from scipy.stats import norm

import pnrtiming.calibrate as cal
from pnrtiming import (
    JitterParams,
    PulseModelParams,
    SourceSpec,
    TagBlock,
    VoigtComponent,
    calibrate_both,
    calibrate_events,
    calibrate_pairs,
    confusion_report,
    crosstalk_matrix,
    boundaries_with_fallback,
    decode_events,
    distinct_pairs,
    pair_edges,
    project,
    simulate_stream,
    total_offdiagonal,
    voigt_pdf,
)
from pnrtiming.calibrate import (
    CalibrationModel,
    classify,
    PairTable,
    histogram_1d,
)
from pnrtiming.cli import _write_histogram2d_csv, _write_projection_csv
from pnrtiming.errors import CalibrationError, ConfigError, DataError
from pnrtiming.simulate import edge_delay_table
from pnrtiming.textio import read_csv
from pnrtiming.timetags import UNITS_PER_PS, EdgeEventSet


def make_events(rise, fall):
    """One detection per trigger, with the delays in ps rounded onto the 0.1 ps tag grid."""
    rise_units, fall_units = (np.rint(np.asarray(x, dtype=float) * UNITS_PER_PS).astype(np.int64) for x in (rise, fall))
    n = rise_units.size
    return EdgeEventSet("A", 10_000.0, np.zeros(n, dtype=np.int64), np.arange(n), rise_units, fall_units)


# ---------------------------------------------------------------- voigt oracle

def convolution_oracle(x, comp):
    """Gaussian (*) Lorentzian by quadrature, with the Lorentzian integrated
    through u = arctan((y - c) / gamma) so the infinite tails become a finite
    interval."""

    def integrand(u):
        y = comp.center + comp.gamma * math.tan(u)
        return math.exp(-0.5 * ((x - y) / comp.sigma) ** 2) / (comp.sigma * math.sqrt(2 * math.pi))

    val, _ = quad(integrand, -math.pi / 2, math.pi / 2, epsabs=1e-13, epsrel=1e-11, limit=200)
    return comp.weight * val / math.pi


def test_voigt_matches_quadrature_convolution():
    rng = np.random.default_rng(1)
    for _ in range(5):
        comp = VoigtComponent(
            center=float(rng.uniform(-5, 5)),
            sigma=float(rng.uniform(0.5, 5.0)),
            gamma=float(rng.uniform(0.1, 3.0)),
            weight=1.0,
        )
        span = 8.0 * (comp.sigma + comp.gamma)
        xs = np.linspace(comp.center - span, comp.center + span, 41)
        for x in xs:
            ref = convolution_oracle(float(x), comp)
            assert abs(float(voigt_pdf(x, comp)) - ref) <= 1e-4 * ref


def test_zero_gamma_collapses_to_gaussian():
    comp = VoigtComponent(center=2.0, sigma=1.7, gamma=0.0, weight=1.0)
    peak = float(voigt_pdf(2.0, comp))
    assert peak == pytest.approx(1.0 / (1.7 * math.sqrt(2 * math.pi)), rel=1e-6)
    xs = np.linspace(-4, 8, 101)
    np.testing.assert_allclose(voigt_pdf(xs, comp), norm.pdf(xs, 2.0, 1.7), rtol=1e-9)


def test_tiny_sigma_approaches_lorentzian_peak():
    gamma = 2.5
    comp = VoigtComponent(center=0.0, sigma=1e-6 * gamma, gamma=gamma, weight=1.0)
    assert float(voigt_pdf(0.0, comp)) == pytest.approx(1.0 / (math.pi * gamma), rel=1e-3)


def test_voigt_profile_normalizes_to_one():
    # weight is applied at the mixture level; the bare profile has unit mass
    comp = VoigtComponent(center=1.0, sigma=2.0, gamma=0.7, weight=0.6)
    s = 60.0 * (comp.sigma + comp.gamma)
    mid, _ = quad(lambda x: float(voigt_pdf(x, comp)), 1.0 - s, 1.0 + s, limit=300)
    left, _ = quad(lambda x: float(voigt_pdf(x, comp)), -np.inf, 1.0 - s)
    right, _ = quad(lambda x: float(voigt_pdf(x, comp)), 1.0 + s, np.inf)
    assert mid + left + right == pytest.approx(1.0, abs=1e-6)


def test_voigt_component_validation():
    with pytest.raises(ValueError):
        VoigtComponent(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        VoigtComponent(0.0, 1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        VoigtComponent(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        VoigtComponent(0.0, 1.0, 0.0, 1.2)


# ---------------------------------------------------------------- boundary oracle

def misassignment_on_grid(c1, c2):
    """Total misassigned weight as a function of cut position, evaluated by
    trapezoidal CDFs on a fine grid; returns (cuts, loss)."""
    lo = min(c1.center - 40 * (c1.sigma + c1.gamma), c2.center - 40 * (c2.sigma + c2.gamma))
    hi = max(c1.center + 40 * (c1.sigma + c1.gamma), c2.center + 40 * (c2.sigma + c2.gamma))
    grid = np.linspace(lo, hi, 400_001)
    dx = grid[1] - grid[0]
    cdf1 = np.cumsum(voigt_pdf(grid, c1)) * dx
    cdf2 = np.cumsum(voigt_pdf(grid, c2)) * dx
    sel = (grid >= c1.center) & (grid <= c2.center)
    loss = c1.weight * (1.0 - cdf1[sel]) + c2.weight * cdf2[sel]
    return grid[sel], loss


def crossings(comps):
    """Boundaries of components whose every adjacent pair crosses."""
    bounds, fallback = boundaries_with_fallback(comps)
    assert fallback == []
    return bounds


def test_boundary_matches_grid_argmin():
    c1 = VoigtComponent(0.0, 1.0, 0.0, 0.65)
    c2 = VoigtComponent(6.0, 1.6, 0.0, 0.35)
    cut = float(crossings([c1, c2])[0])
    cuts, loss = misassignment_on_grid(c1, c2)
    best = float(cuts[np.argmin(loss)])
    assert abs(cut - best) <= cuts[1] - cuts[0] + 1e-9


def test_equal_pair_boundary_is_the_midpoint():
    a = VoigtComponent(0.0, 1.0, 0.0, 0.5)
    b = VoigtComponent(8.0, 1.0, 0.0, 0.5)
    assert float(crossings([a, b])[0]) == pytest.approx(4.0, abs=1e-6)


def test_heavier_component_pushes_the_boundary_away():
    heavy = VoigtComponent(0.0, 1.0, 0.0, 0.9)
    light = VoigtComponent(8.0, 1.0, 0.0, 0.1)
    cut = float(crossings([heavy, light])[0])
    assert cut > 4.0


def test_dominated_component_has_no_crossing():
    comps = [VoigtComponent(0.0, 5.0, 0.0, 0.999), VoigtComponent(1.0, 5.0, 0.0, 0.001)]
    bounds, fallback = boundaries_with_fallback(comps)
    assert fallback == [(0, 1)]
    assert float(bounds[0]) == pytest.approx(0.5)


def test_far_apart_gaussian_boundary_does_not_underflow():
    # 400 sigma apart both densities underflow to 0 between the centers, so
    # a root bracket on their difference stops at an arbitrary point
    comps = [VoigtComponent(0.0, 1.0, 0.0, 0.3), VoigtComponent(400.0, 1.0, 0.0, 0.7)]
    want = 200.0 - math.log(0.7 / 0.3) / 400.0  # equal sigmas: the log-density crossing is linear
    assert float(crossings(comps)[0]) == pytest.approx(want, rel=0.0, abs=1e-9)


def test_boundaries_need_at_least_two_components():
    with pytest.raises(ValueError):
        boundaries_with_fallback([VoigtComponent(0.0, 1.0, 0.0, 1.0)])


def test_boundaries_and_crosstalk_refuse_lorentzian_components():
    comps = [VoigtComponent(0.0, 1.0, 0.0, 0.5), VoigtComponent(8.0, 1.0, 0.3, 0.5)]
    for call in (
        lambda: boundaries_with_fallback(comps),
        lambda: crosstalk_matrix(comps, [4.0]),
    ):
        with pytest.raises(ValueError, match="gamma"):
            call()
    # a stored gamma > 0 calibration still loads and decodes by its boundaries
    model = CalibrationModel.from_dict(CalibrationModel("optimal", 0.0, comps, [4.0], np.eye(2), "A", 8000.0).to_dict())
    assert decode_events(make_events([1.0, 7.0], [0.0, 0.0]), model).n.tolist() == [1, 2]


def gaussian_crossing_oracle(c1, s1, w1, c2, s2, w2):
    """Crossing of two weighted Gaussian densities by root bracketing, with
    the midpoint when they do not cross between the centers."""

    def diff(x):
        a = w1 / (s1 * math.sqrt(2 * math.pi)) * math.exp(-0.5 * ((x - c1) / s1) ** 2)
        b = w2 / (s2 * math.sqrt(2 * math.pi)) * math.exp(-0.5 * ((x - c2) / s2) ** 2)
        return a - b

    a = c1 + 1e-9 * (c2 - c1)
    b = c2 - 1e-9 * (c2 - c1)
    if diff(a) <= 0 or diff(b) >= 0:
        return 0.5 * (c1 + c2)
    return brentq(diff, a, b)


def test_gaussian_crossing_closed_form_matches_root_bracketing():
    rng = np.random.default_rng(31)
    fallbacks = 0
    for i in range(600):
        s1 = float(rng.uniform(0.5, 15.0))
        # every third pair has equal widths: the crossing equation is linear
        s2 = s1 if i % 3 == 0 else float(rng.uniform(0.5, 15.0))
        # within 8 of the wider sigma, neither density underflows at the
        # crossing, where the oracle would see a flat zero difference
        c1 = float(rng.uniform(1000.0, 2500.0))
        c2 = c1 + float(rng.uniform(0.1, 8.0)) * max(s1, s2)
        w1, w2 = (float(v) for v in rng.uniform(0.01, 1.0, 2))
        want = gaussian_crossing_oracle(c1, s1, w1, c2, s2, w2)
        if want == 0.5 * (c1 + c2):
            fallbacks += 1
            assert cal._gaussian_pair_boundary(c1, s1, w1, c2, s2, w2) is None
        else:
            got = cal._gaussian_pair_boundary(c1, s1, w1, c2, s2, w2)
            assert c1 < got < c2
            assert got == pytest.approx(want, rel=0.0, abs=1e-9)
    assert 0 < fallbacks < 300


# ---------------------------------------------------------------- crosstalk

def test_far_separated_components_give_identity():
    # 100 sigma separation leaves no crosstalk
    sep = 100.0
    comps = [VoigtComponent(i * sep, 1.0, 0.0, 1 / 3) for i in range(3)]
    m = crosstalk_matrix(comps, crossings(comps))
    np.testing.assert_allclose(m, np.eye(3), atol=1e-6)


@pytest.mark.parametrize(
    "boundaries, message",
    [
        ([2.5], "need exactly k-1 boundaries"),
        ([2.5, 7.5, 9.0], "need exactly k-1 boundaries"),
        ([7.5, 2.5], "boundaries must be strictly ascending"),
        ([2.5, 2.5], "boundaries must be strictly ascending"),
    ],
)
def test_crosstalk_matrix_refuses_bad_boundaries(boundaries, message):
    comps = [VoigtComponent(c, 1.0, 0.0, 1 / 3) for c in (0.0, 5.0, 10.0)]
    with pytest.raises(ValueError, match=message):
        crosstalk_matrix(comps, boundaries)


def test_crosstalk_rows_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(5):
        k = int(rng.integers(2, 6))
        centers = np.cumsum(rng.uniform(2.0, 15.0, k))
        w = rng.dirichlet(np.ones(k))
        comps = [
            VoigtComponent(float(c), float(rng.uniform(0.5, 2.0)), 0.0, float(wi))
            for c, wi in zip(centers, w)
        ]
        m = crosstalk_matrix(comps, boundaries_with_fallback(comps)[0])
        np.testing.assert_allclose(m.sum(axis=1), np.ones(k), atol=1e-9)


def test_crosstalk_agrees_with_monte_carlo_classification():
    rng = np.random.default_rng(17)
    comps = [
        VoigtComponent(0.0, 1.0, 0.0, 0.5),
        VoigtComponent(4.0, 1.2, 0.0, 0.3),
        VoigtComponent(9.0, 0.9, 0.0, 0.2),
    ]
    bounds = crossings(comps)
    m = crosstalk_matrix(comps, bounds)
    total = 200_000
    for i, comp in enumerate(comps):
        n_i = int(round(total * comp.weight))
        draws = rng.normal(comp.center, comp.sigma, n_i)
        hist = np.bincount(classify(draws, bounds), minlength=3) / n_i
        sigma = np.sqrt(m[i] * (1 - m[i]) / n_i)
        assert np.all(np.abs(hist - m[i]) <= 3 * sigma + 1.0 / n_i)


def test_crosstalk_shrinks_as_separation_grows():
    def total_for(scale):
        comps = [VoigtComponent(i * 3.0 * scale, 1.0, 0.0, 1 / 3) for i in range(3)]
        return total_offdiagonal(crosstalk_matrix(comps, crossings(comps)))

    assert total_for(2.0) < total_for(1.0)


def test_symmetric_pair_crosstalk_is_the_tail_integral():
    comps = [VoigtComponent(0.0, 1.3, 0.0, 0.5), VoigtComponent(5.0, 1.3, 0.0, 0.5)]
    m = crosstalk_matrix(comps, crossings(comps))
    assert m[0, 1] == pytest.approx(m[1, 0], rel=1e-9)
    q = float(norm.sf(2.5, scale=1.3))
    np.testing.assert_allclose(m, [[1 - q, q], [q, 1 - q]], atol=1e-9)


def test_crosstalk_cells_never_go_negative():
    # six closely packed clusters and their boundaries, from a calibration
    comps = [
        VoigtComponent(1235.5577513071992, 1.3051450729978273, 0.0, 0.11529526604160324),
        VoigtComponent(1768.5137367650475, 1.3121156153807123, 0.0, 0.19549670170709604),
        VoigtComponent(1932.893225998985, 1.2987833936016844, 0.0, 0.22722171966121563),
        VoigtComponent(1994.2577825873225, 1.2966957828571397, 0.0, 0.1939670463926024),
        VoigtComponent(2018.7209355306168, 1.2995372962429679, 0.0, 0.13100183829703435),
        VoigtComponent(2028.9123548946102, 1.3202448147199584, 0.0, 0.1370174279004483),
    ]
    bounds = [
        1467.0629676377328, 1847.6176181361473, 1964.7822123538817, 2006.5185015515997, 2023.7714703163886
    ]
    m = crosstalk_matrix(comps, bounds)
    assert m.min() >= 0.0
    np.testing.assert_allclose(m.sum(axis=1), np.ones(6), rtol=0.0, atol=1e-12)


def test_classify_ties_go_to_the_lower_class():
    bounds = np.array([1.0, 2.0])
    np.testing.assert_array_equal(classify([0.5, 1.0, 1.5, 2.0, 2.5], bounds), [0, 0, 1, 1, 2])


# ---------------------------------------------------------------- histograms, peaks

def test_single_event_histogram_has_one_count():
    table = distinct_pairs(make_events([10.0], [200.0]))
    assert [a.tolist() for a in (table.rise_units, table.fall_units, table.multiplicity)] == [[100], [2000], [1]]
    assert (table.detector, table.window_ps, table.n_detections) == ("A", 10_000.0, 1)


def test_histogram_conserves_counts(events_a):
    table = distinct_pairs(events_a)
    rise, fall, count = table.rise_units, table.fall_units, table.multiplicity
    assert count.sum() == table.n_detections == events_a.n_detections
    assert count.min() >= 1
    # strictly ascending by (rise, fall), so every pair is listed once
    assert np.all((rise[1:] > rise[:-1]) | ((rise[1:] == rise[:-1]) & (fall[1:] > fall[:-1])))


def test_histogram_rejects_empty_input():
    with pytest.raises(CalibrationError, match="no detected events"):
        distinct_pairs(make_events([], []))


def test_histogram_csv_has_header_and_rows(events_a, tmp_path):
    table = distinct_pairs(events_a)
    out = tmp_path / "h.csv"
    _write_histogram2d_csv(out, table)
    header, rows = read_csv(out, 1, 3)
    assert header == ["rise_units,fall_units,count"]
    np.testing.assert_array_equal(rows, np.stack((table.rise_units, table.fall_units, table.multiplicity), axis=1))


def test_projection_axes():
    ev = make_events([3.0, 5.0], [40.0, 40.0])
    np.testing.assert_allclose(project(ev, 0.0), [3.0, 5.0])
    np.testing.assert_allclose(project(ev, math.pi / 2), [40.0, 40.0])
    np.testing.assert_allclose(project(ev, math.pi), [-3.0, -5.0])
    theta = math.radians(30)
    np.testing.assert_allclose(
        project(ev, theta),
        np.array([3.0, 5.0]) * math.cos(theta) + 40.0 * math.sin(theta),
    )
    with pytest.raises(ValueError):
        project(ev, -0.1)
    with pytest.raises(ValueError):
        project(ev, 2 * math.pi)


def numpy_histogram(coords):
    """histogram_1d's bins for an array of coordinates, counted by np.histogram
    on the whole array: the per-event oracle of the blocked histogram."""
    edges = cal._padded_edges(coords.min(), coords.max(), cal.DEFAULT_BIN_WIDTH)
    return np.histogram(coords, bins=edges)[0], 0.5 * (edges[:-1] + edges[1:]), edges


def test_find_peaks_locates_a_gaussian_mode():
    rng = np.random.default_rng(9)
    counts, centers, _ = numpy_histogram(rng.normal(5.0, 1.0, 20_000))
    peaks = centers[cal._peak_indices_ranked(counts)[0]]
    assert peaks.size == 1
    assert abs(peaks[0] - 5.0) <= 0.5  # mode within one bin plus smoothing slack


# one pair per block, many blocks, and the default single block
BLOCKS = [1, 1000, cal._SCAN_BLOCK]


def test_weighted_histogram_counts_the_expanded_sample(monkeypatch):
    # delays on the 0.1 ps tag grid, so pairs repeat and, at angle 0, some
    # coordinates fall on the 0.5 ps bin edges
    rng = np.random.default_rng(4)
    rise = np.round(rng.normal(20.0, 3.0, 3000), 1)
    fall = np.round(rng.normal(60.0, 3.0, 3000), 1)
    pairs, multiplicity = np.unique(rise + 1j * fall, return_counts=True)
    assert pairs.size < rise.size
    for angle in (0.0, float(cal._GRID_ANGLES[17]), 4.0):
        want = numpy_histogram(rise * math.cos(angle) + fall * math.sin(angle))
        for block in BLOCKS:
            monkeypatch.setattr(cal, "_SCAN_BLOCK", block)
            for got in (
                histogram_1d((rise, fall, np.ones(rise.size, dtype=np.int64)), angle),
                histogram_1d((pairs.real.copy(), pairs.imag.copy(), multiplicity), angle),
            ):
                for got_part, want_part in zip(got, want):
                    np.testing.assert_array_equal(got_part, want_part)
                assert got[0].dtype == np.int64


def test_histogram_bins_match_numpy_on_and_beside_the_edges(monkeypatch):
    rng = np.random.default_rng(12)
    base = rng.normal(0.0, 30.0, 2000)
    edges = numpy_histogram(base)[2]
    inner = edges[4:-4]
    coords = np.concatenate([base, inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf)])
    weights = rng.integers(1, 4, coords.size)
    for angle in (0.0, math.pi):
        # at 0 and pi the pairs (coords * cos(angle), 0) project onto coords exactly
        rise, fall = coords * math.cos(angle), np.zeros(coords.size)
        np.testing.assert_array_equal(rise * math.cos(angle) + fall * math.sin(angle), coords)
        for block in BLOCKS:
            monkeypatch.setattr(cal, "_SCAN_BLOCK", block)
            counts, _, got_edges = histogram_1d((rise, fall, weights), angle)
            np.testing.assert_array_equal(got_edges, edges)
            np.testing.assert_array_equal(counts, np.histogram(coords, bins=edges, weights=weights)[0])
            ones = np.ones(coords.size, dtype=np.int64)
            np.testing.assert_array_equal(
                histogram_1d((rise, fall, ones), angle)[0], np.histogram(coords, bins=edges)[0]
            )


def scipy_peaks(x, least):
    idx, props = scipy_find_peaks(x, prominence=least)
    return idx, props["prominences"]


@pytest.mark.parametrize(
    "x",
    [
        [3, 3, 1, 2, 1],  # plateau at index 0
        [1, 2, 1, 3, 3],  # plateau at the last index
        [5, 5, 5],
        [0, 2, 2, 2, 1, 4, 4, 0, 4, 1],
        [1, 3, 3, 2, 3, 3, 1, 0, 5],
        [7],
        [1, 2],
    ],
)
def test_prominent_peaks_match_scipy_on_plateaus(x):
    x = np.asarray(x, dtype=float)
    for least in (0.0, 1.0, 2.0, 10.0):
        got, want = cal._prominent_peaks(x, least), scipy_peaks(x, least)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_peak_search_matches_scipy_find_peaks():
    rng = np.random.default_rng(17)
    for trial in range(600):
        n = int(rng.integers(1, 200))
        if trial % 3 == 0:
            x = rng.integers(0, 4, n).astype(float)  # plateau-heavy
        elif trial % 3 == 1:
            x = np.repeat(rng.integers(0, 6, n), rng.integers(1, 5, n)).astype(float)  # long runs, also at the ends
        else:
            x = rng.normal(size=n)
        least = float(rng.choice([0.0, 0.5, 1.0]))
        got, want = cal._prominent_peaks(x, least), scipy_peaks(x, least)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        counts = rng.poisson(rng.uniform(0.0, 40.0), n)
        idx, smoothed = cal._peak_indices_ranked(counts)
        np.testing.assert_array_equal(idx, scipy_peaks(smoothed, 0.05 * max(smoothed.max(), 1e-12))[0])


def test_smoother_matches_scipy_gaussian_filter1d():
    """Bit for bit: every length 1..19, shorter than the kernel radius of 8
    where the reflected edges wrap more than once, and histogram-sized inputs."""
    rng = np.random.default_rng(19)
    lengths = list(range(1, 20)) * 30 + rng.integers(20, 4000, 200).tolist()
    for trial, n in enumerate(lengths):
        if trial % 3 == 0:
            x = rng.poisson(rng.uniform(0.0, 400.0), n).astype(float)
        elif trial % 3 == 1:
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 7)
        else:
            x = np.repeat(rng.integers(0, 50, n), rng.integers(1, 6, n))[:n].astype(float)
        np.testing.assert_array_equal(cal._smoothed(x), gaussian_filter1d(x, 2.0))


def test_simulated_projection_shows_at_least_five_modes(events_a, optimal_model, default_params):
    pulse, _, _ = default_params
    theta = optimal_model.angle % math.pi
    counts, centers, _ = histogram_1d(distinct_pairs(events_a).in_ps(), theta)
    peaks = centers[cal._peak_indices_ranked(counts)[0]]
    assert peaks.size >= 5

    rise_tab, fall_tab = edge_delay_table(pulse)
    prop = pulse.propagation_delay_ps
    want = (prop + rise_tab) * math.cos(theta) + (prop + fall_tab) * math.sin(theta)
    for w in want:
        assert np.min(np.abs(peaks - w)) <= 2.0


# ---------------------------------------------------------------- angle search

def test_optimal_angle_beats_both_axes(optimal_model):
    d = optimal_model.diagnostics
    assert d["objective_at_returned"] <= d["objective_at_zero"]
    assert d["objective_at_returned"] <= d["objective_at_half_pi"]


def test_optimal_model_resolves_six_clusters(optimal_model):
    assert len(optimal_model.components) == 6
    assert optimal_model.diagnostics["fit"]["chi2_ndf"] < 3.0
    assert np.all(np.diff(optimal_model.boundaries) > 0)


def test_optimal_projection_beats_rising_only(optimal_model, rising_model):
    assert total_offdiagonal(optimal_model.crosstalk) < total_offdiagonal(rising_model.crosstalk)
    assert rising_model.angle % math.pi == 0.0


def test_angle_is_stable_across_disjoint_halves(events_a):
    rise, fall = events_a.detected()
    half = rise.size // 2
    first = calibrate_events(make_events(rise[:half], fall[:half]), mode="optimal")
    second = calibrate_events(make_events(rise[half:], fall[half:]), mode="optimal")
    a1 = first.angle % math.pi
    a2 = second.angle % math.pi
    assert abs(a1 - a2) <= math.radians(2.0)


def test_no_shared_jitter_leaves_nothing_to_exploit():
    # photon information only in the rising edge, isotropic per-edge noise:
    # rotating the projection cannot beat the plain rising-edge analysis
    rng = np.random.default_rng(21)
    n = 60_000
    cls = rng.integers(0, 3, n)
    rise = np.array([20.0, 10.0, 0.0])[cls] + rng.normal(0, 1.0, n)
    fall = 100.0 + rng.normal(0, 1.0, n)
    ev = make_events(rise, fall)
    opt = calibrate_events(ev, mode="optimal")
    ris = calibrate_events(ev, mode="rising_only")
    assert opt.k == ris.k == 3
    assert math.degrees(opt.angle % math.pi) == pytest.approx(0.0, abs=3.0)
    t_opt = total_offdiagonal(opt.crosstalk)
    t_ris = total_offdiagonal(ris.crosstalk)
    assert t_opt <= 1.05 * t_ris


def test_small_samples_pick_the_deep_reference_projection():
    # at 2e4 triggers noise peaks on shallow projections outnumber the six
    # clusters, so ranking by peak count alone picks a shallow projection
    pulse, jitter, spec = PulseModelParams(), JitterParams(), SourceSpec()
    for seed in range(1, 11):
        tags, _ = simulate_stream(spec, pulse, jitter, 20_000, seed=seed)
        models = calibrate_both(pair_edges(tags, window_ps=8000.0, detector="A"))
        for model in models.values():
            assert model.k == 6, seed
            assert math.degrees(model.diagnostics["reference_angle"]) == pytest.approx(134.0), seed
            assert model.diagnostics["fit"]["chi2_ndf"] < 3.0, seed


def test_angle_search_rejects_empty_and_tiny_samples():
    with pytest.raises(CalibrationError, match="no detected events"):
        calibrate_events(make_events([], []), mode="optimal")
    rng = np.random.default_rng(2)
    with pytest.raises(CalibrationError):
        calibrate_events(make_events(rng.normal(0, 1, 30), rng.normal(5, 1, 30)), mode="optimal")


def per_event_labelling(rise, fall):
    """Reference scan and labelling, at the default calibration settings,
    that project and histogram every event at every angle; returns
    (n_peaks, depth, conc, theta_ref, labels)."""

    def ranked_peaks(counts):
        smoothed = gaussian_filter1d(counts.astype(float), 2.0)
        idx, _ = scipy_find_peaks(smoothed, prominence=0.05 * max(smoothed.max(), 1e-12))
        return idx, smoothed

    angles = np.deg2rad(np.arange(0.0, 180.0, 2.0))
    n_peaks = np.zeros(angles.size, dtype=int)
    depth = np.zeros(angles.size)
    conc = np.zeros(angles.size)
    for i, theta in enumerate(angles):
        counts, _, _ = numpy_histogram(rise * math.cos(theta) + fall * math.sin(theta))
        idx, smoothed = ranked_peaks(counts)
        p = counts / counts.sum()
        n_peaks[i] = idx.size
        conc[i] = float(np.sum(p * p))
        if idx.size > 1:
            depth[i] = min(
                1.0 - float(smoothed[a : b + 1].min()) / min(smoothed[a], smoothed[b])
                for a, b in zip(idx[:-1], idx[1:])
            )
    theta_ref = float(angles[np.lexsort((conc, depth, n_peaks, depth >= 0.5))[-1]])
    coords = rise * math.cos(theta_ref) + fall * math.sin(theta_ref)
    counts, centers, _ = numpy_histogram(coords)
    idx, smoothed = ranked_peaks(counts)
    cut = np.array([centers[a + int(np.argmin(smoothed[a : b + 1]))] for a, b in zip(idx[:-1], idx[1:])])
    return n_peaks, depth, conc, theta_ref, np.searchsorted(cut, coords)


def three_cluster_sample(n=20_000, seed=41):
    # continuous draws, rounded onto the tag grid by make_events
    rng = np.random.default_rng(seed)
    cls = rng.integers(0, 3, n)
    shared = rng.normal(0.0, 2.0, n)
    rise = np.array([30.0, 20.0, 10.0])[cls] + shared + rng.normal(0, 1.0, n)
    fall = np.array([100.0, 106.0, 112.0])[cls] + shared + rng.normal(0, 1.0, n)
    return make_events(rise, fall)


@pytest.mark.parametrize(
    "sample, block",
    [
        pytest.param("simulated", None, id="simulated-None"),
        pytest.param("continuous", None, id="continuous-None"),
        # the scan's histograms built from many blocks of pairs
        pytest.param("simulated", 1000, id="simulated-None-blocks"),
        pytest.param("continuous", 1000, id="continuous-None-blocks"),
    ],
)
def test_distinct_pair_labelling_matches_per_event_scan(sample, block, events_a, monkeypatch):
    if block is not None:
        monkeypatch.setattr(cal, "_SCAN_BLOCK", block)
    events = events_a if sample == "simulated" else three_cluster_sample()
    rise, fall = events.detected()
    n_peaks, depth, conc, theta_ref, labels = per_event_labelling(rise, fall)

    table = distinct_pairs(events)
    pairs = table.in_ps()
    assert pairs[2].sum() == rise.size
    assert pairs[0].size < rise.size  # delays on the tag grid repeat
    angles = np.deg2rad(np.arange(0.0, 180.0, 2.0))
    got = cal._reference_scan(pairs, angles)
    np.testing.assert_array_equal(got[0], n_peaks)
    np.testing.assert_array_equal(got[1], depth)
    np.testing.assert_array_equal(got[2], conc)

    labelled, got_theta = cal._label_events(table)
    assert got_theta == theta_ref
    _, pair_of_event = np.unique(rise + 1j * fall, return_inverse=True)
    np.testing.assert_array_equal(labelled.labels[pair_of_event], labels)
    np.testing.assert_array_equal(labelled.counts, np.bincount(labels, minlength=labelled.k))


def pair_sample(kind):
    """Events for the distinct_pairs oracle; only the "overflow" kind has
    (rise span) * (fall span) of at least 2**63 units."""
    rng = np.random.default_rng(5)
    if kind.startswith("simulated"):
        pulse, jitter, spec = PulseModelParams(), JitterParams(), SourceSpec()
        tags, _ = simulate_stream(spec, pulse, jitter, 20_000, seed=int(kind.split("-")[1]))
        return pair_edges(tags, window_ps=8000.0, detector="A")
    if kind == "negative":
        return make_events(rng.integers(-3000, 3000, 5000) / 10, rng.integers(-40, 5, 5000) / 10)
    if kind == "single pair":
        return make_events(np.full(7, 123.4), np.full(7, -0.3))
    # "overflow": triggers 1e9 ps apart, paired at 1e300 ps, with rise delays
    # spanning 3.2e9 units and fall delays 9.2e9
    trig = np.arange(300, dtype=np.int64) * 10**10
    rise = trig + rng.choice([0, 1, 3_200_000_000, 3_200_000_001], trig.size)
    fall = rise + rng.choice([1, 3_300_000_000, 6_000_000_000], trig.size)
    channels = np.repeat([0, 1, 2], trig.size)
    tags = TagBlock(channels, np.concatenate([trig, rise, fall])).sorted()
    return pair_edges(tags, window_ps=1e300, detector="A")


@pytest.mark.parametrize("kind", ["simulated-3", "simulated-7", "negative", "single pair", "overflow"])
def test_distinct_pairs_are_bit_equal_to_complex_unique(kind):
    events = pair_sample(kind)
    spans = [int(u.max()) - int(u.min()) + 1 for u in (events.rise_units, events.fall_units)]
    assert (spans[0] * spans[1] >= 2**63) == (kind == "overflow")
    rise, fall = events.detected()
    pairs, counts = np.unique(rise + 1j * fall, return_counts=True)
    table = distinct_pairs(events)
    assert (table.detector, table.window_ps) == (events.detector, events.window_ps)
    assert all(a.dtype == np.int64 for a in (table.rise_units, table.fall_units, table.multiplicity))
    for a, b in zip(table.in_ps(), (pairs.real, pairs.imag, counts)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_label_moments_match_direct_projection(events_a):
    rise, fall = events_a.detected()
    labelled, _ = cal._label_events(distinct_pairs(events_a))
    _, pair_of_event = np.unique(rise + 1j * fall, return_inverse=True)
    labels = labelled.labels[pair_of_event]
    rng = np.random.default_rng(12)
    for angle in rng.uniform(0.0, 2.0 * math.pi, 12):
        coords = rise * math.cos(angle) + fall * math.sin(angle)
        mean, sigma = labelled.moments(float(angle))
        cells = [coords[labels == j] for j in range(labelled.k)]
        # a projected mean can pass through zero; 1e-9 ps is far below any bin
        np.testing.assert_allclose(mean, [c.mean() for c in cells], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(sigma, [c.std() for c in cells], rtol=1e-9)


def test_calibrate_both_labels_the_events_once(events_a, monkeypatch):
    calls = []
    original = cal._label_events

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cal, "_label_events", counting)
    models = calibrate_both(events_a)
    assert len(calls) == 1
    optimal, rising = models["optimal"], models["rising_only"]
    assert optimal.k == rising.k
    assert optimal.diagnostics["reference_angle"] == rising.diagnostics["reference_angle"]


@pytest.mark.parametrize("mode", ["optimal", "rising_only"])
def test_calibrate_events_is_one_model_of_calibrate_both(events_a, mode):
    assert calibrate_events(events_a, mode).to_dict() == calibrate_both(events_a)[mode].to_dict()


def test_calibrate_events_refuses_an_unknown_mode(events_a):
    with pytest.raises(ValueError, match="mode must be one of"):
        calibrate_events(events_a, "sideways")


def test_models_name_the_detector_and_window_of_their_events(events_a):
    events_b = dataclasses.replace(events_a, detector="B", window_ps=5000.0)
    models = calibrate_both(events_b)
    for model in models.values():
        assert (model.detector, model.window_ps) == ("B", 5000.0)
        assert (model.to_dict()["detector"], model.to_dict()["window_ps"]) == ("B", 5000.0)
    # the keywords may repeat the events' own values, and change nothing then
    same = calibrate_both(events_b, detector="B", window_ps=5000.0)
    assert {m: x.to_dict() for m, x in same.items()} == {m: x.to_dict() for m, x in models.items()}
    with pytest.raises(DataError, match="detector 'A' cannot be decoded with a calibration for detector 'B'"):
        decode_events(events_a, models["optimal"])


def test_calibrate_pairs_is_calibrate_both_of_the_table_events(events_a):
    events_b = dataclasses.replace(events_a, detector="B", window_ps=5000.0)
    table = distinct_pairs(events_b)
    from_table, from_events = calibrate_pairs(table), calibrate_both(events_b)
    for mode in ("optimal", "rising_only"):
        assert from_table[mode].to_dict() == from_events[mode].to_dict()
        assert (from_table[mode].detector, from_table[mode].window_ps) == (table.detector, table.window_ps)


@pytest.mark.parametrize(
    "keywords, message",
    [
        ({"detector": "A"}, "detector 'A' is not the events' detector, 'B'"),
        ({"window_ps": 8000.0}, "window_ps 8000.0 is not the events' window_ps, 5000.0"),
        ({"detector": "B", "window_ps": 5000.5}, "window_ps 5000.5"),
    ],
)
def test_calibration_keywords_that_disagree_with_the_events_raise(events_a, keywords, message):
    events_b = dataclasses.replace(events_a, detector="B", window_ps=5000.0)
    with pytest.raises(ConfigError, match=re.escape(message)):
        calibrate_both(events_b, **keywords)
    with pytest.raises(ConfigError, match=re.escape(message)):
        calibrate_events(events_b, "rising_only", **keywords)


# ---------------------------------------------------------------- label-moment models


def test_model_objective_is_the_model_crosstalk(optimal_model):
    weights = [c.weight for c in optimal_model.components]
    assert total_offdiagonal(optimal_model.crosstalk, weights) == optimal_model.diagnostics["objective_at_returned"]


def test_components_are_the_label_moments(events_a, optimal_model, rising_model, default_params):
    rise, fall = events_a.detected()
    labelled, _ = cal._label_events(distinct_pairs(events_a))
    _, pair_of_event = np.unique(rise + 1j * fall, return_inverse=True)
    labels = labelled.labels[pair_of_event]
    pulse, _, _ = default_params
    rise_tab, fall_tab = edge_delay_table(pulse)
    prop = pulse.propagation_delay_ps
    for model in (optimal_model, rising_model):
        coords = project(events_a, model.angle)
        cells = [coords[labels == j] for j in range(labelled.k)]
        order = np.argsort([c.mean() for c in cells])
        comps = model.components
        np.testing.assert_allclose([c.center for c in comps], [cells[j].mean() for j in order], rtol=1e-9)
        np.testing.assert_allclose([c.sigma for c in comps], [cells[j].std() for j in order], rtol=1e-9)
        np.testing.assert_allclose([c.weight for c in comps], [cells[j].size / rise.size for j in order], rtol=1e-12)
        assert all(c.gamma == 0.0 for c in comps)
        # component j sits on the simulated cluster of j + 1 photons
        want = (prop + rise_tab) * math.cos(model.angle) + (prop + fall_tab) * math.sin(model.angle)
        assert np.all(np.diff(want[: model.k]) > 0)
        np.testing.assert_allclose([c.center for c in comps], want[: model.k], atol=2.0)


def test_fit_diagnostics_are_the_pearson_chi2_of_the_event_histogram(events_a, optimal_model, rising_model):
    for model in (optimal_model, rising_model):
        counts, _, edges = numpy_histogram(project(events_a, model.angle))
        expected = events_a.n_detections * sum(
            c.weight * np.diff(norm.cdf(edges, c.center, c.sigma)) for c in model.components
        )
        use = expected >= 5.0
        chi2 = float(np.sum((counts[use] - expected[use]) ** 2 / expected[use]))
        ndf = int(np.count_nonzero(use)) - (3 * model.k - 1) - 1
        fit = model.diagnostics["fit"]
        assert fit["n_events"] == events_a.n_detections
        assert fit["ndf"] == ndf
        assert fit["chi2"] == pytest.approx(chi2, rel=1e-9)
        assert fit["chi2_ndf"] == pytest.approx(chi2 / ndf, rel=1e-9)


def test_expected_counts_are_the_bin_integrals_of_the_mixture(events_a, optimal_model, rising_model, tmp_path):
    n = events_a.n_detections
    pairs = distinct_pairs(events_a).in_ps()
    for model in (optimal_model, rising_model):
        _, _, edges = histogram_1d(pairs, model.angle)
        got = cal.expected_counts(n, model.components, edges)

        def density(x):
            return sum(
                c.weight * math.exp(-0.5 * ((x - c.center) / c.sigma) ** 2) / (c.sigma * math.sqrt(2.0 * math.pi))
                for c in model.components
            )

        use = np.flatnonzero(got >= 1.0)
        assert use.size > 20
        want = np.array([n * quad(density, edges[i], edges[i + 1], epsabs=0.0, epsrel=1e-13)[0] for i in use])
        np.testing.assert_allclose(got[use], want, rtol=1e-9)
        # the CLI's fitted_counts column holds these integrals to its 6 digits
        _write_projection_csv(tmp_path / "projection.csv", pairs, model)
        table = np.loadtxt(tmp_path / "projection.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 1], histogram_1d(pairs, model.angle)[0])
        np.testing.assert_allclose(table[use, 2], want, rtol=6e-6)


@pytest.fixture(scope="module")
def acceptance_fixture():
    """(events, truth, calibrate_both models) at the acceptance criterion 6 fixture."""
    tags, truth = simulate_stream(SourceSpec(), PulseModelParams(), JitterParams(), 100_000, seed=424242, workers=4)
    events = pair_edges(tags, window_ps=8000.0, detector="A")
    return events, truth, calibrate_both(events)


def test_rising_only_model_predicts_its_confusion(acceptance_fixture):
    # acceptance criterion 6 at its fixture, applied to the rising-only model
    events, truth, models = acceptance_fixture
    model = models["rising_only"]
    conf = confusion_report(decode_events(events, model), truth, model)
    assert float(np.max(np.abs(conf.prediction["z"][:5, :5]))) < 3.0


def test_public_boundaries_and_crosstalk_reproduce_the_model(acceptance_fixture):
    # the calibrator and the public functions share one boundary loop and one
    # ndtr expression, so they agree bit for bit
    _, _, models = acceptance_fixture
    for model in models.values():
        bounds, fallback = boundaries_with_fallback(model.components)
        np.testing.assert_array_equal(bounds, model.boundaries)
        assert fallback == model.diagnostics["boundary_fallback_pairs"]
        np.testing.assert_array_equal(crosstalk_matrix(model.components, model.boundaries), model.crosstalk)


def test_labels_with_too_few_events_raise_in_every_mode():
    # three clusters of one repeated pair each, the middle one with 4 events:
    # enough events for three components, too few in one label
    rise = np.repeat([0.0, 20.0, 40.0], [75, 4, 75])
    fall = np.repeat([100.0, 120.0, 140.0], [75, 4, 75])
    for mode in ("optimal", "rising_only"):
        with pytest.raises(CalibrationError, match="a cluster label has fewer than 5 events"):
            calibrate_events(make_events(rise, fall), mode=mode)


@pytest.mark.parametrize("k", [255, 256])
def test_a_calibration_resolves_at_most_255_peaks(k):
    # k tight clusters 6 ps apart on both delays; component j decodes to
    # j + 1 photons, and a record holds at most 255
    rng = np.random.default_rng(0)
    cluster = np.repeat(np.arange(k), 60)
    rise = 100 + 6.0 * cluster + rng.uniform(-0.3, 0.3, cluster.size)
    fall = 5000 + 6.0 * cluster + rng.uniform(-0.3, 0.3, cluster.size)
    events = make_events(rise, fall)
    if k == 256:
        with pytest.raises(CalibrationError, match="256 peaks resolved; a calibration holds at most 255"):
            calibrate_events(events, "optimal")
    else:
        model = calibrate_events(events, "optimal")
        assert model.k == 255
        assert decode_events(events, model).n.max() == 255


def test_model_refuses_more_components_than_photon_numbers():
    components = [VoigtComponent(float(j), 0.1, 0.0, 1 / 256) for j in range(256)]
    with pytest.raises(ValueError, match="need 1 to 255 components, one per photon number, not 256"):
        CalibrationModel("optimal", 0.0, components, np.arange(255) + 0.5, np.eye(256), "A", 8000.0)
    model = CalibrationModel("optimal", 0.0, components[:2], [0.5], np.eye(2), "A", 8000.0).to_dict()
    model["components"] *= 128
    with pytest.raises(ConfigError, match="not 256"):
        CalibrationModel.from_dict(model)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_delays_raise_config_error(events_a, bad):
    # calibration takes delays only as an EdgeEventSet's int64 tag units
    for field in ("rise_units", "fall_units"):
        delays = getattr(events_a, field).astype(float)
        delays[3] = bad
        arrays = {"rise_units": events_a.rise_units, "fall_units": events_a.fall_units, field: delays}
        with pytest.raises(ConfigError, match=f"{field} must be a 1-D integer array"):
            EdgeEventSet("A", 8000.0, events_a.trigger_time, events_a.detection, **arrays)


def test_delays_that_are_not_1d_raise_config_error(events_a):
    detection, rise, fall = events_a.detection, events_a.rise_units, events_a.fall_units
    n = rise.size // 2 * 2
    with pytest.raises(ConfigError, match="1-D"):
        EdgeEventSet("A", 8000.0, events_a.trigger_time, detection[:n], rise[:n].reshape(2, -1), fall[:n])
    with pytest.raises(ConfigError, match="equal length"):
        EdgeEventSet("A", 8000.0, events_a.trigger_time, detection, rise[1:], fall)


# ---------------------------------------------------------------- model object

def test_model_round_trips_through_json(optimal_model, tmp_path):
    path = tmp_path / "model.json"
    optimal_model.save_json(path)
    back = CalibrationModel.load_json(path)
    assert back.mode == optimal_model.mode
    assert back.angle == pytest.approx(optimal_model.angle)
    assert back.detector == optimal_model.detector
    np.testing.assert_allclose(back.boundaries, optimal_model.boundaries)
    np.testing.assert_allclose(back.crosstalk, optimal_model.crosstalk)
    for a, b in zip(back.components, optimal_model.components):
        assert (a.center, a.sigma, a.gamma, a.weight) == pytest.approx(
            (b.center, b.sigma, b.gamma, b.weight)
        )


def test_model_from_dict_raises_config_error(optimal_model):
    good = optimal_model.to_dict()
    for bad in (
        [good],
        {**good, "format": "pnrtiming-calibration/0"},
        {k: v for k, v in good.items() if k != "angle_rad"},
        {**good, "components": 3},
        {**good, "mode": "sideways"},
    ):
        with pytest.raises(ConfigError):
            CalibrationModel.from_dict(bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "path",
    [
        ("boundaries_ps", 0),
        ("components", 0, "center_ps"),
        ("components", 1, "sigma_ps"),
        ("components", 2, "gamma_ps"),
        ("crosstalk", 1, 2),
    ],
)
def test_model_from_dict_refuses_non_finite_values(optimal_model, path, value):
    data = optimal_model.to_dict()
    entry = data
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    with pytest.raises(ConfigError, match="finite"):
        CalibrationModel.from_dict(data)


def test_model_validation_catches_inconsistencies():
    comps = [VoigtComponent(0.0, 1.0, 0.0, 0.5), VoigtComponent(5.0, 1.0, 0.0, 0.5)]
    ok = dict(
        mode="optimal",
        angle=0.3,
        components=comps,
        boundaries=np.array([2.5]),
        crosstalk=np.array([[0.9, 0.1], [0.1, 0.9]]),
        detector="A",
        window_ps=8000.0,
    )
    CalibrationModel(**ok)
    with pytest.raises(ValueError):
        CalibrationModel(**{**ok, "mode": "sideways"})
    with pytest.raises(ValueError):
        CalibrationModel(**{**ok, "angle": 7.0})
    with pytest.raises(ValueError):
        CalibrationModel(**{**ok, "boundaries": np.array([2.5, 2.5])})
    with pytest.raises(ValueError):
        CalibrationModel(**{**ok, "crosstalk": np.array([[0.9, 0.2], [0.1, 0.9]])})
    with pytest.raises(ValueError):
        CalibrationModel(**{**ok, "components": comps[::-1]})
    comps.append(VoigtComponent(10.0, 1.0, 0.0, 0.5))
    three = {**ok, "components": comps, "boundaries": [2.5, 7.5], "crosstalk": np.eye(3)}
    CalibrationModel(**three)
    for change, message in (
        ({"boundaries": [7.5, 2.5]}, "boundaries must be strictly ascending"),
        ({"crosstalk": np.eye(2)}, "crosstalk must be k x k"),
        ({"crosstalk": np.eye(3)[:, :2]}, "crosstalk must be k x k"),
        ({"crosstalk": [[1.1, -0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, "crosstalk entries must be non-negative"),
    ):
        with pytest.raises(ValueError, match=message):
            CalibrationModel(**{**three, **change})


WINDOW_RULE = "window must be positive and finite, not "


@pytest.mark.parametrize(
    "change, message",
    [
        ({"detector": None}, "unknown detector None"),
        ({"detector": "C"}, "unknown detector 'C'"),
        ({"window_ps": None}, WINDOW_RULE + "None"),
        ({"window_ps": True}, WINDOW_RULE + "True"),
        ({"window_ps": "8000"}, WINDOW_RULE + "'8000'"),
        ({"window_ps": 0.0}, WINDOW_RULE + "0.0"),
        ({"window_ps": math.inf}, WINDOW_RULE + "inf"),
        ({"detector": ["A"]}, "unknown detector ['A']"),
        ({"window_ps": -1.0}, WINDOW_RULE + "-1.0"),
        ({"window_ps": math.nan}, WINDOW_RULE + "nan"),
    ],
)
def test_model_refuses_a_detector_or_window_that_pairing_refuses(optimal_model, change, message):
    fields = {name: getattr(optimal_model, name) for name in ("mode", "angle", "components", "boundaries", "crosstalk")}
    with pytest.raises(ConfigError, match=re.escape(message)):
        CalibrationModel(**fields, **{"detector": "A", "window_ps": 8000.0, **change})
    with pytest.raises(ConfigError, match=re.escape(message)):
        CalibrationModel.from_dict({**optimal_model.to_dict(), **change})
    # a pair table is refused when it is built, before any calibration work
    pairs = {"rise_units": np.array([100]), "fall_units": np.array([2000]), "multiplicity": np.array([1])}
    with pytest.raises(ConfigError, match=re.escape(message)):
        PairTable(**pairs, **{"detector": "A", "window_ps": 8000.0, **change})


@pytest.mark.parametrize("key", ["detector", "window_ps"])
def test_model_document_names_its_detector_and_window(optimal_model, key):
    data = optimal_model.to_dict()
    del data[key]
    with pytest.raises(ConfigError, match=re.escape(f"invalid calibration (KeyError: '{key}')")):
        CalibrationModel.from_dict(data)
