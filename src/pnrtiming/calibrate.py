"""Cluster calibration on the (rise delay, fall delay) plane.

The timing clusters of successive photon numbers line up along a tilted
band: rise delays shrink with photon number while fall delays grow, and
the shared detector jitter stretches every cluster along the +45 degree
diagonal.  Calibration labels every event with its cluster once, at a
well-separated projection.  A model then projects onto a direction
``coordinate = rise * cos(angle) + fall * sin(angle)``: each cluster is a
Gaussian with its label's projected mean and standard deviation and its
event fraction as weight, decision boundaries sit where neighbouring
weighted densities cross, and the remaining overlap is summarized as a
row-stochastic crosstalk matrix.

Angle search covers every separating line in [0, pi); the stored model
angle may carry an extra pi so that photon number always ascends with the
projected coordinate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter1d
from scipy.signal import find_peaks as _scipy_find_peaks
from scipy.special import ndtr, wofz

from . import textio
from .errors import (
    CalibrationError,
    ConfigError,
    DegenerateOverlapError,
    EmptySampleError,
    InsufficientDataError,
)
from .timetags import DETECTOR_CHANNELS

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

RISING_ONLY = "rising_only"
OPTIMAL = "optimal"
_MODES = (RISING_ONLY, OPTIMAL)

DEFAULT_BIN_WIDTH = 0.5  # ps
_HISTOGRAM2D_BIN = 1.0  # ps, rise and fall
# labelling and the angle scan: candidate-angle step, histogram smoothing
# (sigma in bins), least peak prominence as a fraction of the smoothed maximum
_GRID_STEP_DEG = 2.0
_GRID_ANGLES = np.deg2rad(np.arange(0.0, 180.0, _GRID_STEP_DEG))
_SMOOTHING_SIGMA = 2.0
_MIN_PROMINENCE = 0.05
_FORMAT = "pnrtiming-calibration/1"


@dataclass(frozen=True)
class VoigtComponent:
    """One photon-number cluster profile on the projected axis."""

    center: float
    sigma: float
    gamma: float
    weight: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("weight must lie in (0, 1]")


def voigt_pdf(x, component: VoigtComponent):
    """Normalized Voigt density (Gaussian-Lorentzian convolution) at x.

    Evaluated through the Faddeeva function; the component weight is not
    applied here, so the profile integrates to one.
    """
    x = np.asarray(x, dtype=float)
    z = ((x - component.center) + 1j * component.gamma) / (component.sigma * _SQRT2)
    out = wofz(z).real / (component.sigma * _SQRT2PI)
    return out if out.ndim else float(out)


def mixture_pdf(x, components):
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for comp in components:
        total += comp.weight * voigt_pdf(x, comp)
    return total


@dataclass(eq=False)
class Histogram2D:
    """Counts on a regular (rise, fall) grid; axes carry the bin edges in ps."""

    rise_edges: np.ndarray
    fall_edges: np.ndarray
    counts: np.ndarray

    @property
    def rise_centers(self) -> np.ndarray:
        return 0.5 * (self.rise_edges[:-1] + self.rise_edges[1:])

    @property
    def fall_centers(self) -> np.ndarray:
        return 0.5 * (self.fall_edges[:-1] + self.fall_edges[1:])

    def to_csv(self, path) -> None:
        """Dense grid CSV: first row fall-bin centers, first column rise-bin centers."""
        header = "rise_ps\\fall_ps," + ",".join(f"{v:.6g}" for v in self.fall_centers)
        row = "{:.6g}" + ",{}" * self.counts.shape[1]
        textio.write_csv(path, header, row, self.rise_centers, *self.counts.T)


def _detected_arrays(events) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(events, "detected"):
        rise, fall = events.detected()
    else:
        rise, fall = events
        rise = np.asarray(rise, dtype=float)
        fall = np.asarray(fall, dtype=float)
    if rise.size != fall.size:
        raise ValueError("rise and fall arrays must have equal length")
    return rise, fall


def build_histogram(events) -> Histogram2D:
    """2-D histogram of detected (rise, fall) delays in 1 ps bins, auto-ranged
    with a three-bin margin on each side so no count lands on an outer edge."""
    rise, fall = _detected_arrays(events)
    if rise.size == 0:
        raise EmptySampleError("no detected events to histogram")
    rise_edges = _padded_edges(rise, _HISTOGRAM2D_BIN)
    fall_edges = _padded_edges(fall, _HISTOGRAM2D_BIN)
    counts, _, _ = np.histogram2d(rise, fall, bins=(rise_edges, fall_edges))
    return Histogram2D(rise_edges, fall_edges, counts.astype(np.int64))


def _padded_edges(values: np.ndarray, width: float) -> np.ndarray:
    lo = float(values.min()) - 3.0 * width
    hi = float(values.max()) + 3.0 * width
    n = max(1, int(math.ceil((hi - lo) / width)))
    return lo + width * np.arange(n + 1)


def project(events, angle: float) -> np.ndarray:
    """Project detected events onto a separating-line normal.

    Canonical lines live in [0, pi); angles in [pi, 2*pi) address the same
    line with the coordinate negated, which oriented calibrations use so
    that photon number ascends with the coordinate.  angle 0 reproduces a
    rising-edge-only analysis, pi/2 a falling-edge-only one.
    """
    if not 0.0 <= angle < 2.0 * math.pi:
        raise ValueError("angle must lie in [0, 2*pi)")
    rise, fall = _detected_arrays(events)
    return rise * math.cos(angle) + fall * math.sin(angle)


def histogram_1d(coords: np.ndarray, *, weights=None):
    """(counts, centers, edges) of a regular 1-D histogram with
    DEFAULT_BIN_WIDTH bins and three empty bins of margin on each side.

    ``weights`` gives each coordinate a multiplicity, so distinct values
    with their counts histogram like the expanded sample.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.size == 0:
        raise EmptySampleError("no coordinates to histogram")
    edges = _padded_edges(coords, DEFAULT_BIN_WIDTH)
    # the bin np.histogram picks on these edges: edges[i] <= x < edges[i + 1]
    idx = np.searchsorted(edges, coords, side="right") - 1
    counts = np.bincount(idx, weights=weights, minlength=edges.size - 1)
    return counts.astype(np.int64, copy=False), 0.5 * (edges[:-1] + edges[1:]), edges


def _peak_indices_ranked(counts: np.ndarray):
    """Smooth with a Gaussian kernel of _SMOOTHING_SIGMA bins and keep the local
    maxima whose prominence reaches _MIN_PROMINENCE of the smoothed maximum; returns
    (indices, prominences, smoothed counts)."""
    smoothed = gaussian_filter1d(np.asarray(counts, dtype=float), _SMOOTHING_SIGMA)
    idx, props = _scipy_find_peaks(smoothed, prominence=_MIN_PROMINENCE * max(smoothed.max(), 1e-12))
    return idx, props.get("prominences", np.zeros(idx.size)), smoothed


# ---------------------------------------------------------------------------
# Boundaries and crosstalk


def _gaussian_arrays(components):
    """(center, sigma, weight) arrays of the components; a component with
    gamma > 0 raises ValueError, since boundaries and crosstalk are computed
    in closed form for Gaussian components only."""
    for i, comp in enumerate(components):
        if comp.gamma > 0:
            raise ValueError(
                f"component {i} has gamma = {comp.gamma:g}; boundaries and crosstalk need gamma = 0 (Gaussian)"
            )
    return tuple(np.array([getattr(c, f) for c in components], dtype=float) for f in ("center", "sigma", "weight"))


def _gaussian_pair_boundary(c1, s1, w1, c2, s2, w2) -> float:
    """Crossing of two weighted Gaussian densities between their centers
    (c1 < c2); raises DegenerateOverlapError when they do not cross there.

    At x = c1 + u the log-density difference log(w1 N1) - log(w2 N2) is
    g(u) = A u^2 + B u + C.  It is tested for a sign change in log space, so
    densities far out in each other's tails never underflow; the roots come
    from the cancellation-free form q = -(B - sqrt(D)) / 2, u = q / A or
    C / q, and with equal sigmas (A = 0) C / q is the root of the linear
    equation.
    """
    gap = c2 - c1
    a = c1 + 1e-9 * gap
    b = c2 - 1e-9 * gap
    quad_a = 0.5 * (1.0 / s2**2 - 1.0 / s1**2)
    quad_b = -gap / s2**2
    quad_c = math.log(w1 * s2 / (w2 * s1)) + 0.5 * (gap / s2) ** 2

    def g(x):
        u = x - c1
        return (quad_a * u + quad_b) * u + quad_c

    if g(a) <= 0.0 or g(b) >= 0.0:
        raise DegenerateOverlapError(
            f"weighted densities of components at {c1:.4g} and {c2:.4g} do not cross between the centers"
        )
    # the sign change above guarantees one real root in (a, b)
    q = 0.5 * (math.sqrt(max(quad_b * quad_b - 4.0 * quad_a * quad_c, 0.0)) - quad_b)
    roots = [quad_c / q] if quad_a == 0.0 else [quad_c / q, q / quad_a]
    # the other root, if any, lies outside (a, b), so farther from the middle
    u = min(roots, key=lambda r: abs(r - 0.5 * gap))
    return min(max(c1 + u, a), b)


def _pair_boundaries(center, sigma, weight):
    """(boundaries, fallback pairs) of weighted Gaussian components in
    ascending order of center.

    Each boundary is the crossing of its pair's weighted densities, or their
    midpoint when they do not cross between the centers; such a pair (i,
    i + 1) is listed.
    """
    c, s, w = center.tolist(), sigma.tolist(), weight.tolist()
    bounds, fallback = [], []
    for i in range(len(c) - 1):
        try:
            bounds.append(_gaussian_pair_boundary(c[i], s[i], w[i], c[i + 1], s[i + 1], w[i + 1]))
        except DegenerateOverlapError:
            bounds.append(0.5 * (c[i] + c[i + 1]))
            fallback.append((i, i + 1))
    return np.array(bounds, dtype=float), fallback


def _bucket_masses(center, sigma, boundaries):
    """Row i holds the mass of Gaussian component i in each decision bucket
    (outer buckets are half-open), from ndtr."""
    k = center.size
    z = (boundaries[None, :] - center[:, None]) / sigma[:, None]
    cum = np.concatenate([np.zeros((k, 1)), ndtr(z), np.ones((k, 1))], axis=1)
    return np.diff(cum, axis=1)


def boundaries_with_fallback(components) -> tuple[np.ndarray, list]:
    """Decision boundary between each adjacent pair of Gaussian components:
    where the weighted densities cross between the two centers, which
    minimizes the misassigned probability for that pair, or the midpoint
    when they do not cross there; returns (boundaries, list of fallback
    pairs)."""
    center, sigma, weight = _gaussian_arrays(components)
    if center.size < 2:
        raise ValueError("need at least two components")
    if np.any(np.diff(center) <= 0):
        raise ValueError("components must be ordered by strictly ascending center")
    return _pair_boundaries(center, sigma, weight)


def crosstalk_matrix(components, boundaries) -> np.ndarray:
    """Row-stochastic matrix: row i holds the probability mass of Gaussian
    component i falling into each decision bucket (outer buckets are
    half-open)."""
    center, sigma, _ = _gaussian_arrays(components)
    boundaries = np.asarray(boundaries, dtype=float)
    if boundaries.size != center.size - 1:
        raise ValueError("need exactly k-1 boundaries")
    if np.any(np.diff(boundaries) <= 0):
        raise ValueError("boundaries must be strictly ascending")
    return _bucket_masses(center, sigma, boundaries)


def classify(coords, boundaries) -> np.ndarray:
    """Bucket index per coordinate; a value exactly on a boundary goes to
    the lower bucket."""
    return np.searchsorted(np.asarray(boundaries, dtype=float), np.asarray(coords, dtype=float), side="left")


# ---------------------------------------------------------------------------
# Labelling


def _distinct_pairs(rise, fall):
    """Distinct (rise, fall) pairs, ascending by rise then fall, and how
    many events share each: (pair_rise, pair_fall, multiplicity).

    Exact for any float delays.  Paired delays sit on the 0.1 ps tag grid,
    so a large sample has far fewer distinct pairs than events.
    """
    pairs, multiplicity = np.unique(rise + 1j * fall, return_counts=True)
    return pairs.real.copy(), pairs.imag.copy(), multiplicity


def _reference_scan(pairs, angles):
    """Score candidate angles by (resolved peak count, worst valley depth,
    concentration), lexicographically.

    Depth of the shallowest valley between adjacent peaks, relative to the
    smaller of the two peak heights, measures how cleanly the projection can
    be split into labels.  Concentration sum(p^2) alone would be a trap: it
    is maximized by collapsing all clusters onto each other, which is
    exactly the projection that destroys the labels.  ``pairs`` is the
    output of ``_distinct_pairs``; every score depends on the histogram
    counts only, so it equals the score of the per-event projection.
    """
    pair_rise, pair_fall, multiplicity = pairs
    n_peaks = np.zeros(angles.size, dtype=int)
    depth = np.zeros(angles.size)
    conc = np.zeros(angles.size)
    for i, theta in enumerate(angles):
        counts, _, _ = histogram_1d(project((pair_rise, pair_fall), theta), weights=multiplicity)
        idx, _, smoothed = _peak_indices_ranked(counts)
        p = counts / counts.sum()
        n_peaks[i] = idx.size
        conc[i] = float(np.sum(p * p))
        if idx.size > 1:
            dips = []
            for a, b in zip(idx[:-1], idx[1:]):
                floor = float(smoothed[a:b + 1].min())
                dips.append(1.0 - floor / min(smoothed[a], smoothed[b]))
            depth[i] = min(dips)
    return n_peaks, depth, conc


def _complete_centers(coords: np.ndarray, multiplicity: np.ndarray, init: np.ndarray, k: int) -> np.ndarray:
    """Pad initial centers (at most k of them) so exactly k remain.

    The sample is given as distinct coordinates with their multiplicities.
    Padding splits the most populated cell at the median of its events and
    puts a center at the median of each half, as on the expanded sample.
    """
    centers = sorted(np.asarray(init, dtype=float).tolist())
    while len(centers) < k:
        mids = 0.5 * (np.array(centers[:-1]) + np.array(centers[1:])) if len(centers) > 1 else np.array([])
        labels = np.searchsorted(mids, coords)
        counts = np.bincount(labels, weights=multiplicity, minlength=len(centers))
        j = int(np.argmax(counts))
        order = np.argsort(coords[labels == j])
        cell = coords[labels == j][order]
        reach = np.cumsum(multiplicity[labels == j][order])  # events up to and including each value
        n = int(reach[-1]) if reach.size else 0
        if n < 4:
            # nothing to split; nudge a duplicate next to the heaviest center
            centers.append(centers[j] + 1e-3 * (1 + j))
        else:
            # the middle ranks of the lower and the upper half of the events
            half = n // 2
            ranks = [(half - 1) // 2, half // 2, half + (n - half - 1) // 2, half + (n - half) // 2]
            v = cell[np.searchsorted(reach, ranks, side="right")].tolist()
            centers[j] = 0.5 * (v[0] + v[1])
            centers.append(0.5 * (v[2] + v[3]))
        centers.sort()
    return np.array(centers)


class _LabelledEvents:
    """The distinct (rise, fall) pairs of the detected events, with fixed
    cluster labels from a well-separated projection.

    ``pairs`` is the output of ``_distinct_pairs`` and ``labels`` holds one
    label per pair; an event's label is the label of its pair.  Every
    per-label statistic is weighted by the pair multiplicities, so it is the
    statistic of the events themselves.  Per label the mean delays and their
    centred second moments are kept, from which the projected moments at any
    angle follow in closed form.
    """

    def __init__(self, pairs, labels, k):
        self.pairs = pairs
        self.labels = labels
        self.k = k
        pair_rise, pair_fall, multiplicity = pairs
        self.n_events = int(multiplicity.sum())
        self.counts = np.bincount(labels, weights=multiplicity, minlength=k)
        self.fractions = self.counts / self.n_events

        def per_label(values):
            sums = np.bincount(labels, weights=multiplicity * values, minlength=k)
            # an empty label has no moments (NaN), as an empty mean would
            return np.divide(sums, self.counts, out=np.full(k, np.nan), where=self.counts > 0)

        self.mean_rise = per_label(pair_rise)
        self._mean_fall = per_label(pair_fall)
        # centred: raw second moments would cancel at delays of ~2000 ps
        d_rise = pair_rise - self.mean_rise[labels]
        d_fall = pair_fall - self._mean_fall[labels]
        self._var_rise = per_label(d_rise * d_rise)
        self._var_fall = per_label(d_fall * d_fall)
        self._cov = per_label(d_rise * d_fall)

    def moments(self, angle: float):
        """Per-class mean and standard deviation of the projection at angle.

        With c = cos(angle) and s = sin(angle), a class's projected mean is
        c E[rise] + s E[fall] and its variance c^2 Var(rise) + s^2 Var(fall)
        + 2 c s Cov(rise, fall), so a trial angle costs O(k), not O(N).
        """
        c, s = math.cos(angle), math.sin(angle)
        mean = c * self.mean_rise + s * self._mean_fall
        var = c * c * self._var_rise + s * s * self._var_fall + 2.0 * c * s * self._cov
        return mean, np.sqrt(np.maximum(var, 1e-9))


def _label_events(events, k):
    """Pick a well-separated projection, split it at histogram valleys, and
    label every event with its cluster index (ascending along that axis).

    Every calibration mode starts from this one labelling; it works on the
    distinct (rise, fall) pairs, so the events are collapsed once and the
    angle scan never projects them again.  The reference projection is the
    one with the most peaks among those whose worst valley is at least half
    deep: ranked by peak count alone, a small sample's noise peaks at a
    shallow projection would win.  Returns (_LabelledEvents, reference
    angle).
    """
    rise, fall = _detected_arrays(events)
    if rise.size == 0:
        raise EmptySampleError("no detected events to calibrate")
    pairs = _distinct_pairs(rise, fall)
    pair_rise, pair_fall, multiplicity = pairs
    n_peaks, depth, conc = _reference_scan(pairs, _GRID_ANGLES)
    order = np.lexsort((conc, depth, n_peaks, depth >= 0.5))
    theta_ref = float(_GRID_ANGLES[order[-1]])
    coords = project((pair_rise, pair_fall), theta_ref)
    counts, centers, _ = histogram_1d(coords, weights=multiplicity)
    idx, prom, smoothed = _peak_indices_ranked(counts)
    if idx.size == 0:
        raise CalibrationError("no peaks found at the reference projection")
    if k is None:
        k = int(idx.size)
    if idx.size > k:
        keep = np.sort(np.argsort(prom)[::-1][:k])
        idx = idx[keep]
    if idx.size == k:
        valleys = []
        for a, b in zip(idx[:-1], idx[1:]):
            valleys.append(centers[a + int(np.argmin(smoothed[a : b + 1]))])
        cut = np.array(valleys)
    else:
        # too few resolved peaks: split the most populated cells of the events
        peak_centers = _complete_centers(coords, multiplicity, centers[idx], k)
        cut = 0.5 * (peak_centers[:-1] + peak_centers[1:])
    if rise.size < 50 * k:
        raise InsufficientDataError(f"need at least {50 * k} detected events, got {rise.size}")
    return _LabelledEvents(pairs, np.searchsorted(cut, coords), k), theta_ref


# ---------------------------------------------------------------------------
# Models from the label moments


def _gaussian_model(labelled, line_angle: float):
    """The labels' Gaussian model on the separating line at line_angle in
    [0, pi): (angle, centers, sigmas, weights, boundaries, fallback pairs,
    crosstalk rows), components in ascending order along the axis.

    Component j is one label: its projected mean and standard deviation,
    and its event fraction as weight.  The rising edge arrives earlier for
    higher photon numbers, so the label with the larger mean rise delay is
    the lower photon number; when photon number would descend along the
    axis, the line is taken at line_angle + pi, which negates the
    coordinate.  O(k): the events are not visited.
    """
    mean, _ = labelled.moments(line_angle)
    order = np.argsort(mean)
    descends = labelled.mean_rise[order[0]] < labelled.mean_rise[order[-1]]
    angle = line_angle + math.pi if descends else line_angle
    mean, sigma = labelled.moments(angle)
    order = np.argsort(mean)
    center, sigma, weight = mean[order], sigma[order], labelled.fractions[order]
    bounds, fallback = _pair_boundaries(center, sigma, weight)
    return angle, center, sigma, weight, bounds, fallback, _bucket_masses(center, sigma, bounds)


def _fit_summary(labelled, angle, center, sigma, weight) -> dict:
    """Pearson chi-square of a Gaussian model against the histogram of the
    events projected at angle, over the bins that expect at least 5 events.

    Bin masses are exact Gaussian integrals (ndtr); ndf subtracts the 3k - 1
    estimated parameters (centers, sigmas, weights summing to one) and 1.
    """
    pair_rise, pair_fall, multiplicity = labelled.pairs
    counts, _, edges = histogram_1d(project((pair_rise, pair_fall), angle), weights=multiplicity)
    expected = labelled.n_events * (weight @ _bucket_masses(center, sigma, edges)[:, 1:-1])
    use = expected >= 5.0
    chi2 = float(np.sum((counts[use] - expected[use]) ** 2 / expected[use]))
    ndf = max(int(np.count_nonzero(use)) - (3 * center.size - 1) - 1, 1)
    return {"n_events": labelled.n_events, "chi2": chi2, "ndf": ndf, "chi2_ndf": chi2 / ndf}


def _finalize_model(labelled, line_angle, mode, detector, window_ps, extra):
    """The mode's CalibrationModel: the labels' Gaussian model on the
    separating line at line_angle, with its boundary and fit diagnostics."""
    angle, center, sigma, weight, boundaries, fallback, crosstalk = _gaussian_model(labelled, line_angle)
    components = [
        VoigtComponent(c, s, 0.0, w) for c, s, w in zip(center.tolist(), sigma.tolist(), weight.tolist())
    ]
    diagnostics = {
        "boundary_fallback_pairs": fallback,
        "fit": _fit_summary(labelled, angle, center, sigma, weight),
        **extra,
    }
    return CalibrationModel(
        mode=mode,
        angle=angle,
        components=components,
        boundaries=boundaries,
        crosstalk=crosstalk,
        detector=detector,
        window_ps=window_ps,
        diagnostics=diagnostics,
    )


def _golden_min(f, a: float, b: float, tol: float, evals: list):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    evals.extend([(c, fc), (d, fd)])
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            evals.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            evals.append((d, fd))
    return (c, fc) if fc <= fd else (d, fd)


def _angle_scan(labelled):
    """Separating line of least weighted off-diagonal crosstalk of the
    labels' Gaussian model.

    Scores a grid on [0, pi) that includes the rising-only (0) and
    falling-only (pi/2) axes, then refines the best bracket by golden
    section.  Returns (line angle, objective diagnostics).
    """

    def objective(theta: float) -> float:
        _, _, _, weight, _, _, crosstalk = _gaussian_model(labelled, theta)
        return total_offdiagonal(crosstalk, weight)

    evals = [(float(t), objective(float(t))) for t in _GRID_ANGLES]
    # the grid holds both axes exactly: 0 first, and pi/2 at 90 degrees
    at_zero, at_half_pi = evals[0][1], evals[round(90.0 / _GRID_STEP_DEG)][1]
    best_idx = int(np.argmin([v for _, v in evals]))
    theta_g = evals[best_idx][0]
    step = math.radians(_GRID_STEP_DEG)
    lo = max(theta_g - step, 0.0)
    hi = min(theta_g + step, math.pi - 1e-9)
    _golden_min(objective, lo, hi, 1e-4, evals)
    evals.sort(key=lambda tv: (tv[1], tv[0]))
    theta_star, obj_star = evals[0]
    return theta_star, {
        "objective_at_returned": obj_star,
        "objective_at_zero": at_zero,
        "objective_at_half_pi": at_half_pi,
    }


def _calibrate(events, modes, k, detector, window_ps):
    """Label the events once, then build every mode in ``modes`` from that
    one labelling; returns {mode: CalibrationModel}.  k must be None or an
    integer of at least 1 (ConfigError)."""
    if k is not None and (not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 1):
        raise ConfigError(f"k must be None or an integer of at least 1, not {k!r}")
    labelled, theta_ref = _label_events(events, k)
    if np.any(labelled.counts < 5):
        raise CalibrationError("a cluster label has fewer than 5 events; reduce k or take more data")
    models = {}
    for mode in modes:
        extra = {"reference_angle": theta_ref, "k": labelled.k}
        if mode == OPTIMAL:
            theta, scan = _angle_scan(labelled)
            extra.update(scan, line_angle=theta)
        else:
            theta = 0.0
        models[mode] = _finalize_model(labelled, theta, mode, detector, window_ps, extra)
    return models


# ---------------------------------------------------------------------------
# Calibration model container


@dataclass(eq=False)
class CalibrationModel:
    """Projection angle, cluster components, boundaries, and crosstalk.

    Component index j corresponds to photon number j + 1; the angle is
    oriented so photon number ascends with the projected coordinate (it may
    therefore exceed pi even though separating lines repeat modulo pi).
    ``detector`` is "A", "B" or None, and ``window_ps`` a positive, finite
    pairing window or None.
    """

    mode: str
    angle: float
    components: list
    boundaries: np.ndarray
    crosstalk: np.ndarray
    detector: str | None = None
    window_ps: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not 0.0 <= self.angle < 2.0 * math.pi:
            raise ValueError("angle must lie in [0, 2*pi)")
        if not self.components:
            raise ValueError("at least one component required")
        if self.detector not in (None, *DETECTOR_CHANNELS):
            raise ValueError(f"detector must be one of {sorted(DETECTOR_CHANNELS)} or None, not {self.detector!r}")
        window = self.window_ps
        real = isinstance(window, numbers.Real) and not isinstance(window, bool)
        if window is not None and not (real and 0 < window < math.inf):
            raise ValueError(f"window_ps must be a positive, finite number of ps, not {window!r}")
        self.boundaries = np.asarray(self.boundaries, dtype=float)
        self.crosstalk = np.asarray(self.crosstalk, dtype=float)
        k = len(self.components)
        centers = np.array([c.center for c in self.components])
        if np.any(np.diff(centers) <= 0):
            raise ValueError("components must be ordered by ascending center")
        if self.boundaries.size != k - 1:
            raise ValueError("need exactly k-1 boundaries")
        if self.boundaries.size > 1 and np.any(np.diff(self.boundaries) <= 0):
            raise ValueError("boundaries must be strictly ascending")
        if self.crosstalk.shape != (k, k):
            raise ValueError("crosstalk must be k x k")
        if np.any(self.crosstalk < -1e-12):
            raise ValueError("crosstalk entries must be non-negative")
        if np.any(np.abs(self.crosstalk.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("crosstalk rows must sum to one")

    @property
    def k(self) -> int:
        return len(self.components)

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "mode": self.mode,
            "angle_rad": self.angle,
            "detector": self.detector,
            "window_ps": self.window_ps,
            "components": [
                {"center_ps": c.center, "sigma_ps": c.sigma, "gamma_ps": c.gamma, "weight": c.weight}
                for c in self.components
            ],
            "boundaries_ps": self.boundaries.tolist(),
            "crosstalk": self.crosstalk.tolist(),
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationModel":
        """Model from its ``to_dict`` form; a document of another format, or
        with a missing or invalid entry, raises ConfigError."""
        if not isinstance(data, dict) or data.get("format") != _FORMAT:
            raise ConfigError(f"calibration format must be {_FORMAT!r}")
        try:
            comps = [
                VoigtComponent(d["center_ps"], d["sigma_ps"], d["gamma_ps"], d["weight"])
                for d in data["components"]
            ]
            return cls(
                mode=data["mode"],
                angle=float(data["angle_rad"]),
                components=comps,
                boundaries=np.asarray(data["boundaries_ps"], dtype=float),
                crosstalk=np.asarray(data["crosstalk"], dtype=float),
                detector=data.get("detector"),
                window_ps=data.get("window_ps"),
                diagnostics=data.get("diagnostics", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid calibration ({type(exc).__name__}: {exc})") from exc

    def save_json(self, path) -> None:
        textio.write_json(path, self.to_dict())

    @classmethod
    def load_json(cls, path) -> "CalibrationModel":
        return cls.from_dict(textio.read_json(path))


def calibrate_events(
    events,
    mode: str = OPTIMAL,
    k: int | None = None,
    *,
    detector: str | None = None,
    window_ps: float | None = None,
) -> CalibrationModel:
    """Build one CalibrationModel in the requested mode.

    Events are labelled once at a well-separated reference projection,
    found by scanning the distinct (rise, fall) pairs with their
    multiplicities.  In the optimal mode each trial angle is then scored
    from per-label Gaussian moments, which follow in closed form from the
    label means and (co)variances of rise and fall, so a trial costs O(k)
    and the scan is deterministic.  The scan covers a full grid on [0, pi)
    including the rising-only (0) and falling-only (pi/2) axes and refines
    the best bracket by golden section.  Either mode's model is built from
    the label moments at its angle (0 for rising-only): one Gaussian
    component per label, with no fit to the events.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    return _calibrate(events, (mode,), k, detector, window_ps)[mode]


def calibrate_both(
    events,
    k: int | None = None,
    *,
    detector: str | None = None,
    window_ps: float | None = None,
) -> dict:
    """Rising-only and optimal-angle models from one labelling, so they
    share one component count and their crosstalk matrices compare photon
    class by photon class."""
    fits = _calibrate(events, (OPTIMAL, RISING_ONLY), k, detector, window_ps)
    return {RISING_ONLY: fits[RISING_ONLY], OPTIMAL: fits[OPTIMAL]}


def total_offdiagonal(crosstalk: np.ndarray, weights=None) -> float:
    """Sum of off-diagonal crosstalk mass, optionally weighted per row."""
    x = np.asarray(crosstalk, dtype=float)
    if weights is None:
        weights = np.ones(x.shape[0])
    weights = np.asarray(weights, dtype=float)
    return float(np.sum(x * weights[:, None]) - np.sum(np.diag(x) * weights))


def adjacent_pair_crosstalk(crosstalk: np.ndarray) -> np.ndarray:
    """Symmetric confusion per adjacent photon pair: X[i, i+1] + X[i+1, i]."""
    x = np.asarray(crosstalk, dtype=float)
    k = x.shape[0]
    return np.array([x[i, i + 1] + x[i + 1, i] for i in range(k - 1)])
