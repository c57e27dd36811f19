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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import textio
from .errors import CalibrationError, ConfigError
from .photostat import MAX_PHOTON_NUMBER
from .timetags import UNITS_PER_PS, _check_pairing

# scipy.special is imported inside the functions that call it, so importing
# the package loads numpy and no scipy module

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

RISING_ONLY = "rising_only"
OPTIMAL = "optimal"
_MODES = (RISING_ONLY, OPTIMAL)

DEFAULT_BIN_WIDTH = 0.5  # ps
# labelling and the angle scan: candidate-angle step, histogram smoothing
# (sigma in bins), least peak prominence as a fraction of the smoothed maximum
_GRID_STEP_DEG = 2.0
_GRID_ANGLES = np.deg2rad(np.arange(0.0, 180.0, _GRID_STEP_DEG))
_SMOOTHING_SIGMA = 2.0
_MIN_PROMINENCE = 0.05
# reference scan: at most this many threads, since its peak search runs in
# Python under the GIL; and pairs per block of histogram_1d's work, since what
# a scan thread allocates stays with its malloc arena after the scan, where the
# caller cannot reuse it (blocks of 512 KB keep that to a few MB per thread)
_MAX_SCAN_WORKERS = 4
_SCAN_BLOCK = 65536
_FORMAT = "pnrtiming-calibration/1"


@dataclass(frozen=True)
class VoigtComponent:
    """One photon-number cluster profile on the projected axis."""

    center: float
    sigma: float
    gamma: float
    weight: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        # chained comparisons, which NaN fails, so a NaN field is refused too
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be non-negative and finite")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("weight must lie in (0, 1]")


def voigt_pdf(x, component: VoigtComponent):
    """Normalized Voigt density (Gaussian-Lorentzian convolution) at x.

    Evaluated through the Faddeeva function; the component weight is not
    applied here, so the profile integrates to one.
    """
    from scipy.special import wofz

    x = np.asarray(x, dtype=float)
    z = ((x - component.center) + 1j * component.gamma) / (component.sigma * _SQRT2)
    out = wofz(z).real / (component.sigma * _SQRT2PI)
    return out if out.ndim else float(out)


def distinct_pairs(events):
    """The calibration sample of a pair_edges result: its distinct (rise,
    fall) delay pairs in int64 tag units (0.1 ps), ascending by rise then
    fall, and how many detections share each, as (rise_units, fall_units,
    multiplicity).  No detections raise CalibrationError.

    A large sample has far fewer distinct pairs than detections.  Each pair
    gets the int64 key (R - R_min) * fall_span + (F - F_min), and the keys
    ascend with (R, F).  Only windows above ~3e8 ps can make the spans'
    product reach 2**63; those pairs are collapsed as rows instead, in the
    same order.
    """
    r, f = events.rise_units, events.fall_units
    if r.size == 0:
        raise CalibrationError("no detected events to calibrate")
    r_min, f_min = int(r.min()), int(f.min())
    fall_span = int(f.max()) - f_min + 1
    if (int(r.max()) - r_min + 1) * fall_span < 2**63:
        keys, multiplicity = np.unique((r - r_min) * fall_span + (f - f_min), return_counts=True)
        return keys // fall_span + r_min, keys % fall_span + f_min, multiplicity
    rows, multiplicity = np.unique(np.stack((r, f), axis=1), axis=0, return_counts=True)
    return rows[:, 0], rows[:, 1], multiplicity


def pairs_in_ps(table):
    """A distinct_pairs table with its delays in ps: (rise, fall, multiplicity)."""
    rise_units, fall_units, multiplicity = table
    return rise_units / UNITS_PER_PS, fall_units / UNITS_PER_PS, multiplicity


def _padded_edges(lo: float, hi: float, width: float) -> np.ndarray:
    """Edges of bins of the given width from lo to hi, with three bins of
    margin on each side."""
    lo = float(lo) - 3.0 * width
    hi = float(hi) + 3.0 * width
    n = max(1, int(math.ceil((hi - lo) / width)))
    return lo + width * np.arange(n + 1)


def project(events, angle: float) -> np.ndarray:
    """Project the detected events of a pair_edges result onto a
    separating-line normal.

    Canonical lines live in [0, pi); angles in [pi, 2*pi) address the same
    line with the coordinate negated, which oriented calibrations use so
    that photon number ascends with the coordinate.  angle 0 reproduces a
    rising-edge-only analysis, pi/2 a falling-edge-only one.
    """
    if not 0.0 <= angle < 2.0 * math.pi:
        raise ValueError("angle must lie in [0, 2*pi)")
    rise, fall = events.detected()
    return rise * math.cos(angle) + fall * math.sin(angle)


def histogram_1d(pairs, angle: float):
    """(counts, centers, edges) of the detections projected at angle, from
    their distinct pairs in ps (``pairs_in_ps``): each pair's coordinate
    rise * cos(angle) + fall * sin(angle) counts with its multiplicity, in
    DEFAULT_BIN_WIDTH bins with three empty bins of margin on each side.

    The pairs are projected in blocks of _SCAN_BLOCK, one pass for the range
    and one for the counts, and are not checked again.
    """
    rise, fall, multiplicity = pairs
    if rise.size == 0:
        raise CalibrationError("no coordinates to histogram")
    c, s = math.cos(angle), math.sin(angle)
    blocks = [slice(i, i + _SCAN_BLOCK) for i in range(0, rise.size, _SCAN_BLOCK)]
    lo, hi = math.inf, -math.inf
    for block in blocks:
        x = rise[block] * c + fall[block] * s
        lo, hi = min(lo, x.min()), max(hi, x.max())
    edges = _padded_edges(lo, hi, DEFAULT_BIN_WIDTH)
    counts = np.zeros(edges.size - 1)
    for block in blocks:
        x = rise[block] * c + fall[block] * s
        counts += np.bincount(_bin_index(x, edges), weights=multiplicity[block], minlength=counts.size)
    # integer sums far below 2**53, so exact in any order
    return counts.astype(np.int64), 0.5 * (edges[:-1] + edges[1:]), edges


def _bin_index(coords: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each coordinate on histogram_1d's edges: the bin np.histogram
    picks, edges[i] <= x < edges[i + 1]."""
    # the floor index is off by at most one, which one comparison each side mends
    idx = np.floor((coords - edges[0]) / DEFAULT_BIN_WIDTH).astype(np.intp)
    idx -= coords < edges[idx]
    idx += coords >= edges[1:][idx]
    return idx


def _smoothed(x: np.ndarray) -> np.ndarray:
    """x smoothed by a Gaussian kernel of _SMOOTHING_SIGMA bins, bit for bit
    scipy.ndimage.gaussian_filter1d(x, _SMOOTHING_SIGMA): its weights, its
    radius int(4 sigma + 0.5), its "reflect" edges (numpy's "symmetric", which
    wraps again when x is shorter than the radius) and its summation order."""
    radius = int(4.0 * _SMOOTHING_SIGMA + 0.5)
    offsets = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (_SMOOTHING_SIGMA * _SMOOTHING_SIGMA) * offsets**2)
    weights = phi / phi.sum()
    padded = np.pad(x, radius, mode="symmetric")
    n = x.size
    # the centre term, then (x[i - j] + x[i + j]) * w[j] for j from the radius
    # down to 1: summed in another order, the last bit differs in most cases
    out = x * weights[radius]
    for j in range(radius, 0, -1):
        out += (padded[radius - j : radius - j + n] + padded[radius + j : radius + j + n]) * weights[radius + j]
    return out


def _peak_indices_ranked(counts: np.ndarray):
    """Smooth with a Gaussian kernel of _SMOOTHING_SIGMA bins and keep the local
    maxima whose prominence reaches _MIN_PROMINENCE of the smoothed maximum; returns
    (indices, smoothed counts)."""
    smoothed = _smoothed(np.asarray(counts, dtype=float))
    idx, _ = _prominent_peaks(smoothed, _MIN_PROMINENCE * max(smoothed.max(), 1e-12))
    return idx, smoothed


def _prominent_peaks(x: np.ndarray, least: float):
    """(indices, prominences) of the peaks of x whose prominence is at least
    ``least``: scipy.signal.find_peaks(x, prominence=least) with no ``wlen``.

    A peak is an interior run of equal samples whose neighbours on both sides
    are strictly lower, placed at the run's middle sample (start + end) // 2.
    Its prominence is its height above the higher of the two minima taken from
    the peak outward, up to the first strictly higher sample or the array end.
    """
    # runs of equal samples: first index, last index and value of each
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.append(starts[1:], x.size) - 1
    level = x[starts]
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks, prominences = [], []
    for j in top.tolist():
        height = level[j]
        higher = np.flatnonzero(level[:j] > height)
        left = level[(higher[-1] + 1 if higher.size else 0) : j].min()
        higher = np.flatnonzero(level[j + 1 :] > height)
        right = level[j + 1 : (j + 1 + higher[0] if higher.size else level.size)].min()
        prominence = height - max(left, right)
        if prominence >= least:
            peaks.append((starts[j] + ends[j]) // 2)
            prominences.append(prominence)
    return np.array(peaks, dtype=np.intp), np.array(prominences, dtype=float)


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


def _gaussian_pair_boundary(c1, s1, w1, c2, s2, w2) -> float | None:
    """Crossing of two weighted Gaussian densities between their centers
    (c1 < c2), or None when they do not cross there.

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
        return None
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
        bound = _gaussian_pair_boundary(c[i], s[i], w[i], c[i + 1], s[i + 1], w[i + 1])
        if bound is None:
            bound = 0.5 * (c[i] + c[i + 1])
            fallback.append((i, i + 1))
        bounds.append(bound)
    return np.array(bounds, dtype=float), fallback


def _bucket_masses(center, sigma, boundaries):
    """Row i holds the mass of Gaussian component i in each decision bucket
    (outer buckets are half-open), from ndtr."""
    from scipy.special import ndtr

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


def _valley(smoothed: np.ndarray, a: int, b: int) -> int:
    """Index of the lowest sample of smoothed[a..b], the first on a tie."""
    return a + int(np.argmin(smoothed[a : b + 1]))


def _scan_workers() -> int:
    """Threads for the reference scan: the CPUs this process may run on, at
    most _MAX_SCAN_WORKERS."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        n = os.cpu_count() or 1
    return min(n, _MAX_SCAN_WORKERS)


def _reference_score(pairs, theta: float):
    """(resolved peak count, worst valley depth, concentration) of the
    distinct pairs projected at theta."""
    counts, _, _ = histogram_1d(pairs, theta)
    idx, smoothed = _peak_indices_ranked(counts)
    p = counts / counts.sum()
    depth = 0.0
    if idx.size > 1:
        depth = min(
            1.0 - smoothed[_valley(smoothed, a, b)] / min(smoothed[a], smoothed[b]) for a, b in zip(idx[:-1], idx[1:])
        )
    return idx.size, depth, float(np.sum(p * p))


def _reference_scan(pairs, angles):
    """Score candidate angles by (resolved peak count, worst valley depth,
    concentration), lexicographically.

    Depth of the shallowest valley between adjacent peaks, relative to the
    smaller of the two peak heights, measures how cleanly the projection can
    be split into labels.  Concentration sum(p^2) alone would be a trap: it
    is maximized by collapsing all clusters onto each other, which is
    exactly the projection that destroys the labels.  ``pairs`` holds the
    distinct pairs in ps (``pairs_in_ps``); every score depends on the
    histogram counts only, so it equals the score of the per-event
    projection.

    The angles are scored on a pool of _scan_workers() threads (numpy
    releases the GIL in the heavy calls); each score depends on its angle
    alone and the results are gathered in angle order, so the scores do not
    depend on the thread count.
    """
    with ThreadPoolExecutor(_scan_workers()) as pool:
        scores = list(pool.map(lambda theta: _reference_score(pairs, theta), angles.tolist()))
    n_peaks, depth, conc = zip(*scores)
    return np.array(n_peaks, dtype=int), np.array(depth, dtype=float), np.array(conc, dtype=float)


class _LabelledEvents:
    """The distinct (rise, fall) pairs of the detected events, with fixed
    cluster labels from a well-separated projection.

    ``pairs`` holds the distinct pairs in ps (``pairs_in_ps``) and
    ``labels`` one label per pair; an event's label is the label of its
    pair.  Every per-label statistic is weighted by the pair multiplicities,
    so it is the statistic of the events themselves.  Per label the mean
    delays and their centred second moments are kept, from which the
    projected moments at any angle follow in closed form.
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


def _label_events(events):
    """Pick a well-separated projection, split it at histogram valleys, and
    label every event with its cluster index (ascending along that axis):
    one label per resolved peak, so the peak count is the component count.

    Every calibration mode starts from this one labelling; it works on the
    distinct (rise, fall) pairs, so the events are collapsed once (on
    integer keys, see ``distinct_pairs``) and the angle scan never
    projects them again.  The reference angles are scored on a small thread
    pool, with the same result at any thread count.  The reference
    projection is the one with the most peaks among those whose worst valley
    is at least half deep: ranked by peak count alone, a small sample's
    noise peaks at a shallow projection would win.  Returns
    (_LabelledEvents, reference angle).
    """
    pairs = pairs_in_ps(distinct_pairs(events))
    n_events = events.n_detections
    pair_rise, pair_fall, _ = pairs
    n_peaks, depth, conc = _reference_scan(pairs, _GRID_ANGLES)
    order = np.lexsort((conc, depth, n_peaks, depth >= 0.5))
    theta_ref = float(_GRID_ANGLES[order[-1]])
    coords = pair_rise * math.cos(theta_ref) + pair_fall * math.sin(theta_ref)
    counts, centers, _ = histogram_1d(pairs, theta_ref)
    idx, smoothed = _peak_indices_ranked(counts)
    if idx.size == 0:
        raise CalibrationError("no peaks found at the reference projection")
    k = int(idx.size)
    if k > MAX_PHOTON_NUMBER:
        raise CalibrationError(f"{k} peaks resolved; a calibration holds at most {MAX_PHOTON_NUMBER}")
    cut = centers[[_valley(smoothed, a, b) for a, b in zip(idx[:-1], idx[1:])]]
    if n_events < 50 * k:
        raise CalibrationError(f"need at least {50 * k} detected events, got {n_events}")
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


def expected_counts(n_events: int, components, edges) -> np.ndarray:
    """Expected events per bin between ``edges`` for n_events drawn from the
    weighted Gaussian components: exact bin masses (ndtr), not the density at
    the bin centers.  A component with gamma > 0 raises ValueError."""
    center, sigma, weight = _gaussian_arrays(components)
    return n_events * (weight @ _bucket_masses(center, sigma, edges)[:, 1:-1])


def fitted_histogram(pairs, angle: float, components):
    """(counts, centers, expected) of a Gaussian model at angle: histogram_1d
    of the distinct pairs in ps, and expected_counts over its bins for as
    many events as the pairs stand for."""
    counts, centers, edges = histogram_1d(pairs, angle)
    return counts, centers, expected_counts(int(pairs[2].sum()), components, edges)


def _fit_summary(labelled, angle, components) -> dict:
    """Pearson chi-square of a Gaussian model against the histogram of the
    events projected at angle, over the bins where expected_counts gives at
    least 5 events; ndf subtracts the 3k - 1 estimated parameters (centers,
    sigmas, weights summing to one) and 1."""
    counts, _, expected = fitted_histogram(labelled.pairs, angle, components)
    use = expected >= 5.0
    chi2 = float(np.sum((counts[use] - expected[use]) ** 2 / expected[use]))
    ndf = max(int(np.count_nonzero(use)) - (3 * len(components) - 1) - 1, 1)
    return {"n_events": labelled.n_events, "chi2": chi2, "ndf": ndf, "chi2_ndf": chi2 / ndf}


def _finalize_model(labelled, line_angle, mode, events, extra):
    """The mode's CalibrationModel: the labels' Gaussian model on the
    separating line at line_angle, with its boundary and fit diagnostics,
    for the detector and window the events were paired with."""
    angle, center, sigma, weight, boundaries, fallback, crosstalk = _gaussian_model(labelled, line_angle)
    components = [
        VoigtComponent(c, s, 0.0, w) for c, s, w in zip(center.tolist(), sigma.tolist(), weight.tolist())
    ]
    diagnostics = {
        "boundary_fallback_pairs": fallback,
        "fit": _fit_summary(labelled, angle, components),
        **extra,
    }
    return CalibrationModel(
        mode=mode,
        angle=angle,
        components=components,
        boundaries=boundaries,
        crosstalk=crosstalk,
        detector=events.detector,
        window_ps=events.window_ps,
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


# ---------------------------------------------------------------------------
# Calibration model container


@dataclass(eq=False)
class CalibrationModel:
    """Projection angle, cluster components, boundaries, and crosstalk.

    Component index j corresponds to photon number j + 1; the angle is
    oriented so photon number ascends with the projected coordinate (it may
    therefore exceed pi even though separating lines repeat modulo pi).
    ``detector`` and ``window_ps`` are the pairing of the events it was
    calibrated from, and decode pairs a stream with them; one that
    pair_edges refuses raises ConfigError.
    """

    mode: str
    angle: float
    components: list
    boundaries: np.ndarray
    crosstalk: np.ndarray
    detector: str
    window_ps: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not 0.0 <= self.angle < 2.0 * math.pi:
            raise ValueError("angle must lie in [0, 2*pi)")
        k = len(self.components)
        if not 1 <= k <= MAX_PHOTON_NUMBER:
            raise ValueError(f"need 1 to {MAX_PHOTON_NUMBER} components, one per photon number, not {k}")
        _check_pairing(self.detector, self.window_ps)
        self.boundaries = np.asarray(self.boundaries, dtype=float)
        self.crosstalk = np.asarray(self.crosstalk, dtype=float)
        centers = np.array([c.center for c in self.components])
        if np.any(np.diff(centers) <= 0):
            raise ValueError("components must be ordered by ascending center")
        if self.boundaries.size != k - 1:
            raise ValueError("need exactly k-1 boundaries")
        if not np.all(np.isfinite(self.boundaries)):
            raise ValueError("boundaries must be finite")
        if self.boundaries.size > 1 and np.any(np.diff(self.boundaries) <= 0):
            raise ValueError("boundaries must be strictly ascending")
        if self.crosstalk.shape != (k, k):
            raise ValueError("crosstalk must be k x k")
        if not np.all(np.isfinite(self.crosstalk)):
            raise ValueError("crosstalk entries must be finite")
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
                detector=data["detector"],
                window_ps=data["window_ps"],
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
    *,
    detector: str | None = None,
    window_ps: float | None = None,
) -> CalibrationModel:
    """The model of ``calibrate_both(events)`` in the requested mode; an
    unknown mode raises ValueError."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    return calibrate_both(events, detector=detector, window_ps=window_ps)[mode]


def calibrate_both(
    events,
    *,
    detector: str | None = None,
    window_ps: float | None = None,
) -> dict:
    """Rising-only and optimal-angle CalibrationModels of a pair_edges
    result, {mode: model}, from one labelling, so they share one component
    count and their crosstalk matrices compare photon class by photon class.

    Events are labelled once at a well-separated reference projection,
    found by scanning the distinct (rise, fall) pairs with their
    multiplicities; a model has one component per peak resolved there.
    For the optimal model each trial angle is then scored from per-label
    Gaussian moments, which follow in closed form from the label means and
    (co)variances of rise and fall, so a trial costs O(k) and the scan is
    deterministic.  The scan covers a full grid on [0, pi) including the
    rising-only (0) and falling-only (pi/2) axes and refines the best
    bracket by golden section.  Either model is built from the label
    moments at its angle (0 for rising-only): one Gaussian component per
    label, with no fit to the events.

    Both models carry the events' detector and window.  ``detector`` and
    ``window_ps`` may only repeat them: any other value raises ConfigError.
    """
    for name, value in (("detector", detector), ("window_ps", window_ps)):
        if value is not None and value != getattr(events, name):
            raise ConfigError(f"{name} {value!r} is not the events' {name}, {getattr(events, name)!r}")
    labelled, theta_ref = _label_events(events)
    if np.any(labelled.counts < 5):
        raise CalibrationError("a cluster label has fewer than 5 events; take more data")
    extra = {"reference_angle": theta_ref, "k": labelled.k}
    theta, scan = _angle_scan(labelled)
    return {
        RISING_ONLY: _finalize_model(labelled, 0.0, RISING_ONLY, events, extra),
        OPTIMAL: _finalize_model(labelled, theta, OPTIMAL, events, {**extra, **scan, "line_angle": theta}),
    }


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
