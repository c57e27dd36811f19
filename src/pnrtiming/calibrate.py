"""Cluster calibration on the (rise delay, fall delay) plane.

The timing clusters of successive photon numbers line up along a tilted
band: rise delays shrink with photon number while fall delays grow, and
the shared detector jitter stretches every cluster along the +45 degree
diagonal.  Calibration projects events onto a direction
``coordinate = rise * cos(angle) + fall * sin(angle)``, fits a Voigt
mixture to the projected histogram, places decision boundaries where
neighbouring weighted densities cross, and summarizes the remaining
overlap as a row-stochastic crosstalk matrix.

Angle search covers every separating line in [0, pi); the stored model
angle may carry an extra pi so that photon number always ascends with the
projected coordinate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.ndimage import gaussian_filter1d
from scipy.optimize import brentq, minimize
from scipy.signal import find_peaks as _scipy_find_peaks
from scipy.special import ndtr, wofz

from .errors import (
    CalibrationError,
    DegenerateOverlapError,
    EmptySampleError,
    InsufficientDataError,
    MixtureFitError,
)

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# 3-point Gauss-Legendre rule, rescaled for integration across one bin
_GL_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]) / 2.0

RISING_ONLY = "rising_only"
OPTIMAL = "optimal"
_MODES = (RISING_ONLY, OPTIMAL)

DEFAULT_BIN_WIDTH = 0.5  # ps


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
        with open(Path(path), "w", encoding="utf-8") as f:
            f.write("rise_ps\\fall_ps," + ",".join(f"{v:.6g}" for v in self.fall_centers) + "\n")
            for rc, row in zip(self.rise_centers, self.counts):
                f.write(f"{rc:.6g}," + ",".join(str(int(v)) for v in row) + "\n")


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


def build_histogram(events, rise_bin: float = 1.0, fall_bin: float = 1.0) -> Histogram2D:
    """2-D histogram of detected (rise, fall) delays, auto-ranged with a
    three-bin margin on each side so no count lands on an outer edge."""
    if rise_bin <= 0 or fall_bin <= 0:
        raise ValueError("bin widths must be positive")
    rise, fall = _detected_arrays(events)
    if rise.size == 0:
        raise EmptySampleError("no detected events to histogram")
    rise_edges = _padded_edges(rise, rise_bin)
    fall_edges = _padded_edges(fall, fall_bin)
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


def histogram_1d(coords: np.ndarray, bin_width: float = DEFAULT_BIN_WIDTH):
    """(counts, centers, edges) for a padded regular 1-D histogram."""
    coords = np.asarray(coords, dtype=float)
    if coords.size == 0:
        raise EmptySampleError("no coordinates to histogram")
    edges = _padded_edges(coords, bin_width)
    counts, _ = np.histogram(coords, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return counts.astype(np.int64), centers, edges


def find_peaks(counts, centers=None, smoothing_sigma: float = 2.0, min_prominence: float = 0.05):
    """Peak locations of a projected histogram, ascending.

    Smooths with a Gaussian kernel (sigma in bins) and keeps local maxima
    whose prominence reaches min_prominence of the global maximum.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0 or counts.max() <= 0:
        raise CalibrationError("empty histogram, no peaks to find")
    smoothed = gaussian_filter1d(counts, smoothing_sigma)
    idx, props = _scipy_find_peaks(smoothed, prominence=min_prominence * smoothed.max())
    if idx.size == 0:
        raise CalibrationError("no peaks found in projected histogram")
    if centers is None:
        return idx
    return np.asarray(centers, dtype=float)[idx]


def _peak_indices_ranked(counts: np.ndarray, smoothing_sigma: float, min_prominence: float):
    smoothed = gaussian_filter1d(np.asarray(counts, dtype=float), smoothing_sigma)
    idx, props = _scipy_find_peaks(smoothed, prominence=min_prominence * max(smoothed.max(), 1e-12))
    return idx, props.get("prominences", np.zeros(idx.size)), smoothed


# ---------------------------------------------------------------------------
# Mixture fitting


@dataclass(eq=False)
class MixtureFitReport:
    converged: bool
    message: str
    n_events: int
    bin_width: float
    nll: float
    nll_trace: list
    bin_centers: np.ndarray
    observed: np.ndarray
    expected: np.ndarray
    residuals: np.ndarray
    chi2: float
    chi2_ndf: float
    ndf: int
    chi2_min_expected: float = 5.0


def _unpack_params(theta: np.ndarray, k: int, sigma_floor: float, min_gap: float):
    """Map the unconstrained optimizer vector to mixture parameters.

    Widths and gaps live on a log scale so plain (unbounded) Powell can be
    used; its line searches bracket outward from the current point, which
    keeps the likelihood monotone across iterations.  Exponents are clipped
    so a wild trial step cannot overflow.
    """
    expo = np.exp(np.clip(theta[1 : 3 * k], -40.0, 40.0))
    centers = theta[0] + np.concatenate([[0.0], np.cumsum(min_gap + expo[: k - 1])])
    sigmas = sigma_floor + expo[k - 1 : 2 * k - 1]
    gammas = expo[2 * k - 1 : 3 * k - 1]
    logits = np.concatenate([theta[3 * k : 4 * k - 1], [0.0]])
    w = np.exp(logits - logits.max())
    w /= w.sum()
    return centers, sigmas, gammas, w


def _pack_components(theta: np.ndarray, k: int, sigma_floor: float, min_gap: float):
    centers, sigmas, gammas, w = _unpack_params(theta, k, sigma_floor, min_gap)
    return [
        VoigtComponent(float(c), float(s), float(g), float(wt))
        for c, s, g, wt in zip(centers, sigmas, gammas, w)
    ]


def _bin_probabilities(edges_lo, edges_hi, components):
    """Model probability mass per bin via 3-point Gauss-Legendre."""
    mid = 0.5 * (edges_lo + edges_hi)
    half = 0.5 * (edges_hi - edges_lo)
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    dens = mixture_pdf(pts.ravel(), components).reshape(pts.shape)
    return (edges_hi - edges_lo) * (dens @ _GL_WEIGHTS)


def _initial_widths(coords, centers_sorted, sigma_floor):
    """Per-cluster scale and weight seeds from a Voronoi split around the centers."""
    mids = 0.5 * (centers_sorted[:-1] + centers_sorted[1:])
    labels = np.searchsorted(mids, coords)
    sigmas, weights = [], []
    span = float(coords.max() - coords.min()) or 1.0
    for j in range(centers_sorted.size):
        cell = coords[labels == j]
        if cell.size >= 5:
            mad = np.median(np.abs(cell - np.median(cell)))
            s = 1.4826 * float(mad)
        else:
            s = span / (4.0 * centers_sorted.size)
        sigmas.append(min(max(s, sigma_floor * 1.5), span))
        weights.append(max(cell.size / coords.size, 1e-4))
    w = np.array(weights)
    return np.array(sigmas), w / w.sum()


def _complete_centers(coords: np.ndarray, init: np.ndarray, k: int) -> np.ndarray:
    """Trim or pad initial centers so exactly k remain, preserving order."""
    init = np.sort(np.asarray(init, dtype=float))
    if init.size > k:
        return init[np.round(np.linspace(0, init.size - 1, k)).astype(int)]
    centers = list(init)
    mids = None
    while len(centers) < k:
        mids = 0.5 * (np.array(centers[:-1]) + np.array(centers[1:])) if len(centers) > 1 else np.array([])
        labels = np.searchsorted(mids, coords)
        counts = np.bincount(labels, minlength=len(centers))
        j = int(np.argmax(counts))
        cell = np.sort(coords[labels == j])
        if cell.size < 4:
            # nothing to split; nudge a duplicate next to the heaviest center
            centers.append(centers[j] + 1e-3 * (1 + j))
        else:
            lo, hi = cell[: cell.size // 2], cell[cell.size // 2 :]
            centers[j] = float(np.median(lo))
            centers.append(float(np.median(hi)))
        centers.sort()
    return np.array(centers)


def fit_mixture(
    coords,
    k: int,
    init_centers=None,
    *,
    bin_width: float = DEFAULT_BIN_WIDTH,
    maxiter: int = 150,
):
    """Binned maximum-likelihood Voigt mixture fit on projected coordinates.

    Parameters are refined by derivative-free local optimization (Powell)
    from the peak initializer, with centers parametrized as a first center
    plus non-negative gaps so the component order never degenerates.

    Returns (components ordered by center, MixtureFitReport).  Raises
    MixtureFitError with the best parameters seen if the optimizer stops
    without converging.
    """
    coords = np.asarray(coords, dtype=float)
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates must be finite")
    if k < 1:
        raise ValueError("k must be at least 1")
    if coords.size < 50 * k:
        raise InsufficientDataError(f"need at least {50 * k} events to fit {k} components, got {coords.size}")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")

    counts, centers_all, edges = histogram_1d(coords, bin_width)
    occupied = counts > 0
    obs = counts[occupied].astype(float)
    lo = edges[:-1][occupied]
    hi = edges[1:][occupied]

    if init_centers is None:
        init_centers = find_peaks(counts, centers_all)
    init_centers = _complete_centers(coords, np.asarray(init_centers, dtype=float), k)

    sigma_floor = max(bin_width / 4.0, 1e-3)
    min_gap = 1e-3
    sig0, w0 = _initial_widths(coords, init_centers, sigma_floor)
    gam0 = np.maximum(0.05 * sig0, 1e-3)
    logit0 = np.log(w0[:-1] / w0[-1]) if k > 1 else np.empty(0)

    x0 = np.concatenate(
        [
            [init_centers[0]],
            np.log(np.maximum(np.diff(init_centers) - min_gap, min_gap)),
            np.log(np.maximum(sig0 - sigma_floor, 1e-3)),
            np.log(gam0),
            logit0,
        ]
    )

    def nll(theta):
        comps = _pack_components(theta, k, sigma_floor, min_gap)
        probs = _bin_probabilities(lo, hi, comps)
        return -float(obs @ np.log(np.maximum(probs, 1e-300)))

    trace = [nll(x0)]
    result = minimize(
        nll,
        x0,
        method="Powell",
        callback=lambda xk: trace.append(nll(xk)),
        options={"maxiter": maxiter, "maxfev": 40_000, "xtol": 1e-6, "ftol": 1e-9},
    )

    components = _pack_components(result.x, k, sigma_floor, min_gap)
    expected = coords.size * _bin_probabilities(edges[:-1], edges[1:], components)
    residuals = counts - expected
    use = expected >= 5.0
    chi2 = float(np.sum(residuals[use] ** 2 / expected[use]))
    ndf = max(int(np.count_nonzero(use)) - (4 * k - 1) - 1, 1)
    report = MixtureFitReport(
        converged=bool(result.success),
        message=str(result.message),
        n_events=int(coords.size),
        bin_width=float(bin_width),
        nll=float(result.fun),
        nll_trace=[float(v) for v in trace],
        bin_centers=centers_all,
        observed=counts,
        expected=expected,
        residuals=residuals,
        chi2=chi2,
        chi2_ndf=chi2 / ndf,
        ndf=ndf,
    )
    if not result.success:
        raise MixtureFitError(
            f"mixture fit did not converge: {result.message}", components=components, report=report
        )
    return components, report


# ---------------------------------------------------------------------------
# Boundaries and crosstalk


def _check_components(components):
    if len(components) < 2:
        raise ValueError("need at least two components")
    centers = np.array([c.center for c in components])
    if np.any(np.diff(centers) <= 0):
        raise ValueError("components must be ordered by strictly ascending center")


def optimize_boundaries(components) -> np.ndarray:
    """Decision boundary between each adjacent component pair.

    The boundary is the coordinate between the two centers where the
    weighted densities are equal, which minimizes the misassigned
    probability for that pair.  If the densities never cross in the open
    interval the overlap is degenerate and an error is raised.
    """
    _check_components(components)
    bounds = []
    for left, right in zip(components[:-1], components[1:]):
        gap = right.center - left.center

        def diff(x):
            return left.weight * voigt_pdf(x, left) - right.weight * voigt_pdf(x, right)

        a = left.center + 1e-9 * gap
        b = right.center - 1e-9 * gap
        fa, fb = diff(a), diff(b)
        if fa <= 0.0 or fb >= 0.0:
            raise DegenerateOverlapError(
                f"weighted densities of components at {left.center:.4g} and "
                f"{right.center:.4g} do not cross between the centers"
            )
        bounds.append(brentq(diff, a, b, xtol=1e-10 * max(gap, 1.0)))
    out = np.array(bounds)
    if np.any(np.diff(out) <= 0):
        raise CalibrationError("boundaries are not strictly ascending")
    return out


def boundaries_with_fallback(components) -> tuple[np.ndarray, list]:
    """Like optimize_boundaries, but degenerate pairs fall back to the
    midpoint between centers; returns (boundaries, list of fallback pairs)."""
    _check_components(components)
    bounds = []
    fallback = []
    for i, (left, right) in enumerate(zip(components[:-1], components[1:])):
        try:
            bounds.append(float(optimize_boundaries([left, right])[0]))
        except DegenerateOverlapError:
            bounds.append(0.5 * (left.center + right.center))
            fallback.append((i, i + 1))
    return np.array(bounds), fallback


def _voigt_cdf_from_center(comp: VoigtComponent, b: float) -> float:
    """Signed integral of the unit Voigt profile from its center to b.

    The integral is split at fixed multiples of (sigma + gamma) so the
    adaptive quadrature never misses the narrow core when b is far away.
    """
    c = comp.center
    if b == c:
        return 0.0
    scale = comp.sigma + comp.gamma
    knots = [c + s * m * scale for s in (-1.0, 1.0) for m in (1.0, 3.0, 10.0, 30.0, 100.0)]
    lo, hi = (c, b) if b > c else (b, c)
    cuts = sorted({lo, hi, *[x for x in knots if lo < x < hi]})
    total = 0.0
    for a0, b0 in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(lambda x: voigt_pdf(x, comp), a0, b0, epsabs=1e-13, epsrel=1e-11, limit=200)
        total += val
    return total if b > c else -total


def crosstalk_matrix(components, boundaries) -> np.ndarray:
    """Row-stochastic matrix: row i holds the probability mass of component
    i falling into each decision bucket (outer buckets are half-open)."""
    k = len(components)
    boundaries = np.asarray(boundaries, dtype=float)
    if boundaries.size != k - 1:
        raise ValueError("need exactly k-1 boundaries")
    if k == 1:
        return np.array([[1.0]])
    if np.any(np.diff(boundaries) <= 0):
        raise ValueError("boundaries must be strictly ascending")
    rows = []
    for comp in components:
        cdf = np.array([0.5 + _voigt_cdf_from_center(comp, float(b)) for b in boundaries])
        # quadrature error can leave a far-tail CDF a rounding step below its
        # predecessor; a CDF never decreases, and a cell must not go negative
        cum = np.concatenate([[0.0], np.maximum.accumulate(np.clip(cdf, 0.0, 1.0)), [1.0]])
        rows.append(np.diff(cum))
    return np.vstack(rows)


def classify(coords, boundaries) -> np.ndarray:
    """Bucket index per coordinate; a value exactly on a boundary goes to
    the lower bucket."""
    return np.searchsorted(np.asarray(boundaries, dtype=float), np.asarray(coords, dtype=float), side="left")


# ---------------------------------------------------------------------------
# Angle optimization


@dataclass(eq=False)
class AngleSearchResult:
    """Winning angle with its fitted mixture, boundaries, and bookkeeping.

    ``model`` bundles the same fit as a serializable CalibrationModel;
    ``objective`` is the Gaussian-moment crosstalk score minimized by the
    scan (diagnostics carry its values at angles 0 and pi/2).
    """

    angle: float
    components: list
    boundaries: np.ndarray
    crosstalk: np.ndarray
    objective: float
    fit_report: MixtureFitReport
    diagnostics: dict
    model: "CalibrationModel"


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


class _LabelledEvents:
    """Detected events with fixed cluster labels from a well-separated projection.

    ``rise`` and ``fall`` hold the per-event delays, which the mixture fit
    uses.  ``labels`` holds one label per distinct (rise, fall) pair, in the
    order of ``_distinct_pairs``; an event's label is the label of its pair.
    Every per-label statistic is weighted by the pair multiplicities, so it
    is the statistic of the events themselves.  Per label the mean delays
    and their centred second moments are kept, from which the projected
    moments at any angle follow in closed form.
    """

    def __init__(self, rise, fall, pairs, labels, k):
        self.rise = rise
        self.fall = fall
        self.labels = labels
        self.k = k
        pair_rise, pair_fall, multiplicity = pairs
        self.counts = np.bincount(labels, weights=multiplicity, minlength=k)
        self.fractions = self.counts / rise.size

        def per_label(values):
            sums = np.bincount(labels, weights=multiplicity * values, minlength=k)
            # an empty label has no moments (NaN), as an empty mean would
            return np.divide(sums, self.counts, out=np.full(k, np.nan), where=self.counts > 0)

        self._mean_rise = per_label(pair_rise)
        self._mean_fall = per_label(pair_fall)
        # centred: raw second moments would cancel at delays of ~2000 ps
        d_rise = pair_rise - self._mean_rise[labels]
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
        mean = c * self._mean_rise + s * self._mean_fall
        var = c * c * self._var_rise + s * s * self._var_fall + 2.0 * c * s * self._cov
        return mean, np.sqrt(np.maximum(var, 1e-9))


def _gaussian_pair_boundary(c1, s1, w1, c2, s2, w2) -> float:
    """Crossing of two weighted Gaussian densities between their centers
    (c1 < c2), or the midpoint when they do not cross there.

    Equating the log-densities at x = c1 + u gives A u^2 + B u + C = 0;
    the roots come from the cancellation-free form q = -(B - sqrt(D)) / 2,
    u = q / A or C / q, and with equal sigmas (A = 0) C / q is the root of
    the linear equation.
    """

    def diff(x):
        a = w1 / (s1 * _SQRT2PI) * math.exp(-0.5 * ((x - c1) / s1) ** 2)
        b = w2 / (s2 * _SQRT2PI) * math.exp(-0.5 * ((x - c2) / s2) ** 2)
        return a - b

    gap = c2 - c1
    a = c1 + 1e-9 * gap
    b = c2 - 1e-9 * gap
    if diff(a) <= 0 or diff(b) >= 0:
        return 0.5 * (c1 + c2)
    # the sign change above guarantees one real root in (a, b)
    quad_a = 0.5 * (1.0 / s2**2 - 1.0 / s1**2)
    quad_b = -gap / s2**2
    quad_c = math.log(w1 * s2 / (w2 * s1)) + 0.5 * (gap / s2) ** 2
    q = 0.5 * (math.sqrt(max(quad_b * quad_b - 4.0 * quad_a * quad_c, 0.0)) - quad_b)
    roots = [quad_c / q] if quad_a == 0.0 else [quad_c / q, q / quad_a]
    # the other root, if any, lies outside (a, b), so farther from the middle
    u = min(roots, key=lambda r: abs(r - 0.5 * gap))
    return min(max(c1 + u, a), b)


def _gaussian_offdiagonal(mean, sigma, weight) -> float:
    """Total off-diagonal crosstalk of a Gaussian component stack."""
    order = np.argsort(mean)
    c, s, w = mean[order], sigma[order], weight[order]
    k = c.size
    bounds = np.array(
        [_gaussian_pair_boundary(c[i], s[i], w[i], c[i + 1], s[i + 1], w[i + 1]) for i in range(k - 1)]
    )
    if np.any(np.diff(bounds) <= 0):
        bounds = np.sort(bounds)
    z = (bounds[None, :] - c[:, None]) / s[:, None]
    cum = np.concatenate([np.zeros((k, 1)), ndtr(z), np.ones((k, 1))], axis=1)
    rows = np.diff(cum, axis=1)
    return float(np.sum(rows * w[:, None]) - np.sum(np.diag(rows) * w))


def _distinct_pairs(rise, fall):
    """Distinct (rise, fall) pairs, ascending by rise then fall, and how
    many events share each: (pair_rise, pair_fall, multiplicity).

    Exact for any float delays.  Paired delays sit on the 0.1 ps tag grid,
    so a large sample has far fewer distinct pairs than events.
    """
    pairs, multiplicity = np.unique(rise + 1j * fall, return_counts=True)
    return pairs.real.copy(), pairs.imag.copy(), multiplicity


def _pair_histogram(coords, multiplicity, bin_width):
    """(counts, centers) of histogram_1d for a sample given as distinct
    coordinates with their multiplicities: the same bins, and the counts of
    the expanded sample."""
    edges = _padded_edges(coords, bin_width)
    # the bin np.histogram picks on these edges: edges[i] <= x < edges[i + 1]
    idx = np.searchsorted(edges, coords, side="right") - 1
    counts = np.bincount(idx, weights=multiplicity, minlength=edges.size - 1)
    return counts.astype(np.int64), 0.5 * (edges[:-1] + edges[1:])


def _reference_scan(pairs, angles, bin_width, smoothing_sigma, min_prominence):
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
        coords = pair_rise * math.cos(theta) + pair_fall * math.sin(theta)
        counts, _ = _pair_histogram(coords, multiplicity, bin_width)
        idx, _, smoothed = _peak_indices_ranked(counts, smoothing_sigma, min_prominence)
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


def _label_events(events, k, bin_width, smoothing_sigma, min_prominence, grid_step_deg):
    """Pick a well-separated projection, split it at histogram valleys, and
    label every event with its cluster index (ascending along that axis).

    Every calibration mode starts from this one labelling; it works on the
    distinct (rise, fall) pairs, so the events are collapsed once and the
    angle scan never projects them again.  Returns (_LabelledEvents,
    reference angle).
    """
    rise, fall = _detected_arrays(events)
    if rise.size == 0:
        raise EmptySampleError("no detected events to calibrate")
    pairs = _distinct_pairs(rise, fall)
    pair_rise, pair_fall, multiplicity = pairs
    angles = np.deg2rad(np.arange(0.0, 180.0, grid_step_deg))
    n_peaks, depth, conc = _reference_scan(pairs, angles, bin_width, smoothing_sigma, min_prominence)
    order = np.lexsort((conc, depth, n_peaks))
    theta_ref = float(angles[order[-1]])
    coords = pair_rise * math.cos(theta_ref) + pair_fall * math.sin(theta_ref)
    counts, centers = _pair_histogram(coords, multiplicity, bin_width)
    idx, prom, smoothed = _peak_indices_ranked(counts, smoothing_sigma, min_prominence)
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
        peak_centers = _complete_centers(np.repeat(coords, multiplicity), centers[idx], k)
        cut = 0.5 * (peak_centers[:-1] + peak_centers[1:])
    if rise.size < 50 * k:
        raise InsufficientDataError(f"need at least {50 * k} detected events, got {rise.size}")
    return _LabelledEvents(rise, fall, pairs, np.searchsorted(cut, coords), k), theta_ref


def _orientation_flip(rise, coords, labels, k) -> bool:
    """True when photon number descends along the projected axis.

    Physically the rising edge arrives earlier for higher photon numbers,
    so the class with the larger mean rise delay is the lower photon
    number; if that class sits at the upper end of the axis the projection
    (and everything derived from it) must be negated.
    """
    present = [j for j in range(k) if np.count_nonzero(labels == j)]
    if len(present) < 2:
        return False
    first = float(np.mean(rise[labels == present[0]]))
    last = float(np.mean(rise[labels == present[-1]]))
    return first < last


def _finalize_model(labelled, theta_line, mode, bin_width, detector=None, window_ps=None, extra=None):
    """Full Voigt fit at a chosen separating line plus orientation, boundary,
    and crosstalk assembly; returns (CalibrationModel, MixtureFitReport)."""
    angle = float(theta_line % math.pi) if mode == OPTIMAL else 0.0
    coords = labelled.rise * math.cos(angle) + labelled.fall * math.sin(angle)
    mean, _ = labelled.moments(angle)
    components, report = fit_mixture(coords, labelled.k, np.sort(mean), bin_width=bin_width)
    boundaries, fallback = boundaries_with_fallback(components)

    labels = classify(coords, boundaries)
    if _orientation_flip(labelled.rise, coords, labels, labelled.k):
        angle = angle + math.pi
        components = [
            VoigtComponent(-c.center, c.sigma, c.gamma, c.weight) for c in reversed(components)
        ]
        boundaries = -boundaries[::-1]
        fallback = [(labelled.k - 1 - j, labelled.k - 1 - i) for i, j in fallback][::-1]
    crosstalk = crosstalk_matrix(components, boundaries) if labelled.k > 1 else np.array([[1.0]])
    diagnostics = {"boundary_fallback_pairs": fallback, "fit": _report_summary(report)}
    if extra:
        diagnostics.update(extra)
    model = CalibrationModel(
        mode=mode,
        angle=angle,
        components=components,
        boundaries=boundaries,
        crosstalk=crosstalk,
        detector=detector,
        window_ps=window_ps,
        diagnostics=diagnostics,
    )
    return model, report


def _report_summary(report: MixtureFitReport) -> dict:
    return {
        "converged": report.converged,
        "n_events": report.n_events,
        "nll": report.nll,
        "chi2": report.chi2,
        "chi2_ndf": report.chi2_ndf,
        "ndf": report.ndf,
    }


def _angle_scan(labelled, grid_step_deg):
    """Separating line of least Gaussian-moment crosstalk between the labels.

    Scores a grid on [0, pi) that includes the rising-only (0) and
    falling-only (pi/2) axes, then refines the best bracket by golden
    section.  Returns (line angle, objective diagnostics).
    """
    if np.any(labelled.counts < 5):
        raise CalibrationError("a cluster label has fewer than 5 events; reduce k or take more data")

    def objective(theta: float) -> float:
        mean, sigma = labelled.moments(theta)
        return _gaussian_offdiagonal(mean, sigma, labelled.fractions)

    angles = np.deg2rad(np.arange(0.0, 180.0, grid_step_deg))
    if not np.any(np.isclose(angles, math.pi / 2)):
        angles = np.sort(np.append(angles, math.pi / 2))
    evals = [(float(t), objective(float(t))) for t in angles]
    best_idx = int(np.argmin([v for _, v in evals]))
    theta_g = evals[best_idx][0]
    step = math.radians(grid_step_deg)
    lo = max(theta_g - step, 0.0)
    hi = min(theta_g + step, math.pi - 1e-9)
    _golden_min(objective, lo, hi, 1e-4, evals)
    evals.sort(key=lambda tv: (tv[1], tv[0]))
    theta_star, obj_star = evals[0]

    by_angle = dict((round(t, 12), v) for t, v in evals)
    return theta_star, {
        "objective_at_returned": obj_star,
        "objective_at_zero": by_angle[round(0.0, 12)],
        "objective_at_half_pi": by_angle[round(math.pi / 2, 12)],
    }


def _calibrate(
    events, modes, k, bin_width, grid_step_deg, smoothing_sigma, min_prominence, detector, window_ps
):
    """Label the events once, then fit every mode in ``modes`` from that one
    labelling; returns {mode: (CalibrationModel, MixtureFitReport)}."""
    labelled, theta_ref = _label_events(events, k, bin_width, smoothing_sigma, min_prominence, grid_step_deg)
    fits = {}
    for mode in modes:
        if mode == OPTIMAL:
            theta, extra = _angle_scan(labelled, grid_step_deg)
            extra.update(reference_angle=theta_ref, line_angle=theta, k=labelled.k)
        else:
            theta, extra = 0.0, {"reference_angle": theta_ref, "k": labelled.k}
        fits[mode] = _finalize_model(
            labelled, theta, mode, bin_width, detector=detector, window_ps=window_ps, extra=extra
        )
    return fits


def optimize_angle(
    events,
    k: int | None = None,
    *,
    bin_width: float = DEFAULT_BIN_WIDTH,
    grid_step_deg: float = 2.0,
    smoothing_sigma: float = 2.0,
    min_prominence: float = 0.05,
    detector: str | None = None,
    window_ps: float | None = None,
) -> AngleSearchResult:
    """Search separating-line angles for minimal total off-diagonal crosstalk.

    Events are labelled once at a well-separated reference projection,
    found by scanning the distinct (rise, fall) pairs with their
    multiplicities.  Each trial angle is then scored from per-label
    Gaussian moments, which follow in closed form from the label means and
    (co)variances of rise and fall, so a trial costs O(k) and the scan is
    deterministic.  The scan covers a full grid on [0, pi) including the
    rising-only (0) and falling-only (pi/2) axes, refines the best bracket
    by golden section, and finishes with a full Voigt mixture fit of the
    events at the winning angle.
    """
    model, report = _calibrate(
        events, (OPTIMAL,), k, bin_width, grid_step_deg, smoothing_sigma, min_prominence, detector, window_ps
    )[OPTIMAL]
    return AngleSearchResult(
        angle=model.angle,
        components=model.components,
        boundaries=model.boundaries,
        crosstalk=model.crosstalk,
        objective=model.diagnostics["objective_at_returned"],
        fit_report=report,
        diagnostics=model.diagnostics,
        model=model,
    )


# ---------------------------------------------------------------------------
# Calibration model container


@dataclass(eq=False)
class CalibrationModel:
    """Projection angle, fitted components, boundaries, and crosstalk.

    Component index j corresponds to photon number j + 1; the angle is
    oriented so photon number ascends with the projected coordinate (it may
    therefore exceed pi even though separating lines repeat modulo pi).
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
            "format": "pnrtiming-calibration/1",
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
            "diagnostics": _jsonable(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationModel":
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

    def save_json(self, path) -> None:
        with open(Path(path), "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load_json(cls, path) -> "CalibrationModel":
        with open(Path(path), "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def calibrate_events(
    events,
    mode: str = OPTIMAL,
    k: int | None = None,
    *,
    bin_width: float = DEFAULT_BIN_WIDTH,
    grid_step_deg: float = 2.0,
    smoothing_sigma: float = 2.0,
    min_prominence: float = 0.05,
    detector: str | None = None,
    window_ps: float | None = None,
) -> CalibrationModel:
    """Build one CalibrationModel in the requested mode."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    model, _ = _calibrate(
        events, (mode,), k, bin_width, grid_step_deg, smoothing_sigma, min_prominence, detector, window_ps
    )[mode]
    return model


def calibrate_both(
    events,
    k: int | None = None,
    *,
    bin_width: float = DEFAULT_BIN_WIDTH,
    grid_step_deg: float = 2.0,
    smoothing_sigma: float = 2.0,
    min_prominence: float = 0.05,
    detector: str | None = None,
    window_ps: float | None = None,
) -> dict:
    """Rising-only and optimal-angle models from one labelling, so they
    share one component count and their crosstalk matrices compare photon
    class by photon class."""
    fits = _calibrate(
        events, (OPTIMAL, RISING_ONLY), k, bin_width, grid_step_deg, smoothing_sigma, min_prominence,
        detector, window_ps,
    )
    return {RISING_ONLY: fits[RISING_ONLY][0], OPTIMAL: fits[OPTIMAL][0]}


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
