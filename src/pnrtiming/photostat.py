"""Photon-number statistics from decoded records.

Covers the single-channel truncated-Poisson fit, joint photon-number
distributions across two detectors sharing a trigger stream, Klyshko-style
efficiency estimates from split pairs, and the coincidence-suppression
contrast between interfering and split-pair configurations.

The module needs numpy only: the Poisson pmf is scipy.stats.poisson.pmf's
formula on a transcription of cephes' ``lgam``, bit for bit, and the upper
tail is a finite sum that agrees with scipy.special.pdtrc within 1e-12
relative, underflow to 0 included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import textio
from .errors import ConfigError, DataError, InsufficientDataError

# the largest photon number a record set, .pnrec, a truth CSV and a calibration hold
MAX_PHOTON_NUMBER = 255

_BRENTQ_RTOL = 4.0 * float(np.finfo(float).eps)


def _divide(num: float, den: float) -> float:
    """num / den as C divides doubles: a zero den gives +-inf, or NaN for a
    zero or NaN num, where Python raises ZeroDivisionError."""
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _BRENTQ_RTOL, maxiter: int = 100) -> float:
    """Root of f in [a, b], step for step scipy.optimize.brentq (its
    Zeros/brentq.c, with the same defaults), so it returns the same double.

    Its steps divide as C does, so a step whose denominator is 0 gets an
    inf or NaN trial step, and bisects.  A bracket without a sign change, a
    NaN value of f, xtol <= 0 or rtol below 4 eps raises ValueError; no
    convergence within maxiter iterations raises RuntimeError.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_RTOL:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _divide(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _divide(fpre - fcur, xpre - xcur)
                dblk = _divide(fblk - fcur, xblk - xcur)
                stry = _divide(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


@dataclass(eq=False)
class NumberDistribution:
    """Counts of decoded photon numbers 0..N for one channel."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if np.issubdtype(arr.dtype, np.integer) or arr.dtype == bool:
            arr = arr.astype(np.int64)
        else:
            # real-valued counts are allowed so exactly known expected
            # frequencies can be fed back through the fit
            arr = arr.astype(np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError("counts must be finite")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        self.counts = arr

    @classmethod
    def from_records(cls, records) -> "NumberDistribution":
        """Counts of the records' photon numbers 0..max."""
        return cls(records.class_counts())

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def probabilities(self) -> np.ndarray:
        return self.counts / max(self.total, 1)

    def folded(self, tail_from: int) -> np.ndarray:
        """Counts with every photon number >= tail_from summed into one
        final category; result has tail_from + 1 entries.  A tail_from
        below 0, or above both MAX_PHOTON_NUMBER and the largest photon
        number counted, raises ConfigError."""
        if tail_from < 0:
            raise ConfigError(f"the fold must start at 0 or above, not {tail_from}")
        limit = max(MAX_PHOTON_NUMBER, self.counts.size - 1)
        if tail_from > limit:
            raise ConfigError(f"the fold must start at {limit} or below, not {tail_from}")
        head = self.counts[:tail_from]
        if head.size < tail_from:
            head = np.concatenate([head, np.zeros(tail_from - head.size, dtype=head.dtype)])
        tail = self.counts[tail_from:].sum()
        return np.concatenate([head, [tail]])

    def to_csv(self, path) -> None:
        n = np.arange(self.counts.size)
        textio.write_csv(path, "n,count,probability", "{},{},{:.9g}", n, self.counts, self.probabilities())


# cephes' lgam (scipy.special.gammaln): its Stirling-series coefficients,
# log(sqrt(2 pi)), and igam's underflow limit log(DBL_MAX) and MACHEP
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178
_MAXLOG = 7.09782712893383996843e2
_MACHEP = 1.11022302462515654042e-16


def _lgam(x: int) -> float:
    """log Gamma(x) at an integer x >= 1, as cephes' lgam computes it (so
    bit for bit scipy.special.gammaln): the exact product below 13, the
    Stirling series above."""
    if x < 13:
        z = 1.0
        for u in range(x - 1, 1, -1):
            z *= u
        return math.log(z)
    return (x - 0.5) * math.log(x) - x + _LS2PI + _stirling(x)


def _stirling(x: int) -> float:
    """lgam(x) - ((x - 0.5) log x - x + log sqrt(2 pi)) for an integer x >= 13:
    cephes' Stirling series, 0 above 1e8."""
    if x > 1e8:
        return 0.0
    p = 1.0 / (x * x)
    if x >= 1000:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    else:
        series = _LGAM_A[0]
        for a in _LGAM_A[1:]:
            series = series * p + a
    return series / x


def _log1pmx(x: float) -> float:
    """log(1 + x) - x, as cephes' log1pmx: by its power series for |x| < 1/2,
    so that no two terms of similar size cancel."""
    if abs(x) >= 0.5:
        return math.log1p(x) - x
    power, total = x, 0.0
    for n in range(2, 500):
        power *= -x
        term = power / n
        total += term
        if abs(term) < _MACHEP * abs(total):
            break
    return total


def _log(mu: float) -> float:
    return math.log(mu) if mu > 0 else -math.inf


def _poisson_pmf(k, mu: float):
    """Poisson pmf at integers k >= 0 (scalar or array) and a scalar mu >= 0,
    bit for bit scipy.stats.poisson.pmf: exp(xlogy(k, mu) - gammaln(k + 1) - mu)."""
    if isinstance(k, (int, np.integer)):  # the fit's hazard, in Python floats for speed
        return np.exp((k * _log(mu) if k else 0.0) - _lgam(k + 1) - mu)
    k = np.asarray(k)
    xlogy = np.multiply(k, _log(mu), out=np.zeros(k.shape), where=k != 0)
    log_factorial = np.fromiter((_lgam(j + 1) for j in k.ravel().tolist()), float, k.size).reshape(k.shape)
    return np.exp(xlogy - log_factorial - mu)


def _poisson_sf(k: int, mu: float) -> float:
    """P(X > k) for X ~ Poisson(mu), within 1e-12 relative of
    scipy.special.pdtrc(k, mu), and 0 where pdtrc underflows to 0.

    Both sums start from pmf(k + 1) = exp(log_fac) / (k + 1).  Below mu = k + 1
    it is cephes' igam series, pmf(k + 1) (1 + mu/(k + 2) + mu^2/((k + 2)(k + 3))
    + ...); above, 1 - sum_{j<=k} pmf(j), with the sum run down from
    pmf(k) = pmf(k + 1) (k + 1)/mu as pmf(k) (1 + k/mu + k(k - 1)/mu^2 + ...).
    The difference is at least about 1/2 there, so it loses no digits that
    matter.  Each sum stops at the first term below MACHEP of its total.
    Within 0.4 (k + 1) of mu = k + 1 the log of the prefactor is taken through
    log1pmx, as cephes' igam_fac takes it, which keeps the tail within about
    1e-14 of pdtrc there.
    """
    a = k + 1
    if a >= 13 and abs(mu - a) <= 0.4 * a:
        # a log(mu/a) - (mu - a) is a log1pmx; a log(mu) - mu - lgam(a) would
        # cancel terms of size a
        log_fac = a * _log1pmx((mu - a) / a) - _stirling(a) + 0.5 * math.log(a) - _LS2PI
    else:
        log_fac = a * _log(mu) - mu - _lgam(a)  # log(a pmf(a))
    if mu < a and log_fac < -_MAXLOG:
        return 0.0
    c = total = 1.0
    if mu < a:
        r = float(a)
        while c / total > _MACHEP:
            r += 1.0
            c *= mu / r
            total += c
        return total * math.exp(log_fac) / a
    for j in range(k, 0, -1):
        c *= j / mu
        total += c
        if not c / total > _MACHEP:
            break
    return 1.0 - total * math.exp(log_fac) / mu


def _category_probs(mu: float, tail_from: int) -> np.ndarray:
    head = _poisson_pmf(np.arange(tail_from), mu)
    return np.concatenate([head, [max(1.0 - head.sum(), 0.0)]])


@dataclass(eq=False)
class PoissonFit:
    """Truncated-Poisson maximum-likelihood fit over {0..tail-1, >=tail}."""

    mu: float
    stderr: float
    tail_from: int
    counts: np.ndarray
    expected: np.ndarray
    chi2_pearson: float
    chi2_neyman: float
    dof: int

    @property
    def labels(self) -> list:
        return [str(n) for n in range(self.tail_from)] + [f"{self.tail_from}+"]

    @property
    def chi2_ndf(self) -> float:
        return self.chi2_pearson / max(self.dof, 1)

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "stderr": self.stderr,
            "ci95": [self.mu - 1.96 * self.stderr, self.mu + 1.96 * self.stderr],
            "tail_from": self.tail_from,
            "labels": self.labels,
            "counts": self.counts.tolist(),
            "expected": self.expected.tolist(),
            "chi2_pearson": self.chi2_pearson,
            "chi2_neyman": self.chi2_neyman,
            "dof": self.dof,
            "chi2_ndf": self.chi2_ndf,
        }


def fit_poisson_mu(dist: NumberDistribution, tail_from: int = 4) -> PoissonFit:
    """Maximum-likelihood mean of a Poisson distribution observed through
    truncation: categories are photon numbers 0..tail_from-1 plus one
    category collecting everything at or above tail_from.

    The likelihood is multinomial with Poisson pmf probabilities and the
    upper-tail mass for the last category.  All counts at zero photons give
    mu = 0 exactly; all counts in the tail category leave mu unbounded.  A
    tail_from below 1 raises ConfigError.
    """
    if tail_from < 1:
        raise ConfigError(f"tail_from must be at least 1, not {tail_from}")
    counts = dist.folded(tail_from).astype(float)
    total = counts.sum()
    if total < 100:
        raise InsufficientDataError(f"need at least 100 counts to fit, got {int(total)}")
    if counts[-1] == total:
        raise InsufficientDataError("all counts at or above the tail category; mu is unbounded")

    if counts[0] == total:
        mu = stderr = 0.0
    else:
        cats = np.arange(tail_from + 1, dtype=float)
        head_n = cats[:-1]
        head_counts = counts[:-1]

        def score(mu: float) -> float:
            # dNLL/dmu; d log pmf(n)/dmu = n/mu - 1 and d log sf/dmu = the hazard
            # pmf(tail_from - 1) / sf, so the NLL is convex with a single root
            head = -float(head_counts @ (head_n / mu - 1.0))
            sf = _poisson_sf(tail_from - 1, mu)
            tail = 0.0
            if counts[-1] > 0 and sf > 0:
                tail = -counts[-1] * float(_poisson_pmf(tail_from - 1, mu)) / sf
            elif counts[-1] > 0:
                # sf underflowed, so mu << tail_from, where pmf / sf -> tail_from / mu
                tail = -counts[-1] * tail_from / mu
            return head + tail

        # method-of-moments bracket, widened until the score changes sign: it
        # tends to -inf as mu -> 0 and to the head count as mu -> inf
        moment = float(cats @ counts / total)
        lo = max(moment / 8.0, 1e-9)
        hi = moment * 8.0 + 2.0
        while score(lo) > 0.0:
            lo /= 8.0
        while score(hi) < 0.0:
            hi *= 8.0
        mu = _brentq(score, lo, hi, xtol=1e-12, rtol=8.9e-16)

        # stderr from the observed information d2NLL/dmu2, in closed form: the
        # hazard h = pmf(tail_from - 1) / sf has dh/dmu = h ((tail_from - 1)/mu - 1 - h)
        sf = _poisson_sf(tail_from - 1, mu)
        h = float(_poisson_pmf(tail_from - 1, mu)) / sf if sf > 0 else tail_from / mu
        info = float(head_counts @ head_n) / mu**2 - counts[-1] * h * ((tail_from - 1) / mu - 1.0 - h)
        stderr = 1.0 / math.sqrt(info) if info > 0 else float("nan")

    expected = total * _category_probs(mu, tail_from)
    nonzero = expected > 0
    chi2_p = float(np.sum((counts[nonzero] - expected[nonzero]) ** 2 / expected[nonzero]))
    obs_nonzero = counts > 0
    chi2_n = float(np.sum((counts[obs_nonzero] - expected[obs_nonzero]) ** 2 / counts[obs_nonzero]))
    return PoissonFit(
        mu=mu,
        stderr=stderr,
        tail_from=tail_from,
        counts=counts,
        expected=expected,
        chi2_pearson=chi2_p,
        chi2_neyman=chi2_n,
        dof=tail_from - 1,
    )


@dataclass(eq=False)
class JointDistribution:
    """Joint counts of photon numbers decoded on detectors A and B for the
    same trigger sequence; entry (i, j) counts triggers with n_a=i, n_b=j."""

    matrix: np.ndarray
    window_ps: float | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        if np.any(self.matrix < 0):
            raise ValueError("counts must be non-negative")

    @property
    def n_max(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    def padded(self, n_max: int) -> "JointDistribution":
        if n_max < self.n_max:
            raise ValueError("cannot shrink a joint distribution")
        out = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
        out[: self.matrix.shape[0], : self.matrix.shape[1]] = self.matrix
        return JointDistribution(out, self.window_ps)

    def to_csv(self, path) -> None:
        size = self.matrix.shape[0]
        header = "n_a\\n_b," + ",".join(map(str, range(size)))
        textio.write_int_csv(path, header, np.arange(size), *self.matrix.T)


def joint_counts(index_a, n_a, index_b, n_b, n_max: int | None = None, sides=("A", "B")) -> np.ndarray:
    """Square matrix whose entry (i, j) counts the triggers with n_a = i and
    n_b = j, for two photon-number arrays listed by trigger index.

    Both sides must list the same trigger indices in the same order; if not,
    DataError names up to ten indices found on one side only, calling
    the sides by ``sides``.  The matrix spans the largest photon number, or
    0..n_max, which must not be below it nor above both it and
    MAX_PHOTON_NUMBER (ConfigError).
    """
    index_a = np.asarray(index_a, dtype=np.int64)
    index_b = np.asarray(index_b, dtype=np.int64)
    if index_a.shape != index_b.shape or np.any(index_a != index_b):
        only_a = np.setdiff1d(index_a, index_b)[:10]
        only_b = np.setdiff1d(index_b, index_a)[:10]
        raise DataError(
            f"{sides[0]} and {sides[1]} cover different triggers (only in {sides[0]}: {only_a.tolist()}, "
            f"only in {sides[1]}: {only_b.tolist()})"
        )
    n_a = np.asarray(n_a, dtype=np.int64)
    n_b = np.asarray(n_b, dtype=np.int64)
    size = int(max(n_a.max(initial=0), n_b.max(initial=0))) + 1
    if n_max is not None:
        if n_max + 1 < size:
            raise ConfigError(f"photon numbers reach {size - 1}, above n_max={n_max}")
        limit = max(MAX_PHOTON_NUMBER, size - 1)
        if n_max > limit:
            raise ConfigError(f"n_max must be at most {limit}, not {n_max}")
        size = n_max + 1
    return np.bincount(n_a * size + n_b, minlength=size * size).reshape(size, size)


def build_jpnd(records_a, records_b, window_ps: float | None = None, n_max: int | None = None) -> JointDistribution:
    """Joint photon-number distribution of two record sets decoded from one
    trigger stream; records are paired by trigger index, and any index
    present on only one side is an alignment error."""
    matrix = joint_counts(records_a.trigger_index, records_a.n, records_b.trigger_index, records_b.n, n_max)
    return JointDistribution(matrix, window_ps=window_ps)


class EfficiencyEstimate(NamedTuple):
    eta_a: float
    eta_b: float
    coincidences: int
    singles_a: int
    singles_b: int


def estimate_efficiency(jpnd: JointDistribution) -> EfficiencyEstimate:
    """Heralded (Klyshko) efficiency per arm from split-pair data.

    With single-pair emission, every trigger sends one photon to each arm,
    so coincidences C = counts(1,1) relate to per-arm totals S as
    eta_a = C / S_b and eta_b = C / S_a.  Valid only for sources without
    multi-pair contamination.
    """
    m = jpnd.matrix
    coincidences = int(m[1, 1]) if m.shape[0] > 1 else 0
    singles_a = int(m[1:, :].sum())
    singles_b = int(m[:, 1:].sum())
    if singles_a == 0 or singles_b == 0:
        raise InsufficientDataError("a channel recorded no detections; cannot estimate efficiency")
    return EfficiencyEstimate(
        eta_a=coincidences / singles_b,
        eta_b=coincidences / singles_a,
        coincidences=coincidences,
        singles_a=singles_a,
        singles_b=singles_b,
    )


def two_photon_counts(jpnd: JointDistribution) -> dict:
    """Counts of the two-photon outcomes {"(2,0)", "(0,2)", "(1,1)"}; an
    outcome past the distribution's n_max counts 0."""
    m = jpnd.padded(max(jpnd.n_max, 2)).matrix
    return {"(2,0)": int(m[2, 0]), "(0,2)": int(m[0, 2]), "(1,1)": int(m[1, 1])}


@dataclass(eq=False)
class HomContrast:
    """Two-photon outcome counts (``two_photon_counts``) for interfering vs
    split configurations and the coincidence suppression ratio between them."""

    noon: dict
    split: dict
    ratio: float

    def to_dict(self) -> dict:
        return {"noon": self.noon, "split": self.split, "suppression_ratio": self.ratio}


def hom_contrast(jpnd_noon: JointDistribution, jpnd_split: JointDistribution) -> HomContrast:
    """Suppression ratio R = counts(1,1) in the interfering configuration
    over counts(1,1) in the split configuration, with the raw two-photon
    outcome counts of both."""
    noon, split = two_photon_counts(jpnd_noon), two_photon_counts(jpnd_split)
    if split["(1,1)"] == 0:
        raise InsufficientDataError("split configuration has no (1,1) coincidences; ratio undefined")
    return HomContrast(noon, split, noon["(1,1)"] / split["(1,1)"])
