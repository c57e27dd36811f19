"""Photon-number statistics from decoded records.

Covers the single-channel truncated-Poisson fit, joint photon-number
distributions across two detectors sharing a trigger stream, Klyshko-style
efficiency estimates from split pairs, and the coincidence-suppression
contrast between interfering and split-pair configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq
from scipy.stats import poisson

from . import textio
from .errors import (
    AlignmentError,
    ConfigError,
    InsufficientDataError,
    UnboundedFitError,
    UndefinedRatioError,
)


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
    def from_records(cls, records, n_max: int | None = None) -> "NumberDistribution":
        """Counts of the records' photon numbers; with n_max (at least 0,
        else ConfigError) the counts above n_max fold into entry n_max."""
        if n_max is not None and n_max < 0:
            raise ConfigError(f"n_max must be at least 0, not {n_max}")
        length = (n_max + 1) if n_max is not None else int(records.n.max(initial=0)) + 1
        counts = np.bincount(records.n, minlength=length)
        if counts.size > length:
            counts[length - 1] += counts[length:].sum()
            counts = counts[:length]
        return cls(counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def probabilities(self) -> np.ndarray:
        return self.counts / max(self.total, 1)

    def folded(self, tail_from: int) -> np.ndarray:
        """Counts with every photon number >= tail_from summed into one
        final category; result has tail_from + 1 entries.  A tail_from
        below 1 raises ConfigError."""
        if tail_from < 1:
            raise ConfigError(f"tail_from must be at least 1, not {tail_from}")
        head = self.counts[:tail_from]
        if head.size < tail_from:
            head = np.concatenate([head, np.zeros(tail_from - head.size, dtype=head.dtype)])
        tail = self.counts[tail_from:].sum()
        return np.concatenate([head, [tail]])

    def to_csv(self, path) -> None:
        n = np.arange(self.counts.size)
        textio.write_csv(path, "n,count,probability", "{},{},{:.9g}", n, self.counts, self.probabilities())


def _category_probs(mu: float, tail_from: int) -> np.ndarray:
    head = poisson.pmf(np.arange(tail_from), mu)
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
    mu = 0 exactly; all counts in the tail category leave mu unbounded.
    """
    counts = dist.folded(tail_from).astype(float)
    total = counts.sum()
    if total < 100:
        raise InsufficientDataError(f"need at least 100 counts to fit, got {int(total)}")
    if counts[-1] == total:
        raise UnboundedFitError("all counts at or above the tail category; mu is unbounded")

    cats = np.arange(tail_from + 1, dtype=float)
    if counts[0] == total:
        expected = np.zeros_like(counts)
        expected[0] = total
        return PoissonFit(
            mu=0.0,
            stderr=0.0,
            tail_from=tail_from,
            counts=counts,
            expected=expected,
            chi2_pearson=0.0,
            chi2_neyman=0.0,
            dof=tail_from - 1,
        )

    head_n = cats[:-1]
    head_counts = counts[:-1]

    def score(mu: float) -> float:
        # dNLL/dmu; d log pmf(n)/dmu = n/mu - 1 and d log sf/dmu = the hazard
        # pmf(tail_from - 1) / sf, so the NLL is convex with a single root
        head = -float(head_counts @ (head_n / mu - 1.0))
        sf = float(poisson.sf(tail_from - 1, mu))
        tail = 0.0
        if counts[-1] > 0 and sf > 0:
            tail = -counts[-1] * float(poisson.pmf(tail_from - 1, mu)) / sf
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
    mu = float(brentq(score, lo, hi, xtol=1e-12, rtol=8.9e-16))

    # stderr from the observed information d2NLL/dmu2, in closed form: the
    # hazard h = pmf(tail_from - 1) / sf has dh/dmu = h ((tail_from - 1)/mu - 1 - h)
    sf = float(poisson.sf(tail_from - 1, mu))
    h = float(poisson.pmf(tail_from - 1, mu)) / sf if sf > 0 else tail_from / mu
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
        textio.write_csv(path, header, "{}" + ",{}" * size, np.arange(size), *self.matrix.T)


def joint_counts(index_a, n_a, index_b, n_b, n_max: int | None = None, sides=("A", "B")) -> np.ndarray:
    """Square matrix whose entry (i, j) counts the triggers with n_a = i and
    n_b = j, for two photon-number arrays listed by trigger index.

    Both sides must list the same trigger indices in the same order; if not,
    AlignmentError names up to ten indices found on one side only, calling
    the sides by ``sides``.  The matrix spans the largest photon number, or
    0..n_max, which must not be below it (ConfigError).
    """
    index_a = np.asarray(index_a, dtype=np.int64)
    index_b = np.asarray(index_b, dtype=np.int64)
    if index_a.shape != index_b.shape or np.any(index_a != index_b):
        only_a = np.setdiff1d(index_a, index_b)[:10]
        only_b = np.setdiff1d(index_b, index_a)[:10]
        raise AlignmentError(
            f"{sides[0]} and {sides[1]} cover different triggers (only in {sides[0]}: {only_a.tolist()}, "
            f"only in {sides[1]}: {only_b.tolist()})"
        )
    n_a = np.asarray(n_a, dtype=np.int64)
    n_b = np.asarray(n_b, dtype=np.int64)
    size = int(max(n_a.max(initial=0), n_b.max(initial=0))) + 1
    if n_max is not None:
        if n_max + 1 < size:
            raise ConfigError(f"photon numbers reach {size - 1}, above n_max={n_max}")
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


@dataclass(eq=False)
class HomContrast:
    """Two-photon outcome counts for interfering vs split configurations
    and the coincidence suppression ratio between them."""

    noon_20: int
    noon_02: int
    noon_11: int
    split_20: int
    split_02: int
    split_11: int
    ratio: float

    def to_dict(self) -> dict:
        return {
            "noon": {"(2,0)": self.noon_20, "(0,2)": self.noon_02, "(1,1)": self.noon_11},
            "split": {"(2,0)": self.split_20, "(0,2)": self.split_02, "(1,1)": self.split_11},
            "suppression_ratio": self.ratio,
        }


def hom_contrast(jpnd_noon: JointDistribution, jpnd_split: JointDistribution) -> HomContrast:
    """Suppression ratio R = counts(1,1) in the interfering configuration
    over counts(1,1) in the split configuration, with the raw two-photon
    outcome counts of both."""
    size = max(jpnd_noon.matrix.shape[0], jpnd_split.matrix.shape[0], 3)
    noon = jpnd_noon.padded(size - 1).matrix
    split = jpnd_split.padded(size - 1).matrix
    split_11 = int(split[1, 1])
    if split_11 == 0:
        raise UndefinedRatioError("split configuration has no (1,1) coincidences; ratio undefined")
    return HomContrast(
        noon_20=int(noon[2, 0]),
        noon_02=int(noon[0, 2]),
        noon_11=int(noon[1, 1]),
        split_20=int(split[2, 0]),
        split_02=int(split[0, 2]),
        split_11=split_11,
        ratio=int(noon[1, 1]) / split_11,
    )
