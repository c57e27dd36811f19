"""Photon statistics: truncated-Poisson fits, joint distributions, efficiency."""

import math
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import brentq
from scipy.special import gammaln, pdtrc
from scipy.stats import poisson

from pnrtiming import (
    JointDistribution,
    NumberDistribution,
    PhotonRecordSet,
    SourceSpec,
    build_jpnd,
    decode_events,
    estimate_efficiency,
    fit_poisson_mu,
    hom_contrast,
    sample_source,
)
from pnrtiming.errors import ConfigError, DataError, InsufficientDataError
import pnrtiming.photostat as ps
from pnrtiming.photostat import MAX_PHOTON_NUMBER, _brentq, _lgam, _poisson_pmf, _poisson_sf, joint_counts
from pnrtiming.simulate import PulseModelParams, pulse_value

# ---- helpers


def expected_counts(mu, total, tail_from=4):
    """Exact multinomial expectations for a truncated Poisson: analytic oracle."""
    head = poisson.pmf(np.arange(tail_from), mu) * total
    return np.append(head, poisson.sf(tail_from - 1, mu) * total)


def records_from_counts(n, detector="A"):
    n = np.asarray(n)
    idx = np.arange(n.size, dtype=np.int64)
    return PhotonRecordSet(detector, 8000.0, idx, idx * 100_000, n)


def jpnd_from_spec(spec, n_triggers, seed):
    truth = sample_source(spec, n_triggers, seed)
    return build_jpnd(
        records_from_counts(truth.true_n_a, "A"),
        records_from_counts(truth.true_n_b, "B"),
    )


# ---- NumberDistribution


def test_distribution_basics():
    dist = NumberDistribution([10, 20, 30])
    assert dist.total == 60
    assert_allclose(dist.probabilities(), [1 / 6, 1 / 3, 1 / 2])


def test_distribution_validation():
    with pytest.raises(ValueError, match="non-negative"):
        NumberDistribution([1, -2])
    with pytest.raises(ValueError, match="1-D"):
        NumberDistribution([[1, 2]])
    with pytest.raises(ValueError, match="finite"):
        NumberDistribution([1.0, np.nan])


def test_folding_sums_the_tail():
    dist = NumberDistribution([5, 4, 3, 2, 1, 1])
    assert_array_equal(dist.folded(4), [5, 4, 3, 2, 2])
    assert_array_equal(dist.folded(2), [5, 4, 7])
    # folding past the observed range zero-pads
    assert_array_equal(NumberDistribution([8, 2]).folded(4), [8, 2, 0, 0, 0])
    # a cut at 0 folds everything into one category; the fit needs at least 1
    assert_array_equal(dist.folded(0), [16])
    with pytest.raises(ValueError):
        dist.folded(-1)
    with pytest.raises(ValueError, match="tail_from must be at least 1"):
        fit_poisson_mu(NumberDistribution([500, 40, 3]), tail_from=0)


def test_distribution_from_records_aggregates_top():
    records = records_from_counts([0, 1, 2, 5, 6, 6])
    full = NumberDistribution.from_records(records)
    assert_array_equal(full.folded(4), [1, 1, 1, 0, 3])
    assert_array_equal(full.counts, [1, 1, 1, 0, 0, 1, 2])


def test_distribution_from_records_matches_a_clipped_bincount():
    rng = np.random.default_rng(5)
    for size in (0, 1, 7, 500):
        n = rng.poisson(rng.uniform(0.1, 6.0), size)
        records = records_from_counts(n)
        dist = NumberDistribution.from_records(records)
        top = int(n.max(initial=0))
        for n_max in (0, 1, 3, top, top + 4):
            want = np.bincount(np.minimum(n, n_max), minlength=n_max + 1)
            assert_array_equal(dist.folded(n_max), want)
        assert_array_equal(dist.counts, np.bincount(n, minlength=1))


def test_distribution_csv(tmp_path):
    path = tmp_path / "dist.csv"
    NumberDistribution([3, 1]).to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,count,probability"
    assert lines[1] == "0,3,0.75"


# ---- _brentq, against scipy.optimize.brentq


def outcome(solver, *args, **kwargs):
    """The root a solver returns, or the class of the error it raises."""
    try:
        return solver(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize(
    "tolerances",
    [{}, {"xtol": 1e-9}, {"xtol": 1e-12, "rtol": 8.9e-16}],
    ids=["defaults", "edge_delays", "fit_poisson_mu"],
)
def test_brentq_matches_scipy_bit_for_bit(tolerances):
    """Random smooth functions on random brackets, some without a sign
    change, at scipy's defaults and at both call sites' tolerances."""
    rng = np.random.default_rng(31)
    kinds = [
        lambda x, c: c[0] * (x - c[1]) ** 3 + c[2] * (x - c[1]),
        lambda x, c: np.exp(c[0] * x) - np.exp(c[1]) + c[2] * np.sin(3.0 * x),
        lambda x, c: np.tanh(c[0] * (x - c[1])) + c[2] * 1e-3 * x,
        lambda x, c: c[3] / (1.0 + x * x) - 0.5 * abs(c[3]),
    ]
    roots = 0
    for trial in range(1200):
        c = rng.normal(size=4) * rng.choice([1.0, 10.0])
        a, b = np.sort(rng.uniform(-20.0, 20.0, 2)).tolist()
        f = lambda x, kind=kinds[trial % len(kinds)], c=c: float(kind(x, c))
        got = outcome(_brentq, f, a, b, **tolerances)
        assert got == outcome(brentq, f, a, b, **tolerances)
        roots += isinstance(got, float)
    assert roots > 300


def test_brentq_ends_and_errors_match_scipy():
    line = lambda x: x - 1.0
    for a, b in ((1.0, 3.0), (-2.0, 1.0)):  # the root sits exactly on an end
        assert _brentq(line, a, b) == brentq(line, a, b) == 1.0
    for solver in (_brentq, brentq):
        with pytest.raises(ValueError):  # no sign change
            solver(line, 2.0, 3.0)
        with pytest.raises(ValueError):  # rtol below 4 eps
            solver(line, 0.0, 3.0, rtol=4.0 * np.finfo(float).eps / 2)
        with pytest.raises(ValueError):
            solver(line, 0.0, 3.0, xtol=0.0)
        with pytest.raises(ValueError):  # a NaN value
            solver(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 3.0)
        with pytest.raises(RuntimeError):  # not converged
            solver(lambda x: x**3 - 2.0, 0.0, 3.0, maxiter=2)


def test_brentq_steps_past_a_zero_denominator_as_scipy_does():
    """Values near 1e-300 underflow the extrapolation's denominator to 0,
    where C divides to inf or NaN and bisects; Python would raise."""
    tiny = lambda x: 1e-300 * (x**3 - 2.0)
    assert _brentq(tiny, 0.0, 3.0) == brentq(tiny, 0.0, 3.0)
    # the fall of the n=1 pulse at threshold 1e-300, on edge_delays' bracket
    pulse = PulseModelParams(threshold=1e-300)
    fall = lambda t: float(pulse_value(t, 1, pulse)) - pulse.threshold
    bracket = (479.57905455967415, 2762722.870873637)
    assert _brentq(fall, *bracket, xtol=1e-9) == brentq(fall, *bracket, xtol=1e-9) == 1381551.055796427


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 3.0), (-1.0, 2.5), (0.2, 5.0)])
def test_brentq_bisects_flat_steps_as_scipy_does(a, b):
    """Piecewise-constant functions, where f(xcur) == f(xpre) on a plateau."""
    for f in (
        lambda x: -1.0 if x < 0.4 else 1.0,
        lambda x: math.floor(4.0 * x) - 1.5,
        lambda x: -2.0 if x < 1.3 else (2.0 if x > 1.9 else -1.0),
    ):
        assert outcome(_brentq, f, a, b) == outcome(brentq, f, a, b)


def test_fit_poisson_mu_roots_as_scipy_brentq_does(monkeypatch):
    rng = np.random.default_rng(37)
    cases = []
    for _ in range(150):
        tail_from = int(rng.integers(1, 9))
        poisson_counts = np.bincount(rng.poisson(rng.uniform(0.05, 12.0), int(rng.integers(100, 5000))))
        for counts in (poisson_counts, rng.uniform(0.0, 1e4, int(rng.integers(2, 12)))):
            dist = NumberDistribution(counts)
            if dist.total >= 100 and dist.folded(tail_from)[-1] < dist.total:
                cases.append((dist, tail_from, fit_poisson_mu(dist, tail_from)))
    assert len(cases) > 250
    monkeypatch.setattr(ps, "_brentq", brentq)
    for dist, tail_from, got in cases:
        want = fit_poisson_mu(dist, tail_from)
        assert (got.mu, got.chi2_pearson) == (want.mu, want.chi2_pearson)
        assert_array_equal(got.stderr, want.stderr)


# ---- fit_poisson_mu


POISSON_MUS = (0.0, 1e-300, 2e-4, 0.0125, 0.3, 1.0, 3.43, 12.0, 150.0, 700.0)


def test_lgam_matches_gammaln_bit_for_bit():
    # the exact product below 13, the Stirling series up to 1000 and above
    for x in [*range(1, 2000), 10**8, 10**8 + 1, 2**40]:
        assert _lgam(x) == gammaln(x), x


def test_poisson_pmf_matches_scipy_stats_bit_for_bit():
    # every photon number a record holds, since --tail-from 255 is legal
    k = np.arange(MAX_PHOTON_NUMBER + 1)
    for mu in POISSON_MUS:
        assert_array_equal(_poisson_pmf(k, mu), poisson.pmf(k, mu))
        for j in (0, 3, 99, 255):
            assert _poisson_pmf(j, mu) == poisson.pmf(j, mu)
    assert _poisson_pmf(0, 0.0) == 1.0


def test_poisson_sf_matches_scipy_stats_to_1e_12():
    """The tail the fit uses in place of scipy.special.pdtrc: within 1e-12
    relative of scipy.stats.poisson.sf, and 0 exactly where it underflows."""
    k = np.arange(MAX_PHOTON_NUMBER + 1)
    underflow = 0
    for mu in POISSON_MUS:
        got = np.array([_poisson_sf(j, mu) for j in k.tolist()])
        want = poisson.sf(k, mu)
        assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert_array_equal(got == 0.0, want == 0.0)
        underflow += np.count_nonzero(want == 0.0)
    assert underflow > 0  # the grid reaches tails that underflow to zero


def test_poisson_sf_near_its_median_matches_pdtrc_to_5e_14():
    """Where mu lies near k + 1, the tail's prefactor goes through log1pmx;
    taken as exp((k + 1) log mu - mu - lgam(k + 1)) it was off by up to 4.4e-13."""
    rng = np.random.default_rng(41)
    k = rng.integers(21, 301, 2000)
    mu = (k + 1) * (1.0 + rng.uniform(-0.3, 0.3, k.size))
    got = np.array([_poisson_sf(j, m) for j, m in zip(k.tolist(), mu.tolist())])
    assert_allclose(got, pdtrc(k, mu), rtol=5e-14, atol=0.0)


def fit_cases():
    """Random small distributions at tail_from 1..8, then Poisson samples
    whose means reach 200 fitted at every tail_from 1..255."""
    rng = np.random.default_rng(37)
    for _ in range(150):
        tail_from = int(rng.integers(1, 9))
        poisson_counts = np.bincount(rng.poisson(rng.uniform(0.05, 12.0), int(rng.integers(100, 5000))))
        for counts in (poisson_counts, rng.uniform(0.0, 1e4, int(rng.integers(2, 12)))):
            dist = NumberDistribution(counts)
            if dist.total >= 100 and dist.folded(tail_from)[-1] < dist.total:
                yield "random", dist, tail_from
    for mu in (0.05, 3.43, 30.0, 120.0, 200.0):
        dist = NumberDistribution(rng.poisson(mu, 20_000).clip(max=MAX_PHOTON_NUMBER))
        for tail_from in range(1, MAX_PHOTON_NUMBER + 1):
            if dist.folded(tail_from)[-1] < dist.total:
                yield "sweep", dist, tail_from


def test_fit_poisson_mu_matches_a_fit_on_scipys_tail(monkeypatch):
    """The fit on _poisson_sf against the same fit on scipy.special.pdtrc.
    The random cases agree to 1e-15.  The sweep agrees to the root finder's
    own tolerance, 2 (xtol + rtol mu): where mu reaches 200, xtol = 1e-12 is
    5e-15 of mu, and a tail one ulp off can end the search elsewhere inside it."""
    cases = [(kind, dist, tail_from, fit_poisson_mu(dist, tail_from)) for kind, dist, tail_from in fit_cases()]
    assert sum(kind == "sweep" for kind, *_ in cases) > 1000
    monkeypatch.setattr(ps, "_poisson_sf", lambda k, mu: float(pdtrc(k, mu)))
    for kind, dist, tail_from, got in cases:
        want = fit_poisson_mu(dist, tail_from)
        if kind == "random":
            assert_allclose(got.mu, want.mu, rtol=1e-15, atol=0.0)
        else:
            assert abs(got.mu - want.mu) <= 2 * (1e-12 + 8.9e-16 * want.mu)
        assert_allclose(got.stderr, want.stderr, rtol=1e-12)


def test_all_zero_counts_give_mu_zero_exactly():
    fit = fit_poisson_mu(NumberDistribution([5000, 0, 0, 0, 0]))
    assert fit.mu == 0.0
    assert fit.stderr == 0.0
    assert fit.chi2_pearson == 0.0
    for tail_from in (1, 2, 4, 7):
        fit = fit_poisson_mu(NumberDistribution([300]), tail_from)
        assert (fit.mu, fit.stderr, fit.chi2_pearson, fit.chi2_neyman) == (0.0, 0.0, 0.0, 0.0)
        assert_array_equal(fit.expected, [300.0] + [0.0] * tail_from)
        assert fit.dof == tail_from - 1


def test_exact_expected_counts_recover_mu():
    # mu = 12 at tail_from=1 has its root above the moment bracket [1/8, 10]
    for mu, tail_from in ((1.0, 4), (0.2, 4), (3.4, 4), (12.0, 1)):
        dist = NumberDistribution(expected_counts(mu, 1e6, tail_from))
        fit = fit_poisson_mu(dist, tail_from)
        assert abs(fit.mu - mu) < 1e-6
        assert_allclose(fit.expected, dist.counts, rtol=1e-9)
        assert fit.chi2_pearson < 1e-12


def test_fit_roots_the_score_where_the_tail_mass_underflows():
    # at the moment bracket's lower end, 0.0125, sf(99) underflows to 0
    counts = np.zeros(101)
    counts[0], counts[100] = 1000, 1
    fit = fit_poisson_mu(NumberDistribution(counts), tail_from=100)
    # the root of the score: 1000 * sf(99, mu) = pmf(99, mu), mu near 0.1
    assert 1000 * poisson.sf(99, fit.mu) == pytest.approx(poisson.pmf(99, fit.mu), rel=1e-9)
    assert fit.mu == pytest.approx(0.1, rel=0.01)


def test_fit_stderr_is_finite_where_the_tail_mass_underflows():
    # mu = 2e-4: sf(199, mu) underflows, and the information is N / mu to first order
    counts = np.zeros(201)
    counts[0], counts[200] = 1e6, 1
    fit = fit_poisson_mu(NumberDistribution(counts), tail_from=200)
    assert fit.mu == pytest.approx(2e-4, rel=1e-6)
    assert fit.stderr == pytest.approx(np.sqrt(fit.mu / counts.sum()), rel=1e-3)


def test_fit_requires_enough_counts():
    with pytest.raises(InsufficientDataError):
        fit_poisson_mu(NumberDistribution([40, 30, 20]))


def test_all_tail_counts_are_unbounded():
    with pytest.raises(InsufficientDataError, match="mu is unbounded"):
        fit_poisson_mu(NumberDistribution([0, 0, 0, 0, 500]))


def test_fit_is_consistent_as_samples_grow():
    mu_true = 2.1
    errors = []
    for size, seed in ((10_000, 11), (100_000, 12), (1_000_000, 13)):
        rng = np.random.default_rng(seed)
        counts = np.bincount(rng.poisson(mu_true, size))
        fit = fit_poisson_mu(NumberDistribution(counts))
        errors.append(abs(fit.mu - mu_true))
        assert abs(fit.mu - mu_true) < 4.0 * fit.stderr
        assert fit.chi2_ndf < 3.0
    assert errors[2] < errors[0]


def test_fit_diagnostics_shape():
    rng = np.random.default_rng(21)
    fit = fit_poisson_mu(NumberDistribution(np.bincount(rng.poisson(1.3, 50_000))))
    assert fit.tail_from == 4
    assert fit.labels == ["0", "1", "2", "3", "4+"]
    assert fit.counts.size == 5
    assert fit.expected.sum() == pytest.approx(fit.counts.sum())
    assert fit.dof == 3
    d = fit.to_dict()
    lo, hi = d["ci95"]
    assert lo < fit.mu < hi
    assert (lo, hi) == pytest.approx((fit.mu - 1.96 * fit.stderr, fit.mu + 1.96 * fit.stderr), rel=1e-15)
    assert set(d) >= {"mu", "stderr", "chi2_pearson", "chi2_neyman", "expected"}


def test_fit_with_custom_truncation():
    dist = NumberDistribution(expected_counts(0.8, 1e5, tail_from=2))
    fit = fit_poisson_mu(dist, tail_from=2)
    assert fit.mu == pytest.approx(0.8, abs=1e-6)
    assert fit.labels == ["0", "1", "2+"]


def test_fit_on_decoded_records(events_a, optimal_model):
    records = decode_events(events_a, optimal_model)
    fit = fit_poisson_mu(NumberDistribution.from_records(records))
    assert fit.mu == pytest.approx(3.43, abs=0.05)
    assert fit.chi2_ndf < 3.0


# ---- joint_counts, JointDistribution and build_jpnd


def test_joint_counts_match_a_brute_force_count():
    rng = np.random.default_rng(8)
    idx = np.arange(500) * 3
    n_a, n_b = rng.integers(0, 4, 500), rng.integers(0, 6, 500)
    pairs = Counter(zip(n_a.tolist(), n_b.tolist()))
    for n_max, size in ((None, 6), (5, 6), (9, 10)):
        matrix = joint_counts(idx, n_a, idx, n_b, n_max)
        assert matrix.shape == (size, size)
        assert {ij: c for ij, c in np.ndenumerate(matrix) if c} == pairs
    with pytest.raises(ValueError, match="n_max=4"):
        joint_counts(idx, n_a, idx, n_b, 4)


def test_tables_by_photon_number_stop_at_the_record_ceiling():
    # 255 is the most a .pnrec holds; a table the data needs
    # is never refused, a larger one is
    assert MAX_PHOTON_NUMBER == 255
    small, wide = NumberDistribution([5, 4, 3]), NumberDistribution(np.ones(301, dtype=np.int64))
    assert small.folded(255).size == 256
    assert wide.folded(300).size == 301
    idx = np.arange(3)
    assert joint_counts(idx, [0, 1, 2], idx, [2, 1, 0], 255).shape == (256, 256)
    assert joint_counts(idx, [0, 1, 300], idx, [2, 1, 0], 300).shape == (301, 301)
    for too_big in (256, 2**70):
        with pytest.raises(ConfigError, match="255 or below"):
            small.folded(too_big)
        with pytest.raises(ConfigError, match="at most 255"):
            joint_counts(idx, [0, 1, 2], idx, [2, 1, 0], too_big)
    with pytest.raises(ConfigError, match="300 or below"):
        wide.folded(301)
    with pytest.raises(ConfigError, match="at most 300"):
        joint_counts(idx, [0, 1, 300], idx, [2, 1, 0], 301)
    with pytest.raises(ConfigError, match="255 or below"):
        fit_poisson_mu(NumberDistribution([500, 40, 3]), tail_from=256)


def test_jpnd_validation():
    with pytest.raises(ValueError, match="square"):
        JointDistribution(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        JointDistribution([[1, -1], [0, 0]])


def test_jpnd_counts_by_trigger():
    a = records_from_counts([0, 1, 2, 1], "A")
    b = records_from_counts([1, 1, 0, 1], "B")
    jpnd = build_jpnd(a, b, window_ps=8000.0)
    assert jpnd.total == 4
    assert jpnd.matrix[0, 1] == 1
    assert jpnd.matrix[1, 1] == 2
    assert jpnd.matrix[2, 0] == 1
    assert jpnd.window_ps == 8000.0


def test_jpnd_alignment_error_lists_indices():
    a = records_from_counts([1, 1, 1], "A")
    b = records_from_counts([1, 1], "B")
    b.trigger_index = b.trigger_index + 5
    with pytest.raises(DataError, match=r"only in A.*0, 1, 2"):
        build_jpnd(a, b)


def test_jpnd_marginals_match_channel_distributions():
    spec = SourceSpec(kind="spdc_pairs", pair_prob=0.7, efficiency_a=0.5, efficiency_b=0.8)
    truth = sample_source(spec, 30_000, seed=5)
    rec_a = records_from_counts(truth.true_n_a, "A")
    rec_b = records_from_counts(truth.true_n_b, "B")
    jpnd = build_jpnd(rec_a, rec_b)
    assert_array_equal(
        jpnd.matrix.sum(axis=1),
        NumberDistribution.from_records(rec_a).folded(jpnd.n_max),
    )
    assert_array_equal(
        jpnd.matrix.sum(axis=0),
        NumberDistribution.from_records(rec_b).folded(jpnd.n_max),
    )
    assert jpnd.total == 30_000


def test_ideal_noon_mass_sits_on_two_photon_corners():
    spec = SourceSpec(kind="noon2", pair_prob=0.8, visibility=1.0, efficiency_a=1.0, efficiency_b=1.0)
    jpnd = jpnd_from_spec(spec, 20_000, seed=9).padded(2)
    mass = jpnd.matrix.copy()
    allowed = mass[0, 0] + mass[2, 0] + mass[0, 2]
    assert allowed == jpnd.total
    assert mass[2, 0] > 0 and mass[0, 2] > 0


def test_ideal_split_pairs_mass_only_on_coincidences():
    spec = SourceSpec(kind="spdc_pairs", pair_prob=0.8, efficiency_a=1.0, efficiency_b=1.0)
    jpnd = jpnd_from_spec(spec, 20_000, seed=10)
    assert jpnd.matrix[0, 0] + jpnd.matrix[1, 1] == jpnd.total
    assert jpnd.matrix[1, 1] == pytest.approx(0.8 * 20_000, rel=0.05)


def test_lossy_noon_singles_to_pairs_ratio():
    # a lost photon from a two-photon arm leaves a single; binomial loss
    # predicts singles / pairs = 2 (1 - eta) / eta
    eta = 0.30
    spec = SourceSpec(kind="noon2", pair_prob=1.0, visibility=1.0, efficiency_a=eta, efficiency_b=eta)
    jpnd = jpnd_from_spec(spec, 1_000_000, seed=14).padded(2)
    m = jpnd.matrix
    singles = m[1, 0] + m[0, 1]
    pairs = m[2, 0] + m[0, 2]
    ratio = singles / pairs
    target = 2.0 * (1.0 - eta) / eta
    sigma = ratio * np.sqrt(1.0 / singles + 1.0 / pairs)
    assert abs(ratio - target) < 3.0 * sigma


def test_jpnd_padding_and_csv(tmp_path):
    jpnd = JointDistribution([[3, 1], [0, 2]], window_ps=100.0)
    padded = jpnd.padded(3)
    assert padded.matrix.shape == (4, 4)
    assert padded.total == jpnd.total
    with pytest.raises(ValueError, match="shrink"):
        padded.padded(1)
    path = tmp_path / "jpnd.csv"
    jpnd.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n_a\\n_b,0,1"
    assert lines[1] == "0,3,1"
    assert lines[2] == "1,0,2"


# ---- estimate_efficiency


def test_unit_efficiency_split_pairs():
    spec = SourceSpec(kind="spdc_pairs", pair_prob=0.9, efficiency_a=1.0, efficiency_b=1.0)
    est = estimate_efficiency(jpnd_from_spec(spec, 10_000, seed=3))
    assert est.eta_a == 1.0
    assert est.eta_b == 1.0
    assert est.coincidences == est.singles_a == est.singles_b


def test_symmetric_efficiency_recovered():
    spec = SourceSpec(kind="spdc_pairs", pair_prob=0.8, efficiency_a=0.30, efficiency_b=0.30)
    est = estimate_efficiency(jpnd_from_spec(spec, 1_000_000, seed=4))
    assert est.eta_a == pytest.approx(0.30, abs=0.01)
    assert est.eta_b == pytest.approx(0.30, abs=0.01)


def test_asymmetric_efficiencies_recovered_per_arm():
    spec = SourceSpec(kind="spdc_pairs", pair_prob=0.8, efficiency_a=0.4, efficiency_b=0.2)
    est = estimate_efficiency(jpnd_from_spec(spec, 1_000_000, seed=6))
    assert est.eta_a == pytest.approx(0.4, abs=0.01)
    assert est.eta_b == pytest.approx(0.2, abs=0.01)


def test_efficiency_requires_detections():
    with pytest.raises(InsufficientDataError):
        estimate_efficiency(JointDistribution([[100, 0], [0, 0]]))


def test_efficiency_estimate_survives_subsampling():
    spec = SourceSpec(kind="spdc_pairs", pair_prob=0.8, efficiency_a=0.35, efficiency_b=0.35)
    truth = sample_source(spec, 400_000, seed=8)
    def estimate(sl):
        a = records_from_counts(truth.true_n_a[sl], "A")
        b = records_from_counts(truth.true_n_b[sl], "B")
        a.trigger_index = np.arange(len(a))
        b.trigger_index = np.arange(len(b))
        return estimate_efficiency(build_jpnd(a, b))
    full = estimate(slice(None))
    sub = estimate(slice(None, None, 4))
    sigma = np.sqrt(full.eta_a * (1.0 - full.eta_a) / sub.singles_b)
    assert abs(sub.eta_a - full.eta_a) < 3.0 * sigma
    assert abs(sub.eta_b - full.eta_b) < 3.0 * sigma


# ---- hom_contrast


def test_ideal_interference_suppresses_coincidences():
    noon = SourceSpec(kind="noon2", pair_prob=1.0, visibility=1.0, efficiency_a=1.0, efficiency_b=1.0)
    split = SourceSpec(kind="spdc_pairs", pair_prob=1.0, efficiency_a=1.0, efficiency_b=1.0)
    contrast = hom_contrast(jpnd_from_spec(noon, 20_000, seed=15), jpnd_from_spec(split, 20_000, seed=16))
    assert contrast.ratio == 0.0
    assert contrast.noon["(1,1)"] == 0
    assert contrast.noon["(2,0)"] + contrast.noon["(0,2)"] == 20_000
    assert contrast.split["(1,1)"] == 20_000


def test_partial_visibility_ratio_matches_outcome_model():
    v = 0.9
    n = 200_000
    noon = SourceSpec(kind="noon2", pair_prob=1.0, visibility=v, efficiency_a=1.0, efficiency_b=1.0)
    split = SourceSpec(kind="spdc_pairs", pair_prob=1.0, efficiency_a=1.0, efficiency_b=1.0)
    contrast = hom_contrast(jpnd_from_spec(noon, n, seed=17), jpnd_from_spec(split, n, seed=18))
    target = (1.0 - v) / 2.0
    sigma = np.sqrt(target * (1.0 - target) / n)
    assert abs(contrast.ratio - target) < 3.0 * sigma
    assert contrast.noon["(2,0)"] + contrast.noon["(0,2)"] > contrast.noon["(1,1)"]


def test_ratio_undefined_without_split_coincidences():
    noon = JointDistribution(np.zeros((3, 3), dtype=int))
    split = JointDistribution(np.zeros((3, 3), dtype=int))
    with pytest.raises(InsufficientDataError, match="ratio undefined"):
        hom_contrast(noon, split)


def test_contrast_report_dict():
    noon = JointDistribution([[0, 0, 5], [0, 1, 0], [4, 0, 0]])
    split = JointDistribution([[0, 0, 0], [0, 10, 0], [0, 0, 0]])
    d = hom_contrast(noon, split).to_dict()
    assert d["noon"]["(2,0)"] == 4
    assert d["noon"]["(0,2)"] == 5
    assert d["suppression_ratio"] == pytest.approx(0.1)
