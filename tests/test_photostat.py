"""Photon statistics: truncated-Poisson fits, joint distributions, efficiency."""

from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
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
from pnrtiming.errors import (
    AlignmentError,
    InsufficientDataError,
    UnboundedFitError,
    UndefinedRatioError,
)
from pnrtiming.photostat import joint_counts

# ---- helpers


def expected_counts(mu, total, tail_from=4):
    """Exact multinomial expectations for a truncated Poisson: analytic oracle."""
    head = poisson.pmf(np.arange(tail_from), mu) * total
    return np.append(head, poisson.sf(tail_from - 1, mu) * total)


def records_from_counts(n, detector="A"):
    n = np.asarray(n, dtype=np.int16)
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
    with pytest.raises(ValueError):
        dist.folded(0)


def test_distribution_from_records_aggregates_top():
    records = records_from_counts([0, 1, 2, 5, 6, 6])
    dist = NumberDistribution.from_records(records, n_max=4)
    assert_array_equal(dist.counts, [1, 1, 1, 0, 3])
    full = NumberDistribution.from_records(records)
    assert_array_equal(full.counts, [1, 1, 1, 0, 0, 1, 2])


def test_distribution_csv(tmp_path):
    path = tmp_path / "dist.csv"
    NumberDistribution([3, 1]).to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,count,probability"
    assert lines[1] == "0,3,0.75"


# ---- fit_poisson_mu


def test_all_zero_counts_give_mu_zero_exactly():
    fit = fit_poisson_mu(NumberDistribution([5000, 0, 0, 0, 0]))
    assert fit.mu == 0.0
    assert fit.stderr == 0.0
    assert fit.chi2_pearson == 0.0


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
    with pytest.raises(UnboundedFitError):
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
    with pytest.raises(AlignmentError, match=r"only in A.*0, 1, 2"):
        build_jpnd(a, b)


def test_jpnd_marginals_match_channel_distributions():
    spec = SourceSpec(kind="spdc_pairs", pair_prob=0.7, efficiency_a=0.5, efficiency_b=0.8)
    truth = sample_source(spec, 30_000, seed=5)
    rec_a = records_from_counts(truth.true_n_a, "A")
    rec_b = records_from_counts(truth.true_n_b, "B")
    jpnd = build_jpnd(rec_a, rec_b)
    assert_array_equal(
        jpnd.matrix.sum(axis=1),
        NumberDistribution.from_records(rec_a, n_max=jpnd.n_max).counts,
    )
    assert_array_equal(
        jpnd.matrix.sum(axis=0),
        NumberDistribution.from_records(rec_b, n_max=jpnd.n_max).counts,
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
    assert contrast.noon_11 == 0
    assert contrast.noon_20 + contrast.noon_02 == 20_000
    assert contrast.split_11 == 20_000


def test_partial_visibility_ratio_matches_outcome_model():
    v = 0.9
    n = 200_000
    noon = SourceSpec(kind="noon2", pair_prob=1.0, visibility=v, efficiency_a=1.0, efficiency_b=1.0)
    split = SourceSpec(kind="spdc_pairs", pair_prob=1.0, efficiency_a=1.0, efficiency_b=1.0)
    contrast = hom_contrast(jpnd_from_spec(noon, n, seed=17), jpnd_from_spec(split, n, seed=18))
    target = (1.0 - v) / 2.0
    sigma = np.sqrt(target * (1.0 - target) / n)
    assert abs(contrast.ratio - target) < 3.0 * sigma
    assert contrast.noon_20 + contrast.noon_02 > contrast.noon_11


def test_ratio_undefined_without_split_coincidences():
    noon = JointDistribution(np.zeros((3, 3), dtype=int))
    split = JointDistribution(np.zeros((3, 3), dtype=int))
    with pytest.raises(UndefinedRatioError):
        hom_contrast(noon, split)


def test_contrast_report_dict():
    noon = JointDistribution([[0, 0, 5], [0, 1, 0], [4, 0, 0]])
    split = JointDistribution([[0, 0, 0], [0, 10, 0], [0, 0, 0]])
    d = hom_contrast(noon, split).to_dict()
    assert d["noon"]["(2,0)"] == 4
    assert d["noon"]["(0,2)"] == 5
    assert d["suppression_ratio"] == pytest.approx(0.1)
