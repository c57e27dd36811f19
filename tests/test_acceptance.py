"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Verdict lines print with capture disabled, so a plain ``pytest -v`` run
shows every criterion's outcome together with its measured figures.
"""

import io
import time

import numpy as np
import pytest
from scipy.integrate import quad

import pnrtiming.calibrate as cal
from pnrtiming import (
    JitterParams,
    PulseModelParams,
    SourceSpec,
    TagBlock,
    VoigtComponent,
    build_jpnd,
    calibrate_both,
    calibrate_events,
    classify,
    confusion_report,
    crosstalk_matrix,
    decode_events,
    edge_delays,
    estimate_efficiency,
    fit_poisson_mu,
    iter_tag_blocks,
    pair_edges,
    read_tag_block,
    simulate_stream,
    voigt_pdf,
    write_stream,
)
from pnrtiming.photostat import NumberDistribution
from pnrtiming.simulate import pulse_value

WORKERS = 4


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"acceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def sim_100k():
    spec = SourceSpec()
    tags, truth = simulate_stream(spec, PulseModelParams(), JitterParams(), 100_000, seed=424242, workers=WORKERS)
    events = pair_edges(tags, window_ps=8000.0, detector="A")
    return events, truth


@pytest.fixture(scope="module")
def models_100k(sim_100k):
    events, _ = sim_100k
    return calibrate_both(events)


# criterion 1: edge timing against a dense threshold-crossing scan


def test_criterion_1_edge_timing_oracle(report):
    start = time.perf_counter()
    pulse = PulseModelParams()
    t = np.arange(0.01, 6000.0, 0.01)
    worst = 0.0
    for n in range(1, 6):
        above = pulse_value(t, n, pulse) > pulse.threshold
        rise_scan = t[np.argmax(above)]
        fall_scan = t[len(t) - 1 - np.argmax(above[::-1])]
        rise, fall = edge_delays(n, pulse)
        worst = max(worst, abs(rise - rise_scan), abs(fall - fall_scan))
    rises, falls = zip(*(edge_delays(n, pulse) for n in range(1, pulse.max_photons + 1)))
    monotone = np.all(np.diff(rises) < 0) and np.all(np.diff(falls) > 0)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 0.05 and bool(monotone) and elapsed < 1.0,
        f"max |edge - scan| = {worst:.4f} ps, monotone={bool(monotone)}, {elapsed:.2f}s",
    )


# criterion 2: Voigt density against adaptive quadrature


def _voigt_quadrature(x, sigma, gamma):
    # the Gaussian factor is zero 40 sigma away from x, so the infinite
    # convolution integral equals this finite window; breakpoints mark the
    # Gaussian spike and, when inside, the Lorentzian one
    lo, hi = x - 40.0 * sigma, x + 40.0 * sigma
    pts = [x] + ([0.0] if lo < 0.0 < hi else [])

    def integrand(y):
        g = np.exp(-((x - y) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        return g * gamma / (np.pi * (y * y + gamma * gamma))

    val, _ = quad(integrand, lo, hi, points=pts, epsabs=1e-14, epsrel=1e-11, limit=400)
    return val


def test_criterion_2_voigt_against_quadrature(report):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        sigma = rng.uniform(0.3, 5.0)
        gamma = rng.uniform(0.05, 3.0)
        grid = np.linspace(-8 * (sigma + gamma), 8 * (sigma + gamma), 41)
        ours = voigt_pdf(grid, VoigtComponent(0.0, sigma, gamma, 1.0))
        ref = np.array([_voigt_quadrature(x, sigma, gamma) for x in grid])
        worst = max(worst, float(np.max(np.abs(ours - ref) / ref)))
    mode_err = abs(voigt_pdf(0.0, VoigtComponent(0.0, 1.7, 0.0, 1.0)) - 1.0 / (1.7 * np.sqrt(2 * np.pi)))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-4 and mode_err < 1e-6 and elapsed < 10.0,
        f"max rel err = {worst:.2e}, Gaussian mode err = {mode_err:.2e}, {elapsed:.1f}s",
    )


# criterion 3: optimal projection beats rising-only crosstalk


def test_criterion_3_crosstalk_reduction(report, sim_100k, models_100k):
    start = time.perf_counter()
    events, truth = sim_100k
    detected_mean = float(truth.true_n_a.mean())
    optimal, rising = models_100k["optimal"], models_100k["rising_only"]
    tot_opt = cal.total_offdiagonal(optimal.crosstalk)
    tot_ris = cal.total_offdiagonal(rising.crosstalk)
    pairs_opt = cal.adjacent_pair_crosstalk(optimal.crosstalk)[:4]
    pairs_ris = cal.adjacent_pair_crosstalk(rising.crosstalk)[:4]
    per_pair = np.all(pairs_opt < pairs_ris)
    elapsed = time.perf_counter() - start
    report(
        3,
        tot_opt < tot_ris and bool(per_pair) and abs(detected_mean - 3.43) < 0.05 and elapsed < 120.0,
        f"total {tot_opt:.3e} < {tot_ris:.3e}, pairs {[f'{v:.1e}' for v in pairs_opt]} < "
        f"{[f'{v:.1e}' for v in pairs_ris]}, mean={detected_mean:.3f}, {elapsed:.0f}s",
    )


# criterion 4: truncated-Poisson fits across three intensities at 10^6 triggers


def test_criterion_4_poisson_fits_at_three_intensities(report):
    start = time.perf_counter()
    pulse, jitter = PulseModelParams(), JitterParams()
    cal_tags, _ = simulate_stream(SourceSpec(), pulse, jitter, 100_000, seed=515, workers=WORKERS)
    model = calibrate_events(pair_edges(cal_tags, 8000.0, detector="A"), "optimal", detector="A")

    results = []
    for i, mu_source in enumerate((2.5, 3.43 / 0.86, 5.5)):
        spec = SourceSpec(mu=mu_source)
        tags, truth = simulate_stream(spec, pulse, jitter, 1_000_000, seed=620 + i, workers=WORKERS)
        records = decode_events(pair_edges(tags, 8000.0, detector="A"), model)
        fit = fit_poisson_mu(NumberDistribution.from_records(records))
        results.append((fit.mu, float(truth.true_n_a.mean()), fit.chi2_ndf))
    rel_errs = [abs(mu / mean - 1.0) for mu, mean, _ in results]
    chis = [chi for _, _, chi in results]
    elapsed = time.perf_counter() - start
    report(
        4,
        max(rel_errs) < 0.02 and max(chis) < 2.0 and elapsed < 300.0,
        f"mu rel errs {np.round(rel_errs, 5).tolist()}, chi2/ndf {np.round(chis, 2).tolist()}, {elapsed:.0f}s",
    )


# criterion 5: quadrature crosstalk vs Monte-Carlo classification


def test_criterion_5_crosstalk_matches_monte_carlo(report, models_100k):
    model = models_100k["optimal"]
    predicted = crosstalk_matrix(model.components, model.boundaries)
    rng = np.random.default_rng(7)
    weights = np.array([c.weight for c in model.components])
    draws = rng.multinomial(1_000_000, weights / weights.sum())
    worst = 0.0
    for i, (comp, n_i) in enumerate(zip(model.components, draws)):
        samples = comp.center + rng.normal(0.0, comp.sigma, n_i) + comp.gamma * rng.standard_cauchy(n_i)
        observed = np.bincount(classify(samples, model.boundaries), minlength=model.k)
        p = predicted[i]
        # a rounding-negative p would make sigma NaN, and max() would then
        # silently drop the whole row
        q = np.clip(p, 0.0, 1.0)
        sigma = np.sqrt(n_i * q * (1.0 - q))
        z = np.abs(observed - n_i * p) / np.maximum(sigma, 1.0)
        assert np.all(np.isfinite(z)), f"non-finite z in row {i}: {z}"
        worst = max(worst, float(z.max()))
    report(5, worst < 3.0, f"max per-cell |z| = {worst:.2f} over {model.k}x{model.k} cells")


# criterion 6: decode confusion agrees with the crosstalk prediction


def test_criterion_6_confusion_matches_prediction(report, sim_100k, models_100k):
    events, truth = sim_100k
    model = models_100k["optimal"]
    records = decode_events(events, model)
    conf = confusion_report(records, truth, model)
    z_low = conf.prediction["z"][:5, :5]
    worst = float(np.max(np.abs(z_low)))
    report(6, worst < 3.0, f"max |z| = {worst:.2f} over true/decoded classes 1..5")


# criterion 7: two-detector statistics (N00N, split pairs, efficiency)


def _decode_both_arms(tags, model_a, model_b):
    rec_a = decode_events(pair_edges(tags, 8000.0, detector="A"), model_a)
    rec_b = decode_events(pair_edges(tags, 8000.0, detector="B"), model_b)
    return build_jpnd(rec_a, rec_b, window_ps=8000.0)


def test_criterion_7_joint_statistics(report):
    start = time.perf_counter()
    pulse, jitter = PulseModelParams(), JitterParams()
    model = {}
    for arm in ("A", "B"):
        spec = SourceSpec(coherent_channel=arm)
        tags, _ = simulate_stream(spec, pulse, jitter, 100_000, seed=717, workers=WORKERS)
        model[arm] = calibrate_events(pair_edges(tags, 8000.0, detector=arm), "optimal", detector=arm)

    noon = SourceSpec(kind="noon2", pair_prob=1.0, visibility=1.0, efficiency_a=1.0, efficiency_b=1.0)
    tags, _ = simulate_stream(noon, pulse, jitter, 1_000_000, seed=818, workers=WORKERS)
    jpnd_noon = _decode_both_arms(tags, model["A"], model["B"]).padded(2)

    split = SourceSpec(kind="spdc_pairs", pair_prob=1.0, efficiency_a=1.0, efficiency_b=1.0)
    tags, _ = simulate_stream(split, pulse, jitter, 1_000_000, seed=919, workers=WORKERS)
    jpnd_split = _decode_both_arms(tags, model["A"], model["B"]).padded(2)

    lossy = SourceSpec(kind="spdc_pairs", pair_prob=1.0, efficiency_a=0.30, efficiency_b=0.30)
    tags, _ = simulate_stream(lossy, pulse, jitter, 1_000_000, seed=1020, workers=WORKERS)
    eff = estimate_efficiency(_decode_both_arms(tags, model["A"], model["B"]))

    noon_11 = int(jpnd_noon.matrix[1, 1])
    split_corners = int(jpnd_split.matrix[2, 0] + jpnd_split.matrix[0, 2])
    eta_ok = abs(eff.eta_a - 0.30) < 0.01 and abs(eff.eta_b - 0.30) < 0.01
    elapsed = time.perf_counter() - start
    report(
        7,
        noon_11 == 0 and split_corners == 0 and eta_ok,
        f"noon (1,1) = {noon_11}, split (2,0)+(0,2) = {split_corners}, "
        f"eta = ({eff.eta_a:.4f}, {eff.eta_b:.4f}), {elapsed:.0f}s",
    )


# criterion 8: determinism, round-trip identity, bounded streaming memory


def test_criterion_8_determinism_and_streaming(report, tmp_path):
    spec, pulse, jitter = SourceSpec(), PulseModelParams(), JitterParams()
    blobs = []
    for workers in (1, WORKERS):
        tags, _ = simulate_stream(spec, pulse, jitter, 20_000, seed=2025, workers=workers)
        buf = io.BytesIO()
        write_stream(tags, buf)
        blobs.append(buf.getvalue())
    identical = blobs[0] == blobs[1]

    rng = np.random.default_rng(88)
    n_tags = 1_000_000
    channels = rng.integers(0, 5, n_tags).astype(np.uint8)
    stamps = np.sort(rng.integers(0, 2**50, n_tags))
    block = TagBlock(channels, stamps).sorted()
    path = tmp_path / "big.pnrtag"
    with open(path, "wb") as f:
        write_stream(block, f)
    back = read_tag_block(path)
    round_trip = bool(
        np.array_equal(back.channels, block.channels) and np.array_equal(back.timestamps, block.timestamps)
    )

    n_large = 6_600_000  # a little over 100 MB of records
    channels = rng.integers(0, 5, n_large).astype(np.uint8)
    stamps = np.sort(rng.integers(0, 2**50, n_large))
    big_path = tmp_path / "huge.pnrtag"
    with open(big_path, "wb") as f:
        write_stream(TagBlock(channels, stamps).sorted(), f)
    file_mb = big_path.stat().st_size / 2**20
    import tracemalloc

    with open(big_path, "rb") as f:
        tracemalloc.start()
        seen = sum(len(b) for b in iter_tag_blocks(f))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    peak_mb = peak / 2**20
    bounded = seen == n_large and peak_mb < file_mb / 4

    report(
        8,
        identical and round_trip and bounded,
        f"seed-identical={identical}, 1e6-tag round-trip={round_trip}, "
        f"streaming peak {peak_mb:.1f} MB on a {file_mb:.0f} MB file",
    )
