"""Pulse-model oracle checks and statistical validation of the generator."""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chisquare, poisson

import pnrtiming.simulate as sim
from pnrtiming import (
    JitterParams,
    PulseModelParams,
    SourceSpec,
    TruthBlock,
    edge_delays,
    pair_edges,
    sample_source,
    simulate_stream,
)
from pnrtiming.errors import ConfigError, StreamFormatError
from pnrtiming.simulate import edge_delay_table, pulse_peak, pulse_value
from pnrtiming.timetags import CH_TRIGGER, CHANNEL_COUNT, DETECTOR_CHANNELS

NO_JITTER = JitterParams(0.0, 0.0, 0.0)


# ---------------------------------------------------------------- oracle

def scan_crossings(n, params, step=0.01, t_end=6000.0):
    """First and last threshold crossing located by brute scan on a fine grid."""
    t = np.arange(step, t_end, step)
    above = pulse_value(t, n, params) >= params.threshold
    idx = np.nonzero(above)[0]
    assert idx.size, "grid never crosses threshold"
    assert not above[-1], "grid too short, pulse still above threshold at t_end"
    return t[idx[0]], t[idx[-1]]


def test_edge_delays_match_dense_grid_scan():
    params = PulseModelParams()
    for n in range(1, 6):
        rise, fall = edge_delays(n, params)
        rise_ref, fall_ref = scan_crossings(n, params)
        assert abs(rise - rise_ref) < 0.05
        assert abs(fall - fall_ref) < 0.05


def test_edge_delays_match_grid_scan_off_default_params():
    params = PulseModelParams(
        kinetic_inductance_time_ns=1.2,
        hotspot_rise_scale_ps=90.0,
        saturation=0.6,
        threshold=0.55,
        max_photons=4,
    )
    for n in range(1, 5):
        rise, fall = edge_delays(n, params)
        rise_ref, fall_ref = scan_crossings(n, params)
        assert abs(rise - rise_ref) < 0.05
        assert abs(fall - fall_ref) < 0.05


def test_pulse_peak_matches_grid_argmax():
    params = PulseModelParams()
    t = np.arange(0.01, 4000.0, 0.01)
    for n in (1, 3, 6):
        v = pulse_value(t, n, params)
        t_peak, v_peak = pulse_peak(n, params)
        assert abs(t_peak - t[np.argmax(v)]) < 0.02
        assert v_peak == pytest.approx(v.max(), rel=1e-8)


# ---------------------------------------------------------------- edge delays

def test_more_photons_rise_earlier_and_fall_later():
    params = PulseModelParams()
    r1, f1 = edge_delays(1, params)
    r2, f2 = edge_delays(2, params)
    assert r2 < r1
    assert f2 > f1


def test_monotonicity_over_full_range():
    params = PulseModelParams()
    rise, fall = edge_delay_table(params)
    assert np.all(np.diff(rise) < 0)
    assert np.all(np.diff(fall) > 0)


def test_vanishing_threshold_sends_rise_to_zero():
    params = PulseModelParams(threshold=1e-7)
    for n in range(1, 7):
        rise, _ = edge_delays(n, params)
        assert rise < 0.1


@pytest.mark.parametrize(
    "params",
    [
        PulseModelParams(),
        PulseModelParams(kinetic_inductance_time_ns=1.2, hotspot_rise_scale_ps=90.0, saturation=0.6, threshold=0.55),
        PulseModelParams(kinetic_inductance_time_ns=0.3, hotspot_rise_scale_ps=400.0, saturation=1.0, threshold=0.15, max_photons=9),
        PulseModelParams(threshold=0.05, saturation=0.1, max_photons=12),
    ],
)
def test_edge_delays_root_as_scipy_brentq_does(params, monkeypatch):
    """The edge delays are the doubles scipy.optimize.brentq finds, for every n."""
    got = [edge_delays(n, params) for n in range(1, params.max_photons + 1)]
    monkeypatch.setattr(sim, "_brentq", brentq)
    assert got == [edge_delays(n, params) for n in range(1, params.max_photons + 1)]


def test_edge_delays_rejects_out_of_range_n():
    params = PulseModelParams()
    with pytest.raises(ValueError):
        edge_delays(0, params)
    with pytest.raises(ValueError):
        edge_delays(params.max_photons + 1, params)


def test_threshold_above_peak_is_rejected_at_construction():
    with pytest.raises(ConfigError, match="not below the n=1 pulse peak"):
        PulseModelParams(threshold=0.99)  # n=1 peak sits near 0.72


def test_param_validation():
    with pytest.raises(ValueError):
        PulseModelParams(kinetic_inductance_time_ns=0.0)
    with pytest.raises(ValueError):
        PulseModelParams(saturation=1.5)
    with pytest.raises(ValueError):
        PulseModelParams(propagation_delay_ps=-1.0)
    with pytest.raises(ValueError):
        JitterParams(detector_rms=-0.1)
    with pytest.raises(ValueError, match="max_photons must be at least 1"):
        PulseModelParams(max_photons=0)
    with pytest.raises(ValueError):
        SourceSpec(kind="thermal")
    with pytest.raises(ValueError, match="coherent_channel must be 'A', 'B', or 'both'"):
        SourceSpec(coherent_channel="C")
    with pytest.raises(ValueError):
        SourceSpec(efficiency_a=1.2)
    for rate in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="repetition_rate_hz"):
            SourceSpec(repetition_rate_hz=rate)


@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in (SourceSpec, PulseModelParams, JitterParams) for f in fields(cls) if f.type == "float"],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_float_fields_refuse_non_finite_values(cls, name, value):
    with pytest.raises(ValueError, match="finite|must lie in"):
        cls(**{name: value})


def test_unsaturated_amplitude_is_linear_in_n():
    from pnrtiming.simulate import pulse_amplitude

    params = PulseModelParams(saturation=1.0, threshold=0.3)
    assert pulse_amplitude(3, params) == pytest.approx(3.0)


# ---------------------------------------------------------------- source sampling

def test_coherent_mu_zero_gives_all_dark_triggers():
    truth = sample_source(SourceSpec(mu=0.0), 1000, seed=1)
    assert not truth.true_n_a.any()
    assert not truth.true_n_b.any()


def test_ideal_noon2_never_yields_coincident_singles():
    spec = SourceSpec(kind="noon2", visibility=1.0, efficiency_a=1.0, efficiency_b=1.0)
    truth = sample_source(spec, 50_000, seed=2)
    both_one = (truth.true_n_a == 1) & (truth.true_n_b == 1)
    assert not both_one.any()
    # every pair lands entirely on one arm
    assert np.all(truth.true_n_a + truth.true_n_b == 2)


def test_thinning_preserves_poisson_mean():
    spec = SourceSpec(mu=2.0, efficiency_a=0.86)
    n = 1_000_000
    truth = sample_source(spec, n, seed=3)
    mean = truth.true_n_a.mean()
    sigma = math.sqrt(2.0 * 0.86 / n)  # Poisson(eta*mu) variance
    assert abs(mean - 1.72) < 3 * sigma


def test_thinned_coherent_counts_are_poisson():
    # binomial thinning of Poisson(mu) must give exactly Poisson(eta*mu)
    spec = SourceSpec(mu=4.0, efficiency_a=0.86)
    truth = sample_source(spec, 1_000_000, seed=4)
    counts = np.bincount(truth.true_n_a, minlength=12)
    counts = np.concatenate([counts[:11], [counts[11:].sum()]])
    probs = poisson.pmf(np.arange(11), 3.44)
    probs = np.concatenate([probs, [1.0 - probs.sum()]])
    stat, pvalue = chisquare(counts, probs * counts.sum())
    assert pvalue > 0.01


def test_sample_source_is_deterministic():
    spec = SourceSpec()
    a = sample_source(spec, 70_000, seed=5)
    b = sample_source(spec, 70_000, seed=5)
    np.testing.assert_array_equal(a.true_n_a, b.true_n_a)
    assert not np.array_equal(a.true_n_a, sample_source(spec, 70_000, seed=6).true_n_a)


# ---------------------------------------------------------------- stream generation

def test_noiseless_single_trigger_tags_sit_at_edge_delays():
    # every detection is clamped to n_eff=3, so the single trigger is exact
    pulse = PulseModelParams(max_photons=3, propagation_delay_ps=0.0)
    spec = SourceSpec(mu=50.0, efficiency_a=1.0)
    tags, truth = simulate_stream(spec, pulse, NO_JITTER, 1, seed=11)
    assert truth.true_n_a[0] >= 3
    rise, fall = edge_delays(3, pulse)
    assert list(tags.channels) == [0, 1, 2]
    assert tags.timestamps[0] == 0
    assert tags.timestamps[1] == round(rise * 10)
    assert tags.timestamps[2] == round(fall * 10)


def test_noiseless_pairing_recovers_the_delay_table():
    pulse = PulseModelParams()
    spec = SourceSpec()
    tags, truth = simulate_stream(spec, pulse, NO_JITTER, 5000, seed=12)
    events = pair_edges(tags, window_ps=8000.0, detector="A")
    np.testing.assert_array_equal(events.detection, np.flatnonzero(truth.true_n_a >= 1))

    rise_tab, fall_tab = edge_delay_table(pulse)
    n_eff = np.minimum(truth.true_n_a, pulse.max_photons)[events.detection]
    want_rise = pulse.propagation_delay_ps + rise_tab[n_eff - 1]
    want_fall = pulse.propagation_delay_ps + fall_tab[n_eff - 1]
    rise, fall = events.detected()
    # exact up to the 0.1 ps timestamp quantization
    assert np.max(np.abs(rise - want_rise)) <= 0.05
    assert np.max(np.abs(fall - want_fall)) <= 0.05


def test_jitter_scales_match_the_model(sim_50k):
    tags, truth = sim_50k
    events = pair_edges(tags, window_ps=8000.0, detector="A")
    three = np.minimum(truth.true_n_a, 6)[events.detection] == 3
    rise, fall = (delays[three] for delays in events.detected())
    expect_rms = math.hypot(8.1, 1.3)
    assert rise.std() == pytest.approx(expect_rms, rel=0.05)
    assert fall.std() == pytest.approx(expect_rms, rel=0.05)

    # the detector term is one shared draw per pulse
    expect_corr = 8.1**2 / (8.1**2 + 1.3**2)
    corr = np.corrcoef(rise, fall)[0, 1]
    assert corr == pytest.approx(expect_corr, rel=0.05)


def test_simulated_streams_are_seed_deterministic_and_worker_invariant():
    spec, pulse, jitter = SourceSpec(), PulseModelParams(), JitterParams()
    a, _ = simulate_stream(spec, pulse, jitter, 150_000, seed=13)
    b, _ = simulate_stream(spec, pulse, jitter, 150_000, seed=13, workers=4)
    np.testing.assert_array_equal(a.channels, b.channels)
    np.testing.assert_array_equal(a.timestamps, b.timestamps)
    c, _ = simulate_stream(spec, pulse, jitter, 150_000, seed=14)
    assert not np.array_equal(a.timestamps, c.timestamps)


@pytest.mark.parametrize(
    "spec",
    [
        SourceSpec(coherent_channel="both"),
        SourceSpec(kind="spdc_pairs", pair_prob=0.3, multi_pair=True),
        SourceSpec(kind="noon2", pair_prob=0.5, visibility=0.9),
    ],
)
@pytest.mark.parametrize("workers", [1, 4])
def test_stream_truth_is_the_source_draw(spec, workers):
    # 150,000 triggers span three RNG chunks
    _, truth = simulate_stream(spec, PulseModelParams(), JitterParams(), 150_000, seed=21, workers=workers)
    want = sample_source(spec, 150_000, seed=21)
    for name in ("trigger_index", "true_n_a", "true_n_b"):
        np.testing.assert_array_equal(getattr(truth, name), getattr(want, name))


def test_stream_is_sorted_on_the_documented_channels():
    # 5 MHz triggers and two-arm light put tags of many chunks and channels close together
    spec = SourceSpec(coherent_channel="both", repetition_rate_hz=5e6)
    tags, truth = simulate_stream(spec, PulseModelParams(), JitterParams(), 150_000, seed=22, workers=2)
    assert tags.is_sorted()
    assert np.all(np.diff(tags.timestamps) >= 0)
    counts = np.bincount(tags.channels, minlength=CHANNEL_COUNT)
    assert set(np.flatnonzero(counts).tolist()) <= {CH_TRIGGER, *sum(DETECTOR_CHANNELS.values(), ())}
    assert counts[CH_TRIGGER] == 150_000
    for det, n in (("A", truth.true_n_a), ("B", truth.true_n_b)):
        for ch in DETECTOR_CHANNELS[det]:
            assert counts[ch] == np.count_nonzero(n)


def test_repetition_rate_leaves_delays_unchanged():
    pulse, jitter = PulseModelParams(), JitterParams()
    slow, _ = simulate_stream(SourceSpec(repetition_rate_hz=1e5), pulse, jitter, 2000, seed=15)
    fast, _ = simulate_stream(SourceSpec(repetition_rate_hz=5e5), pulse, jitter, 2000, seed=15)
    ev_slow = pair_edges(slow, window_ps=8000.0, detector="A")
    ev_fast = pair_edges(fast, window_ps=8000.0, detector="A")
    np.testing.assert_array_equal(ev_slow.detection, ev_fast.detection)
    np.testing.assert_allclose(ev_slow.detected()[0], ev_fast.detected()[0])
    np.testing.assert_allclose(ev_slow.detected()[1], ev_fast.detected()[1])


@pytest.mark.parametrize("rate", [3e5, 76e6])
def test_trigger_period_off_the_tag_grid_rounds_each_trigger(rate):
    # 1e13 / rate tag units is no whole number, so each nominal time is rounded on its own
    spec = SourceSpec(repetition_rate_hz=rate, trigger_channel_jitter_ps=0.0)
    tags, _ = simulate_stream(spec, PulseModelParams(), NO_JITTER, 20_000, seed=5)
    trig = tags.timestamps[tags.channels == CH_TRIGGER]
    i = np.arange(20_000)
    assert 1e13 / rate != round(1e13 / rate)
    np.testing.assert_array_equal(trig, np.rint(i * 1e13 / rate).astype(np.int64))


def test_trigger_period_must_outlast_the_pulse():
    # the longest pulse falls 2.85 ns after arrival at the defaults
    pulse, jitter = PulseModelParams(), JitterParams()
    tags, _ = simulate_stream(SourceSpec(repetition_rate_hz=2e8), pulse, jitter, 100, seed=16)
    assert len(tags) > 100
    with pytest.raises(ConfigError, match="pile up"):
        simulate_stream(SourceSpec(repetition_rate_hz=4e8), pulse, jitter, 100, seed=16)


def test_trigger_clock_must_fit_64_bit_timestamps():
    # 1 mHz is a 1e16-unit period, so 923 triggers span 2**63 units and 922 do not
    pulse, jitter = PulseModelParams(), JitterParams()
    for rate, n in ((1e-3, 923), (1e-3, 1000), (1e-300, 1), (1e-300, 0)):
        with pytest.raises(ConfigError, match="64-bit"):
            simulate_stream(SourceSpec(repetition_rate_hz=rate), pulse, jitter, n, seed=1)
    tags, _ = simulate_stream(SourceSpec(repetition_rate_hz=1e-3), pulse, jitter, 922, seed=1)
    trig = tags.timestamps[tags.channels == 0]
    assert np.all(np.abs(trig - np.arange(922) * 10**16) < 1000)


def test_detection_exists_iff_photons_arrived(sim_50k):
    tags, truth = sim_50k
    events = pair_edges(tags, window_ps=8000.0, detector="A")
    np.testing.assert_array_equal(events.detection, np.flatnonzero(truth.true_n_a >= 1))
    assert events.orphan_edges == 0


def test_empty_and_invalid_simulation_arguments():
    spec, pulse, jitter = SourceSpec(), PulseModelParams(), JitterParams()
    tags, truth = simulate_stream(spec, pulse, jitter, 0, seed=1)
    assert len(tags) == 0
    assert len(truth) == 0
    with pytest.raises(ValueError):
        simulate_stream(spec, pulse, jitter, -1, seed=1)
    with pytest.raises(ValueError):
        simulate_stream(spec, pulse, jitter, 10, seed=-1)


def test_source_draw_takes_only_non_negative_integers():
    spec = SourceSpec()
    assert len(sample_source(spec, np.int64(3), np.int64(2))) == 3
    for n_triggers, seed in ((True, 1), (2.5, 1), (10, False), (10, "x"), (10, -1)):
        with pytest.raises(ConfigError, match="must be a non-negative integer"):
            sample_source(spec, n_triggers, seed)


def test_source_draw_refuses_photon_numbers_above_the_range():
    # a truth file with such a draw could not be read back
    with pytest.raises(ConfigError, match=r"trigger 0 draws 381 photons on detector A, above 255"):
        sample_source(SourceSpec(mu=400.0), 200, seed=1234)
    spec = SourceSpec(mu=400.0, efficiency_a=0.5, coherent_channel="both")
    with pytest.raises(ConfigError, match=r"trigger \d+ draws \d+ photons on detector B"):
        sample_source(spec, 200, seed=1234)


def test_truth_csv_refuses_negative_photon_numbers(tmp_path):
    # the confusion matrix has no row for a negative photon number
    path = tmp_path / "truth.csv"
    path.write_text("trigger_index,true_n_a,true_n_b\n0,1,0\n1,0,-1\n")
    with pytest.raises(StreamFormatError, match="line 3"):
        TruthBlock.from_csv(path)


@pytest.mark.parametrize("value", [256, 10**8])
def test_truth_csv_refuses_photon_numbers_past_255(tmp_path, value):
    # the confusion matrix is sized by the largest truth value; 10**8 asked for 71.1 PiB
    path = tmp_path / "truth.csv"
    path.write_text(f"trigger_index,true_n_a,true_n_b\n0,255,0\n1,0,{value}\n")
    with pytest.raises(StreamFormatError, match=rf"line 3: photon number {value} outside \[0, 255\]"):
        TruthBlock.from_csv(path)


def test_truth_block_csv_round_trip(tmp_path):
    truth = TruthBlock(
        np.arange(4, dtype=np.int64),
        np.array([0, 2, 1, 5], dtype=np.int64),
        np.array([1, 0, 0, 3], dtype=np.int64),
    )
    path = tmp_path / "truth.csv"
    truth.to_csv(path)
    back = TruthBlock.from_csv(path)
    np.testing.assert_array_equal(back.true_n_a, truth.true_n_a)
    np.testing.assert_array_equal(back.true_n_b, truth.true_n_b)
    np.testing.assert_array_equal(back.trigger_index, truth.trigger_index)
