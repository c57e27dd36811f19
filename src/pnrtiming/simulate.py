"""Synthetic SNSPD time-tag streams with photon-number dependent edge timing.

The electrical pulse for an n-photon absorption is modelled as

    v_n(t) = A_n * (1 - exp(-t / tau_r(n))) * exp(-t / tau_fall)

with a rise constant tau_r(n) = tau_1 / n (n hotspots shorten the turn-on)
and an amplitude A_n = (1 - s**n) / (1 - s), in units of the single-photon
amplitude, that compresses geometrically with the saturation parameter s.
More photons therefore steepen the rising edge (earlier threshold crossing)
and enlarge the amplitude (later falling crossing), which is what makes the
pair (rise delay, fall delay) carry photon-number information.

Default parameter values are tuned so the simulated clusters separate the
way a real device does at a detected mean near 3.4 photons; they are fit
parameters, not measured device constants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import ConfigError
from .photostat import MAX_PHOTON_NUMBER, _brentq
from .timetags import CH_TRIGGER, DETECTOR_CHANNELS, UNITS_PER_PS, TagBlock, _thread_map

_CHUNK = 1 << 16  # triggers per RNG chunk; fixed so output is worker-count independent
_SOURCE_KINDS = ("coherent", "spdc_pairs", "noon2")


def pulse_amplitude(n: int, params: "PulseModelParams") -> float:
    s = params.saturation
    if s == 1.0:
        return float(n)
    return (1.0 - s**n) / (1.0 - s)


def pulse_value(t, n: int, params: "PulseModelParams"):
    """Pulse voltage at time t (ps) after arrival, vectorized over t."""
    t = np.asarray(t, dtype=float)
    tau_r = params.hotspot_rise_scale_ps / n
    tau_f = 1000.0 * params.kinetic_inductance_time_ns
    v = pulse_amplitude(n, params) * (1.0 - np.exp(-t / tau_r)) * np.exp(-t / tau_f)
    return np.where(t > 0, v, 0.0)


def pulse_peak(n: int, params: "PulseModelParams") -> tuple[float, float]:
    """(time, value) of the pulse maximum, from the closed-form turning point."""
    tau_r = params.hotspot_rise_scale_ps / n
    tau_f = 1000.0 * params.kinetic_inductance_time_ns
    t_peak = tau_r * math.log1p(tau_f / tau_r)
    u = tau_r / (tau_r + tau_f)
    v_peak = pulse_amplitude(n, params) * (1.0 - u) * u ** (tau_r / tau_f)
    return t_peak, v_peak


@dataclass(frozen=True)
class PulseModelParams:
    """Electrical pulse shape and discriminator threshold.

    Voltages are in units of the single-photon amplitude: every threshold
    crossing depends only on the ratio of threshold to that amplitude, so a
    separate amplitude scale would duplicate the threshold.

    kinetic_inductance_time_ns : decay constant of the falling tail (ns)
    hotspot_rise_scale_ps      : single-photon rise constant tau_1 (ps)
    saturation                 : geometric amplitude compression, in (0, 1]
    threshold                  : discriminator level, in single-photon
                                 amplitudes; must sit below every peak
    max_photons                : highest photon number with a distinct waveform,
                                 in [1, 255]; larger counts reuse its pulse
    propagation_delay_ps       : fixed cabling/amplifier delay between the
                                 optical trigger and the electrical pulse;
                                 keeps jittered rise tags after the trigger
                                 so pairing windows never clip them
    """

    kinetic_inductance_time_ns: float = 2.0
    hotspot_rise_scale_ps: float = 200.0
    saturation: float = 0.4
    threshold: float = 0.4
    max_photons: int = 6
    propagation_delay_ps: float = 500.0

    def __post_init__(self):
        # chained comparisons, which NaN fails, so a NaN field is refused too
        if not (0 < self.kinetic_inductance_time_ns < math.inf and 0 < self.hotspot_rise_scale_ps < math.inf):
            raise ValueError("time constants must be positive and finite")
        if not 0 <= self.propagation_delay_ps < math.inf:
            raise ValueError("propagation_delay_ps must be non-negative and finite")
        if not 0.0 < self.saturation <= 1.0:
            raise ValueError("saturation must lie in (0, 1]")
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        # checked before the loop below, which runs once per photon number
        if not 1 <= self.max_photons <= MAX_PHOTON_NUMBER:
            raise ConfigError(f"max_photons must be at least 1 and at most {MAX_PHOTON_NUMBER}, not {self.max_photons}")
        for n in range(1, self.max_photons + 1):
            _, v_peak = pulse_peak(n, self)
            if v_peak <= self.threshold:
                raise ConfigError(
                    f"threshold {self.threshold} is not below the n={n} pulse peak {v_peak:.4g}"
                )


def edge_delays(n: int, params: PulseModelParams) -> tuple[float, float]:
    """Noise-free (rise_delay, fall_delay) in ps for an n-photon pulse.

    The rise delay is the first upward threshold crossing, the fall delay
    the last downward crossing, both located by bracketed root finding on
    the single-peaked waveform.
    """
    if not 1 <= n <= params.max_photons:
        raise ValueError(f"n must lie in [1, {params.max_photons}]")
    thr = params.threshold
    t_peak, v_peak = pulse_peak(n, params)

    def over(t):
        return float(pulse_value(t, n, params)) - thr

    rise = _brentq(over, 0.0, t_peak, xtol=1e-9)
    tau_f = 1000.0 * params.kinetic_inductance_time_ns
    hi = t_peak + tau_f * math.log(v_peak / thr) + 1.0
    while over(hi) >= 0.0:
        hi *= 2.0
    fall = _brentq(over, t_peak, hi, xtol=1e-9)
    return rise, fall


def edge_delay_table(params: PulseModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Rise/fall delay lookup for n = 1 .. max_photons."""
    pairs = [edge_delays(n, params) for n in range(1, params.max_photons + 1)]
    rise, fall = zip(*pairs)
    return np.array(rise), np.array(fall)


@dataclass(frozen=True)
class JitterParams:
    """Gaussian timing noise (RMS, ps).

    detector_rms applies one shared draw per pulse to both edges of
    detector A (the pulse as a whole arrives early or late), while
    tagger_rms_per_channel is drawn independently for every tag.
    """

    detector_rms: float = 8.1
    tagger_rms_per_channel: float = 1.3
    detector_b_rms: float = 9.2

    def __post_init__(self):
        for name in ("detector_rms", "tagger_rms_per_channel", "detector_b_rms"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")


@dataclass(frozen=True)
class SourceSpec:
    """Light source and per-trigger photon statistics.

    kind = "coherent":   Poisson(mu) photons on ``coherent_channel``.
    kind = "spdc_pairs": a photon pair split onto A and B with probability
                         pair_prob; multi_pair=True draws a Poisson number
                         of pairs with mean pair_prob instead.
    kind = "noon2":      a two-photon interference outcome with visibility v:
                         (2,0) and (0,2) each with probability (1+v)/4 and
                         (1,1) with probability (1-v)/2, per generated pair.

    Counts are thinned per arm by efficiency_a / efficiency_b (binomial loss).
    """

    kind: str = "coherent"
    mu: float = 3.43 / 0.86
    pair_prob: float = 1.0
    multi_pair: bool = False
    visibility: float = 1.0
    coherent_channel: str = "A"
    repetition_rate_hz: float = 1e5
    efficiency_a: float = 0.86
    efficiency_b: float = 0.86
    trigger_channel_jitter_ps: float = 0.0

    def __post_init__(self):
        if self.kind not in _SOURCE_KINDS:
            raise ValueError(f"kind must be one of {_SOURCE_KINDS}")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be non-negative and finite")
        if not 0.0 <= self.pair_prob <= 1.0:
            raise ValueError("pair_prob must lie in [0, 1]")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if self.coherent_channel not in ("A", "B", "both"):
            raise ValueError("coherent_channel must be 'A', 'B', or 'both'")
        if not 0 < self.repetition_rate_hz < math.inf:
            raise ValueError("repetition_rate_hz must be positive and finite")
        for name in ("efficiency_a", "efficiency_b"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0 <= self.trigger_channel_jitter_ps < math.inf:
            raise ValueError("trigger_channel_jitter_ps must be non-negative and finite")


@dataclass(eq=False)
class TruthBlock:
    """Per-trigger photon numbers that actually reached each detector."""

    trigger_index: np.ndarray  # int64
    true_n_a: np.ndarray  # int64
    true_n_b: np.ndarray

    def __len__(self) -> int:
        return self.trigger_index.size

    def to_csv(self, path) -> None:
        header = "trigger_index,true_n_a,true_n_b"
        textio.write_int_csv(path, header, self.trigger_index, self.true_n_a, self.true_n_b)

    @classmethod
    def from_csv(cls, path) -> "TruthBlock":
        """Truth from ``to_csv``'s table; a photon number outside
        [0, MAX_PHOTON_NUMBER] raises StreamFormatError naming its line."""
        header, data = textio.read_csv(path, 1, 3)
        textio.check_photon_numbers(path, header, data[:, 1:], MAX_PHOTON_NUMBER)
        return cls(data[:, 0], data[:, 1], data[:, 2])


def _chunk_ranges(n: int):
    # an empty run is one empty chunk, so its arrays still concatenate
    for idx, start in enumerate(range(0, max(n, 1), _CHUNK)):
        yield idx, start, min(start + _CHUNK, n)


def _sample_counts_chunk(spec: SourceSpec, m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    if spec.kind == "coherent":
        raw = rng.poisson(spec.mu, m)
        zeros = np.zeros(m, dtype=np.int64)
        if spec.coherent_channel == "A":
            return rng.binomial(raw, spec.efficiency_a), zeros
        if spec.coherent_channel == "B":
            return zeros, rng.binomial(raw, spec.efficiency_b)
        raw_b = rng.poisson(spec.mu, m)
        return rng.binomial(raw, spec.efficiency_a), rng.binomial(raw_b, spec.efficiency_b)
    if spec.kind == "spdc_pairs":
        if spec.multi_pair:
            pairs = rng.poisson(spec.pair_prob, m)
        else:
            pairs = (rng.random(m) < spec.pair_prob).astype(np.int64)
        return rng.binomial(pairs, spec.efficiency_a), rng.binomial(pairs, spec.efficiency_b)
    # noon2: outcome per generated pair, then per-arm loss
    has_pair = rng.random(m) < spec.pair_prob
    u = rng.random(m)
    v = spec.visibility
    raw_a = np.where(u < (1.0 + v) / 4.0, 2, np.where(u < (1.0 + v) / 2.0, 0, 1))
    raw_b = np.where(u < (1.0 + v) / 4.0, 0, np.where(u < (1.0 + v) / 2.0, 2, 1))
    raw_a = np.where(has_pair, raw_a, 0)
    raw_b = np.where(has_pair, raw_b, 0)
    return rng.binomial(raw_a, spec.efficiency_a), rng.binomial(raw_b, spec.efficiency_b)


def sample_source(spec: SourceSpec, n_triggers: int, seed: int) -> TruthBlock:
    """Draw per-trigger photon numbers (post-loss) for both detector arms;
    n_triggers and seed must be non-negative integers, and a draw above
    MAX_PHOTON_NUMBER raises ConfigError naming its trigger."""
    for name, value in (("n_triggers", n_triggers), ("seed", seed)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
            raise ConfigError(f"{name} must be a non-negative integer, not {value!r}")
    n_a = np.zeros(n_triggers, dtype=np.int64)
    n_b = np.zeros(n_triggers, dtype=np.int64)
    for idx, start, stop in _chunk_ranges(n_triggers):
        rng = np.random.default_rng([seed, idx, 0])
        a, b = _sample_counts_chunk(spec, stop - start, rng)
        over = np.flatnonzero((a > MAX_PHOTON_NUMBER) | (b > MAX_PHOTON_NUMBER))
        if over.size:
            i = int(over[0])
            arm, n = ("A", a[i]) if a[i] > MAX_PHOTON_NUMBER else ("B", b[i])
            raise ConfigError(
                f"trigger {start + i} draws {n} photons on detector {arm}, above {MAX_PHOTON_NUMBER}; "
                "lower the source's mean photon number"
            )
        n_a[start:stop] = a
        n_b[start:stop] = b
    return TruthBlock(np.arange(n_triggers, dtype=np.int64), n_a, n_b)


def _nominal_trigger_units(start: int, stop: int, rate_hz: float) -> np.ndarray:
    period_units = 1e12 / rate_hz * UNITS_PER_PS
    idx = np.arange(start, stop, dtype=np.int64)
    if abs(period_units - round(period_units)) < 1e-9:
        return idx * np.int64(round(period_units))
    return np.rint(idx.astype(np.float64) * period_units).astype(np.int64)


def _quantize(ps: np.ndarray) -> np.ndarray:
    return np.rint(ps * UNITS_PER_PS).astype(np.int64)


def _simulate_chunk(spec, pulse, jitter, seed, idx, start, stop, n_a, n_b, rise_tab, fall_tab):
    """One chunk's tags, sorted by (timestamp, channel), for the chunk's
    photon numbers n_a and n_b; only the timing noise is drawn here."""
    m = stop - start
    noise_rng = np.random.default_rng([seed, idx, 1])

    nominal = _nominal_trigger_units(start, stop, spec.repetition_rate_hz)
    trig_sigma = math.hypot(spec.trigger_channel_jitter_ps, jitter.tagger_rms_per_channel)
    trig_ts = nominal + _quantize(noise_rng.normal(0.0, trig_sigma, m)) if trig_sigma > 0 else nominal.copy()

    channels = [np.full(m, CH_TRIGGER, dtype=np.uint8)]
    stamps = [trig_ts]
    for counts, det_rms, (ch_rise, ch_fall) in (
        (n_a, jitter.detector_rms, DETECTOR_CHANNELS["A"]),
        (n_b, jitter.detector_b_rms, DETECTOR_CHANNELS["B"]),
    ):
        sel = counts > 0
        k = int(np.count_nonzero(sel))
        if k == 0:
            continue
        n_eff = np.minimum(counts[sel], pulse.max_photons)
        shared = noise_rng.normal(0.0, det_rms, k) if det_rms > 0 else np.zeros(k)
        t_rise = noise_rng.normal(0.0, jitter.tagger_rms_per_channel, k)
        t_fall = noise_rng.normal(0.0, jitter.tagger_rms_per_channel, k)
        base = nominal[sel]
        prop = pulse.propagation_delay_ps
        rise_ts = base + _quantize(prop + rise_tab[n_eff - 1] + shared + t_rise)
        fall_ts = base + _quantize(prop + fall_tab[n_eff - 1] + shared + t_fall)
        channels.append(np.full(k, ch_rise, dtype=np.uint8))
        stamps.append(rise_ts)
        channels.append(np.full(k, ch_fall, dtype=np.uint8))
        stamps.append(fall_ts)
    return TagBlock(np.concatenate(channels), np.concatenate(stamps)).sorted()


def simulate_stream(
    spec: SourceSpec,
    pulse: PulseModelParams,
    jitter: JitterParams,
    n_triggers: int,
    seed: int,
    *,
    workers: int = 1,
) -> tuple[TagBlock, TruthBlock]:
    """Generate a sorted tag stream and matching per-trigger truth.

    The truth is ``sample_source(spec, n_triggers, seed)``.  Randomness is
    drawn per fixed-size trigger chunk from seeds derived as (seed, chunk
    index, stream), photon numbers from stream 0 and timing noise from
    stream 1, so the output is byte-identical for a given seed regardless of
    ``workers``.  Each chunk is sorted on its own and copied into the
    stream as it is made, and at most ``workers`` chunks are made ahead of
    the copy, so the stream is built with about its own size in memory;
    the whole stream is sorted again only when trigger jitter
    makes one chunk's tags sort before the previous chunk's.  A trigger
    period no longer than the longest pulse, or a run whose n_triggers
    periods reach 2**63 timestamp units, raises ConfigError.
    """
    truth = sample_source(spec, n_triggers, seed)
    rise_tab, fall_tab = edge_delay_table(pulse)
    period_ps = 1e12 / spec.repetition_rate_hz
    if not period_ps > fall_tab.max():
        raise ConfigError(
            f"trigger period {period_ps:.4g} ps is not longer than the {fall_tab.max():.4g} ps pulse; "
            "pulses would pile up, which the pulse model does not describe"
        )
    if not max(n_triggers, 1) * period_ps * UNITS_PER_PS < 2.0**63:
        raise ConfigError(
            f"a trigger period of {period_ps:.4g} ps over {n_triggers} triggers overflows the 64-bit timestamps"
        )
    jobs = list(_chunk_ranges(n_triggers))

    def run(job):
        idx, start, stop = job
        n_a, n_b = truth.true_n_a[start:stop], truth.true_n_b[start:stop]
        return _simulate_chunk(spec, pulse, jitter, seed, idx, start, stop, n_a, n_b, rise_tab, fall_tab)

    # one trigger tag per trigger, and a rise and a fall per detection on each arm
    n_tags = n_triggers + 2 * int(np.count_nonzero(truth.true_n_a) + np.count_nonzero(truth.true_n_b))
    channels, stamps, n = np.empty(n_tags, np.uint8), np.empty(n_tags, np.int64), 0
    for chunk in _thread_map(run, jobs, workers):  # in chunk order
        channels[n : n + len(chunk)] = chunk.channels
        stamps[n : n + len(chunk)] = chunk.timestamps
        n += len(chunk)
    tags = TagBlock(channels, stamps)
    if not tags.is_sorted():
        tags = tags.sorted()
    return tags, truth


def default_params() -> tuple[PulseModelParams, JitterParams, SourceSpec]:
    """Baseline configuration: a coherent source whose detected mean photon
    number is 0.86 * mu = 3.43 at the default 86% detection efficiency,
    100 kHz triggers, and 8.1 / 1.3 / 9.2 ps RMS jitter terms."""
    return PulseModelParams(), JitterParams(), SourceSpec()
