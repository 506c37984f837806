import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import signal

from pmtrap import analysis as an
from pmtrap import photon_emitter as pe
from pmtrap.config import default_config_yaml, parse_config
from pmtrap.errors import (
    InsufficientDataError,
    NoPeakError,
    UndefinedResultError,
)
from pmtrap.langevin import TimeSeries

import oracles


def white_noise_series(sigma=1.0, n=2**17, dt=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeries(sample_interval=dt, samples=rng.normal(0, sigma, n))


class TestPowerSpectralDensity:
    def test_parseval_white_noise(self):
        series = white_noise_series(sigma=2.5)
        spec = an.power_spectral_density(series)
        assert spec.integral() == pytest.approx(np.var(series.samples), rel=0.01)

    def test_flat_for_white_noise(self):
        series = white_noise_series()
        spec = an.power_spectral_density(series)
        half = len(spec.densities) // 2
        assert np.mean(spec.densities[:half]) == pytest.approx(
            np.mean(spec.densities[half:]), rel=0.03)

    def test_sinusoid_peak(self):
        dt = 1e-6
        t = np.arange(2**16) * dt
        f0 = 1.234e5
        series = TimeSeries(sample_interval=dt,
                            samples=np.sin(2 * np.pi * f0 * t))
        spec = an.power_spectral_density(series, segment_length=8192)
        peak = spec.frequencies[np.argmax(spec.densities)]
        df = spec.frequencies[1] - spec.frequencies[0]
        assert abs(peak - f0) <= df
        # peak width comparable to the resolution bandwidth
        above = spec.densities > spec.densities.max() / 2
        assert np.count_nonzero(above) * df < 3 * spec.resolution_bandwidth
        assert spec.integral() == pytest.approx(np.var(series.samples), rel=0.01)

    def test_parseval_generic_inputs(self):
        # holds for correlated and mixed inputs as well
        rng = np.random.default_rng(3)
        base = rng.normal(0, 1, 2**16)
        corr = np.convolve(base, np.ones(8) / 8, mode="same")
        for samples in (corr, base + np.sin(np.arange(2**16) * 0.05)):
            series = TimeSeries(sample_interval=1e-6, samples=samples)
            spec = an.power_spectral_density(series)
            assert spec.integral() == pytest.approx(np.var(samples), rel=0.01)

    def test_too_short_rejected(self):
        series = white_noise_series(n=512)
        with pytest.raises(InsufficientDataError):
            an.power_spectral_density(series, segment_length=512)

    def test_averages_count_segments_used(self):
        # hop 256 - int(25.6) = 231 fits 5 segments in 1406 samples, while
        # int(256 * 0.9) = 230 would claim 6
        series = white_noise_series(n=1406)
        spec = an.power_spectral_density(series, segment_length=256, overlap=0.1)
        assert spec.averages == 5
        _, ref = signal.welch(series.samples - series.samples.mean(), fs=1e6,
                              window="hann", nperseg=256, noverlap=25,
                              detrend=False)
        np.testing.assert_allclose(spec.densities, ref, rtol=1e-12)
        # three segments of the same hop are too few
        with pytest.raises(InsufficientDataError):
            an.power_spectral_density(white_noise_series(n=256 + 2 * 231 + 230),
                                      segment_length=256, overlap=0.1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           segment_length=st.integers(8, 4096),
           overlap=st.floats(0.0, 0.9),
           extra=st.integers(0, 6),
           tail=st.integers(0, 4095),
           block_segments=st.integers(1, 7))
    def test_matches_scipy_welch(self, seed, segment_length, overlap, extra,
                                 tail, block_segments):
        # scipy.signal.welch is the oracle; blocks of 1-7 segments rarely
        # divide the 4-10 segments
        hop = segment_length - int(segment_length * overlap)
        n = segment_length + (3 + extra) * hop + tail % hop
        x = np.random.default_rng(seed).normal(2.0, 1.5, n)
        series = TimeSeries(sample_interval=1e-6, samples=x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(an, "_PSD_BLOCK_SAMPLES", block_segments * segment_length)
            spec = an.power_spectral_density(series, segment_length=segment_length,
                                             overlap=overlap)
        freqs, ref = signal.welch(x - x.mean(), fs=1e6, window="hann",
                                  nperseg=segment_length,
                                  noverlap=segment_length - hop, detrend=False)
        assert spec.averages == 4 + extra
        np.testing.assert_array_equal(spec.frequencies, freqs)
        np.testing.assert_allclose(spec.densities, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2**21, 2**23])
    def test_memory_bounded(self, n):
        # the segments are windowed and transformed a block at a time, so
        # the working memory does not grow with the trace
        series = white_noise_series(n=n)
        tracemalloc.start()
        try:
            an.power_spectral_density(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           segment_length=st.integers(8, 2048),
           overlap=st.floats(0.0, 0.9),
           extra=st.integers(0, 6),
           tail=st.integers(0, 2047),
           width=st.integers(1, 16),
           offset=st.floats(-10.0, 10.0))
    def test_parseval_property(self, seed, segment_length, overlap, extra,
                               tail, width, offset):
        # Parseval per segment: the estimate integrates to the mean over the
        # segments of sum((w (x - mean))^2) / sum(w^2), for odd and even
        # segment lengths and for white or moving-average inputs
        hop = segment_length - int(segment_length * overlap)
        n = segment_length + (3 + extra) * hop + tail % hop
        noise = np.random.default_rng(seed).normal(0.0, 1.0, n + width - 1)
        x = offset + np.convolve(noise, np.ones(width) / width, mode="valid")
        spec = an.power_spectral_density(TimeSeries(sample_interval=1e-6, samples=x),
                                         segment_length=segment_length,
                                         overlap=overlap)
        w = signal.get_window("hann", segment_length)
        energies = [np.sum((w * (x[start: start + segment_length] - x.mean())) ** 2)
                    for start in range(0, n - segment_length + 1, hop)]
        assert len(energies) == spec.averages
        assert spec.integral() == pytest.approx(np.mean(energies) / np.sum(w**2),
                                                rel=1e-9)


class TestHannWindow:
    def test_matches_scipy(self):
        for n in [*range(1, 4097), 2**16]:
            np.testing.assert_array_equal(an._hann(n), signal.get_window("hann", n))


# float arrays for _peaks: few levels (plateaus and maxima at the ends),
# free floats, and integer histograms smoothed as blink_analysis smooths them
PEAK_INPUTS = st.one_of(
    st.lists(st.integers(0, 3), max_size=40).map(lambda v: np.array(v, float)),
    st.lists(st.floats(-1e3, 1e3), max_size=40).map(lambda v: np.array(v, float)),
    st.lists(st.integers(0, 50), min_size=3, max_size=120).map(
        lambda v: np.convolve(v, np.array([1.0, 2.0, 1.0]) / 4.0, mode="same")),
)


class TestPeaks:
    @settings(max_examples=300, deadline=None)
    @given(x=PEAK_INPUTS)
    @example(x=np.array([0.0, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0]))
    @example(x=np.array([3.0, 1.0, 2.0, 2.0, 0.0, 2.0, 1.0, 3.0]))
    def test_matches_find_peaks(self, x):
        peaks, prominences = an._peaks(x)
        ref, props = signal.find_peaks(x, prominence=0.0)
        np.testing.assert_array_equal(peaks, ref)
        np.testing.assert_array_equal(prominences, props["prominences"])


def lorentzian(f, a, f0, hw, b):
    return a * hw**2 / ((f - f0) ** 2 + hw**2) + b


class TestFitLorentzian:
    def test_noiseless_exact(self):
        f = np.linspace(1e4, 2e7, 5000)
        true = (3.2e-22, 8e6, 0.31e6, 1.7e-24)
        spec = an.Spectrum(frequencies=f, densities=lorentzian(f, *true),
                           resolution_bandwidth=f[1] - f[0], averages=1)
        fit = an.fit_lorentzian(spec)
        assert fit.amplitude == pytest.approx(true[0], rel=1e-6)
        assert fit.center == pytest.approx(true[1], rel=1e-6)
        assert fit.width == pytest.approx(2 * true[2], rel=1e-6)
        assert fit.background == pytest.approx(true[3], rel=1e-4)

    @pytest.mark.parametrize("scale", [0.01, 0.1, 10.0, 100.0])
    def test_noiseless_parameter_decades(self, scale):
        # exact recovery across two decades around the defaults
        f = np.linspace(1e4, 4e7, 6000)
        true = (1e-20 * scale, 6e6 * np.sqrt(scale), 0.4e6 * scale, 1e-23)
        if true[1] > f[-1] / 2 or true[2] > true[1] / 3:
            true = (true[0], 6e6, 0.4e6, true[3])
        spec = an.Spectrum(frequencies=f, densities=lorentzian(f, *true),
                           resolution_bandwidth=f[1] - f[0], averages=1)
        fit = an.fit_lorentzian(spec)
        assert fit.width == pytest.approx(2 * true[2], rel=1e-6)
        assert fit.center == pytest.approx(true[1], rel=1e-6)

    def test_gamma_units(self):
        f = np.linspace(1e4, 2e7, 4000)
        spec = an.Spectrum(frequencies=f,
                           densities=lorentzian(f, 1e-20, 5e6, 0.25e6, 0.0),
                           resolution_bandwidth=f[1] - f[0], averages=1)
        fit = an.fit_lorentzian(spec)
        # fitted FWHM in Hz maps to the angular damping rate via 2 pi
        assert fit.gamma == pytest.approx(2 * np.pi * 0.5e6, rel=1e-6)

    def test_ci_brackets_width(self):
        rng = np.random.default_rng(8)
        f = np.linspace(1e5, 2e7, 2000)
        clean = lorentzian(f, 3e-22, 8e6, 0.31e6, 1e-24)
        noisy = clean * rng.gamma(50, 1 / 50, len(f))
        spec = an.Spectrum(frequencies=f, densities=noisy,
                           resolution_bandwidth=f[1] - f[0], averages=50)
        fit = an.fit_lorentzian(spec)
        assert fit.width_ci95[0] < fit.width < fit.width_ci95[1]

    def test_flat_spectrum_rejected(self):
        series = white_noise_series(seed=11)
        spec = an.power_spectral_density(series)
        with pytest.raises(NoPeakError):
            an.fit_lorentzian(spec)


def poisson_stream(rate, duration, seed, duty=None):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * duration)
    t = np.sort(rng.uniform(0, duration, n))
    ch = rng.integers(0, 2, n).astype(np.uint8)
    return pe.TimeTagStream(channels=ch, timestamps=t, duration=duration)


class TestG2Zero:
    def test_poissonian_source(self):
        stream = poisson_stream(5e4, 2.0, seed=0)
        result = an.g2_zero(stream, 1e-6)
        assert abs(result.g2 - 1.0) < 3 * result.error

    def test_perfect_single_photon(self):
        # at most one event per pulse, split on two channels
        rng = np.random.default_rng(1)
        pulses = np.nonzero(rng.random(1_000_000) < 0.1)[0]
        t = pulses * 1e-6
        ch = rng.integers(0, 2, len(t)).astype(np.uint8)
        stream = pe.TimeTagStream(channels=ch, timestamps=t, duration=1.0)
        result = an.g2_zero(stream, 1e-6)
        assert result.g2 == 0.0
        assert result.zero_lag_counts == 0

    # properties over short Poisson streams (1e3 events, below the
    # few-events warning), with the original 1 s streams as examples
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 1e-3),
           duration=st.just(0.02))
    @example(seed=2, shift=0.37e-6, duration=1.0)
    @pytest.mark.filterwarnings("ignore:fewer than 1e4 events")
    def test_time_shift_invariance(self, seed, shift, duration):
        stream = poisson_stream(5e4, duration, seed=seed)
        shifted = pe.TimeTagStream(channels=stream.channels,
                                   timestamps=stream.timestamps + shift,
                                   duration=stream.duration + shift + 1e-6)
        a = an.g2_zero(stream, 1e-6)
        b = an.g2_zero(shifted, 1e-6)
        assert a.g2 == b.g2
        assert np.array_equal(a.coincidences, b.coincidences)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), duration=st.just(0.02))
    @example(seed=3, duration=1.0)
    @pytest.mark.filterwarnings("ignore:fewer than 1e4 events")
    def test_channel_swap_invariance(self, seed, duration):
        stream = poisson_stream(5e4, duration, seed=seed)
        swapped = pe.TimeTagStream(channels=(1 - stream.channels).astype(np.uint8),
                                   timestamps=stream.timestamps,
                                   duration=stream.duration)
        a = an.g2_zero(stream, 1e-6)
        b = an.g2_zero(swapped, 1e-6)
        assert a.g2 == pytest.approx(b.g2, rel=1e-12)
        # swapping the channels mirrors the pulse lags
        assert np.array_equal(b.coincidences, a.coincidences[::-1])

    def test_merged_single_photon_streams(self):
        exc = pe.ExcitationConfig()
        chain = pe.DetectionChain()
        emitter = pe.EmitterModel(auger_pair_prob=1.0)
        s1 = pe.generate_time_tags(exc, emitter, chain, 1.0, seed=40)
        s2 = pe.generate_time_tags(exc, emitter, chain, 1.0, seed=41)
        t = np.concatenate([s1.timestamps, s2.timestamps])
        ch = np.concatenate([s1.channels, s2.channels])
        order = np.argsort(t, kind="stable")
        merged = pe.TimeTagStream(channels=ch[order], timestamps=t[order],
                                  duration=1.0)
        result = an.g2_zero(merged, 1e-6)
        assert abs(result.g2 - 0.5) < 4 * result.error

    def test_empty_channel_rejected(self):
        stream = pe.TimeTagStream(
            channels=np.zeros(100, dtype=np.uint8),
            timestamps=np.linspace(0, 1, 100), duration=1.0)
        with pytest.raises(UndefinedResultError):
            an.g2_zero(stream, 1e-6)

    def test_few_events_warns(self):
        stream = poisson_stream(2e3, 1.0, seed=4)
        with pytest.warns(UserWarning, match="noisy"):
            an.g2_zero(stream, 1e-6)

    def test_error_positive_with_counts(self):
        stream = poisson_stream(5e4, 1.0, seed=5)
        result = an.g2_zero(stream, 1e-6)
        assert result.error > 0
        assert result.coincidences.min() >= 0

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1)),
                           min_size=2, max_size=80),
           max_lag=st.integers(1, 60))
    def test_coincidences_match_brute_force(self, events, max_lag):
        # repeated (pulse, channel) tuples put several events on one channel
        events.sort()
        pulses = np.array([p for p, _ in events])
        ch = np.array([c for _, c in events], dtype=np.uint8)
        assume(ch.min() != ch.max())  # g2 needs both channels
        stream = pe.TimeTagStream(channels=ch, timestamps=pulses * 1e-6,
                                  duration=1.0)
        first = pulses[0]
        expected = oracles.pulse_lag_coincidences(
            pulses[ch == 0] - first, pulses[ch == 1] - first, max_lag)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            if max_lag > pulses[-1] - first:  # lags that no pair can reach
                with pytest.raises(InsufficientDataError):
                    an.g2_zero(stream, 1e-6, max_lag=max_lag)
                return
            if expected.sum() == expected[max_lag]:  # no side-peak pairs
                with pytest.raises(UndefinedResultError):
                    an.g2_zero(stream, 1e-6, max_lag=max_lag)
                return
            result = an.g2_zero(stream, 1e-6, max_lag=max_lag)
        assert np.array_equal(result.lags, np.arange(-max_lag, max_lag + 1))
        assert result.coincidences.dtype == np.int64
        assert np.array_equal(result.coincidences, expected)

    def test_blocks_do_not_change_histogram(self, monkeypatch):
        stream = poisson_stream(5e4, 1.0, seed=6)
        whole = an.g2_zero(stream, 1e-6, max_lag=20)
        monkeypatch.setattr(an, "_G2_BLOCK_SLOTS", 41 * 7 + 3)
        blocked = an.g2_zero(stream, 1e-6, max_lag=20)
        assert np.array_equal(whole.coincidences, blocked.coincidences)

    @pytest.mark.filterwarnings("ignore:fewer than 1e4 events")
    def test_max_lag_beyond_span_rejected(self):
        # 100 events over about 1e3 pulses: lags past the span hold no pair,
        # so the call fails before sizing a histogram of 2e4 + 1 lags
        rng = np.random.default_rng(9)
        pulses = np.sort(rng.choice(1000, size=100, replace=False))
        stream = pe.TimeTagStream(channels=np.arange(100) % 2,
                                  timestamps=pulses * 1e-6, duration=1e-3)
        with pytest.raises(InsufficientDataError, match="max_lag"):
            an.g2_zero(stream, 1e-6, max_lag=10**4)
        assert an.g2_zero(stream, 1e-6, max_lag=int(pulses[-1] - pulses[0])).g2 >= 0

    def test_memory_bounded_at_long_lag(self):
        # the default 10 s acquisition (~7e5 events); the pair expansion
        # runs in blocks, so even max_lag 2000 stays small
        config = parse_config(yaml.safe_load(default_config_yaml()))
        stream = pe.generate_time_tags(
            config.excitation, config.emitter, config.detection,
            config.acquisition.duration, seed=config.seed)
        tracemalloc.start()
        try:
            result = an.g2_zero(stream, 1.0 / config.excitation.repetition_rate,
                                max_lag=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.coincidences) == 4001
        assert peak < 64e6


class TestBlinkAnalysis:
    def test_constant_rate_peak(self):
        stream = poisson_stream(20e3, 10.0, seed=0)
        hist = an.blink_analysis(stream)
        assert hist.classification == "grey_state_peak"
        # 20 kHz * 500 us = 10 counts per bin
        assert hist.grey_mean_rate == pytest.approx(20e3, rel=0.05)

    def test_two_state_grey_level(self):
        exc = pe.ExcitationConfig()
        chain = pe.DetectionChain()
        emitter = pe.EmitterModel(auger_pair_prob=1.0, blink_mode="two_state",
                                  grey_attenuation=3.0)
        stream = pe.generate_time_tags(exc, emitter, chain, 10.0, seed=50)
        hist = an.blink_analysis(stream)
        bright = pe.expected_count_rate(exc, emitter, chain).rate
        assert hist.classification in ("two_state", "grey_state_peak")
        assert hist.grey_mean_rate == pytest.approx(bright / 3.0, rel=0.10)

    def test_burst_classification(self):
        exc = pe.ExcitationConfig()
        chain = pe.DetectionChain()
        emitter = pe.EmitterModel(auger_pair_prob=1.0, blink_mode="bursts")
        stream = pe.generate_time_tags(exc, emitter, chain, 10.0, seed=51)
        hist = an.blink_analysis(stream)
        assert hist.classification == "exponential_burst"

    def test_deterministic(self):
        stream = poisson_stream(20e3, 5.0, seed=6)
        a = an.blink_analysis(stream)
        b = an.blink_analysis(stream)
        assert a.classification == b.classification
        assert a.grey_mean_rate == b.grey_mean_rate
        assert np.array_equal(a.occurrences, b.occurrences)

    def test_too_short_rejected(self):
        stream = poisson_stream(20e3, 0.2, seed=7)
        with pytest.raises(InsufficientDataError):
            an.blink_analysis(stream)


class TestFitSaturation:
    def test_noiseless_exact(self):
        p_sat = 2.63e-6
        powers = np.linspace(0.2e-6, 12e-6, 10)
        rates = 1.8e5 * (1 - np.exp(-powers / p_sat))
        fit = an.fit_saturation(powers, rates)
        assert fit.saturation_power == pytest.approx(p_sat, rel=1e-6)
        assert fit.amplitude == pytest.approx(1.8e5, rel=1e-6)
        assert fit.spans_saturation

    @pytest.mark.parametrize("p_sat,c", [(0.3e-6, 1e4), (26e-6, 3e6)])
    def test_noiseless_decades(self, p_sat, c):
        powers = np.geomspace(p_sat / 8, p_sat * 8, 12)
        rates = c * (1 - np.exp(-powers / p_sat))
        fit = an.fit_saturation(powers, rates)
        assert fit.saturation_power == pytest.approx(p_sat, rel=1e-6)

    def test_linear_regime_warns(self):
        p_sat = 2.63e-6
        powers = np.linspace(0.01e-6, 0.2e-6, 6)  # far below saturation
        rates = 1.8e5 * (1 - np.exp(-powers / p_sat))
        with pytest.warns(UserWarning, match="ill-conditioned"):
            fit = an.fit_saturation(powers, rates)
        assert not fit.spans_saturation

    def test_noise_recovery_study(self):
        # 5% noise, 8 points: within 15% (median over 100 seeds)
        p_sat = 2.63e-6
        powers = np.geomspace(0.5e-6, 10e-6, 8)
        clean = 1.8e5 * (1 - np.exp(-powers / p_sat))
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rates = clean * (1 + rng.normal(0, 0.05, len(powers)))
            fit = an.fit_saturation(powers, rates)
            errors.append(abs(fit.saturation_power / p_sat - 1.0))
        assert np.median(errors) < 0.15

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            an.fit_saturation([1e-6, 2e-6, 3e-6], [1.0, 2.0, 3.0])
