import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize, signal

from pmtrap import _threads
from pmtrap import analysis as an
from pmtrap import photon_emitter as pe
from pmtrap.config import default_config_yaml, parse_config
from pmtrap.errors import (
    InsufficientDataError,
    NoPeakError,
    UndefinedResultError,
)
from pmtrap.langevin import SeriesBlocks, TimeSeries

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

    @pytest.mark.parametrize("block", [7, 1000])
    def test_streamed_periodic_series_has_no_negative_density(self, block):
        # a period dividing the hop makes every segment's windowed mean equal
        # to the series mean, so bin 0 is ~0; without the clamp at 0, the
        # rounding of the mean shift left it negative in 87 of 164 such
        # block-size/offset cases
        samples = 5.0 + np.sin(2 * np.pi * np.arange(256 * 40) / 16)
        series = TimeSeries(sample_interval=1.0, samples=samples)
        blocks = SeriesBlocks(1.0, len(samples), (
            samples[i: i + block] for i in range(0, len(samples), block)))
        streamed = an.stream_power_spectral_density(blocks, 256)
        whole = an.power_spectral_density(series, 256)
        assert np.all(streamed.densities >= 0)
        np.testing.assert_allclose(streamed.densities, whole.densities,
                                   rtol=1e-12, atol=1e-12 * whole.densities.max())

    @pytest.mark.parametrize("segment_length, overlap",
                             [(0, 0.5), (-8, 0.5), (256, 1.0), (256, -0.1)])
    def test_invalid_segmentation_rejected_before_reading(self, segment_length,
                                                          overlap):
        def blocks():
            raise AssertionError("a block was read")
            yield
        series = SeriesBlocks(1e-6, 2**12, blocks())
        with pytest.raises(ValueError):
            an.stream_power_spectral_density(series, segment_length, overlap)

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


def _series_blocks(x: np.ndarray, size: int) -> SeriesBlocks:
    """``x`` delivered in blocks of ``size`` samples, in one reused buffer."""
    def blocks():
        buffer = np.empty(size)
        for start in range(0, len(x), size):
            block = buffer[: len(x[start: start + size])]
            block[:] = x[start: start + size]
            yield block
    return SeriesBlocks(1e-6, len(x), blocks())


class _Recorded:
    """A lent helper that records the thread of each piece; with ``settle``,
    ``submit`` returns once the helper has done the piece."""

    def __init__(self, lent: _threads.Lent, settle: bool):
        self.lent, self.settle, self.threads = lent, settle, []

    def submit(self, work, *args):
        done = threading.Event()

        def piece(*args):
            self.threads.append(threading.current_thread())
            try:
                return work(*args)
            finally:
                done.set()
        claim = self.lent.submit(piece, *args)
        if self.settle:
            assert done.wait(60)
        return claim


class TestLentHelper:
    # with a helper lent by _threads.both, the odd runs of segments are
    # transformed on the helper, or here when the helper is busy and the
    # claim cancels them; the sums are added in run order either way, so
    # the spectrum is bit-identical to the one without a helper

    @staticmethod
    def _lent(x, read_block, segment_length, overlap, busy):
        # busy: the helper's own call holds it until the spectrum is done
        released = threading.Event()
        recorded = []

        def spectrum(lent):
            recorded.append(_Recorded(lent, settle=not busy))
            try:
                return an.stream_power_spectral_density(
                    _series_blocks(x, read_block), segment_length, overlap,
                    helper=recorded[0])
            finally:
                released.set()
        second = (lambda: released.wait(60)) if busy else (lambda: None)
        return _threads.both(spectrum, second, lend=True)[0], recorded[0].threads

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           segment_length=st.integers(8, 512),
           overlap=st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.9]),
           run_segments=st.integers(1, 6),
           n_runs=st.integers(1, 7),
           last_run=st.integers(1, 6),
           tail=st.integers(0, 511),
           read_block=st.integers(1, 3000),
           offset=st.floats(-10.0, 10.0))
    @example(seed=3, segment_length=256, overlap=0.5, run_segments=4, n_runs=1,
             last_run=4, tail=0, read_block=100, offset=1.0)
    @example(seed=3, segment_length=256, overlap=0.5, run_segments=4, n_runs=2,
             last_run=1, tail=0, read_block=100, offset=1.0)
    @example(seed=3, segment_length=256, overlap=0.5, run_segments=4, n_runs=5,
             last_run=3, tail=7, read_block=1000, offset=1.0)
    def test_bit_identical_to_inline(self, seed, segment_length, overlap,
                                     run_segments, n_runs, last_run, tail,
                                     read_block, offset):
        # n_runs runs of run_segments segments, the last of last_run; a
        # single run holds all segments (at least 4)
        last_run = min(last_run, run_segments)
        n_segments = (n_runs - 1) * run_segments + last_run
        assume(n_segments >= 4)
        hop = segment_length - int(segment_length * overlap)
        n = (n_segments - 1) * hop + segment_length + tail % hop
        x = np.random.default_rng(seed).normal(offset, 1.0, n)
        before = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(an, "_PSD_BLOCK_SAMPLES", run_segments * segment_length)
            inline = an.stream_power_spectral_density(_series_blocks(x, read_block),
                                                      segment_length, overlap)
            on_helper, helper_threads = self._lent(x, read_block, segment_length,
                                                   overlap, busy=False)
            cancelled, cancel_threads = self._lent(x, read_block, segment_length,
                                                   overlap, busy=True)
        assert threading.active_count() == before
        assert len(helper_threads) == len(cancel_threads) == n_runs // 2  # odd runs
        assert all(t is not threading.current_thread() for t in helper_threads)
        assert all(t is threading.current_thread() for t in cancel_threads)
        assert inline.averages == on_helper.averages == cancelled.averages == n_segments
        for spectrum in (on_helper, cancelled):
            assert np.array_equal(spectrum.frequencies, inline.frequencies)
            assert np.array_equal(spectrum.densities, inline.densities)

    def test_stress_more_threads_than_cores(self):
        # four lent spectra at once, threads switching every microsecond:
        # a lane reused before its run is claimed would change the sums
        x = np.random.default_rng(11).normal(1.0, 1.0, 256 * 400)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(an, "_PSD_BLOCK_SAMPLES", 512)  # one segment a run, 399 runs
            inline = an.stream_power_spectral_density(_series_blocks(x, 1000), 512)

            def lent(k):
                spectra[k] = _threads.both(
                    lambda helper: an.stream_power_spectral_density(
                        _series_blocks(x, 1000), 512, helper=helper),
                    lambda: None, lend=True)[0]
            spectra = [None] * 4
            before = threading.active_count()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=lent, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threading.active_count() == before
        assert all(np.array_equal(spectrum.densities, inline.densities)
                   for spectrum in spectra)


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


class TestMedian:
    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=40))
    @example(x=[-0.0])
    @example(x=[-0.0, -0.0])
    @example(x=[0.0, -5e-324])
    def test_equals_np_median(self, x):
        # odd and even lengths; for an even one (a + b) / 2 of the middle two
        x = np.array(x)
        assert np.array_equal(an._median(x), np.median(x), equal_nan=True)
        assert np.float64(an._median(x)).tobytes() == np.median(x).tobytes()


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

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1)),
                           min_size=2, max_size=80),
           max_lag=st.integers(1, 12),
           cuts=st.lists(st.integers(0, 80), max_size=6),
           bin_width=st.sampled_from([1e-6, 2.5e-6, 7e-6]))
    def test_streamed_histograms_match_in_memory(self, events, max_lag, cuts,
                                                 bin_width):
        # any split into blocks, even inside a pulse, gives the histograms
        # of the whole stream: the pulse-lag oracle's and a per-bin bincount
        events.sort()
        pulses = np.array([p for p, _ in events])
        ch = np.array([c for _, c in events], dtype=np.uint8)
        assume(ch.min() != ch.max() and max_lag <= pulses[-1] - pulses[0])
        times = pulses * 1e-6
        edges = [0, *sorted(min(c, len(times)) for c in cuts), len(times)]
        tags = pe.TagBlocks(duration=41e-6, n_events=len(times), blocks=iter(
            [(ch[a:b], times[a:b]) for a, b in zip(edges[:-1], edges[1:])]))
        rates = an.RateBins(41e-6, bin_width)
        expected = oracles.pulse_lag_coincidences(
            pulses[ch == 0] - pulses[0], pulses[ch == 1] - pulses[0], max_lag)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                streamed = an.g2_zero(tags, 1e-6, max_lag=max_lag, rates=rates)
            except UndefinedResultError:  # no side-peak pairs
                assert expected.sum() == expected[max_lag]
                streamed = None
        if streamed is not None:
            assert np.array_equal(streamed.coincidences, expected)
        bins = np.floor(times / bin_width).astype(np.int64)
        n_bins = int(np.floor(41e-6 / bin_width))
        per_bin = np.bincount(bins[bins < n_bins], minlength=n_bins)
        assert np.array_equal(rates.histogram(), np.bincount(per_bin))

    @pytest.mark.filterwarnings("ignore:fewer than 1e4 events")
    def test_multi_event_pulses_split_between_blocks(self):
        # pulses with up to four events per channel, their channels in random
        # order, and blocks that end halfway through a pulse of both channels
        rng = np.random.default_rng(10)
        per_pulse = rng.integers(0, 5, size=(300, 2))
        pulses = np.repeat(np.repeat(np.arange(300), 2), per_pulse.ravel())
        ch = np.repeat(np.tile([0, 1], 300), per_pulse.ravel()).astype(np.uint8)
        ch = ch[np.lexsort((rng.random(len(ch)), pulses))]
        times = pulses * 1e-6
        straddled = [p for p in range(300) if np.all(per_pulse[p] >= 2)][::10]
        cuts = [int(np.searchsorted(pulses, p)) + int(per_pulse[p].sum()) // 2
                for p in straddled]
        assert len(cuts) > 5 and all(pulses[c - 1] == pulses[c] for c in cuts)
        edges = [0, *cuts, len(times)]
        tags = pe.TagBlocks(duration=300e-6, n_events=len(times), blocks=iter(
            [(ch[a:b], times[a:b]) for a, b in zip(edges[:-1], edges[1:])]))
        expected = oracles.pulse_lag_coincidences(pulses[ch == 0], pulses[ch == 1], 30)
        assert np.array_equal(an.g2_zero(tags, 1e-6, max_lag=30).coincidences, expected)
        whole = pe.TimeTagStream(channels=ch, timestamps=times, duration=300e-6)
        assert np.array_equal(an.g2_zero(whole, 1e-6, max_lag=30).coincidences, expected)

    def test_blocks_do_not_change_histogram(self, monkeypatch):
        stream = poisson_stream(5e4, 1.0, seed=6)
        whole = an.g2_zero(stream, 1e-6, max_lag=20)
        monkeypatch.setattr(an, "_G2_BLOCK_PAIRS", 7)
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


def _lorentzian(f, y):
    """Residuals and Jacobian of a * hw^2 / ((f - f0)^2 + hw^2) + b - y."""
    def residuals(p):
        a, f0, hw, b = p
        return a * hw**2 / ((f - f0) ** 2 + hw**2) + b - y

    def jacobian(p):
        a, f0, hw, b = p
        d = (f - f0) ** 2 + hw**2
        return np.column_stack([hw**2 / d, 2.0 * a * hw**2 * (f - f0) / d**2,
                                2.0 * a * hw * (f - f0) ** 2 / d**2,
                                np.ones_like(f)])

    return residuals, jacobian


def _saturation(P, y):
    """Residuals and Jacobian of c (1 - exp(-P / ps)) - y."""
    def residuals(p):
        c, ps = p
        return c * (1.0 - np.exp(-P / ps)) - y

    def jacobian(p):
        c, ps = p
        e = np.exp(-P / ps)
        return np.column_stack([1.0 - e, -c * e * P / ps**2])

    return residuals, jacobian


def _assert_same_minimum(ours, ref):
    """Our fit reaches scipy's cost, and its parameters agree to 1e-3 of
    their standard errors (from scipy's J^T J)."""
    assert ours.success and ref.success
    assert 0.5 * ours.fun @ ours.fun <= ref.cost * (1.0 + 1e-9)
    dof = max(len(ref.fun) - len(ref.x), 1)
    cov = 2.0 * ref.cost / dof * np.linalg.inv(ref.jac.T @ ref.jac)
    sigma = np.sqrt(np.diag(cov))
    assert np.all(np.abs(ours.x - ref.x) <= 1e-3 * sigma + 1e-12 * np.abs(ref.x))


class TestLeastSquaresOracle:
    """``_least_squares`` against scipy's trust-region least squares, with
    the tolerances, bounds and evaluation caps of the package's fits."""

    # noisy spectra, whose standard errors scale the comparison; the
    # background can sit below 0, where its bound at 0 holds
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hw=st.floats(2.0, 30.0),
           f0=st.floats(60.0, 140.0), background=st.floats(-0.05, 0.3),
           noise=st.floats(0.01, 0.1))
    @example(seed=1, hw=10.0, f0=100.0, background=-0.05, noise=0.02)
    def test_lorentzian_matches_scipy(self, seed, hw, f0, background, noise):
        rng = np.random.default_rng(seed)
        f = np.arange(1.0, 201.0)
        y = hw**2 / ((f - f0) ** 2 + hw**2) + background
        y = y * (1.0 + noise * rng.standard_normal(len(f)))
        y = y / np.max(y)
        residuals, jacobian = _lorentzian(f, y)
        lower = [0.0, f[0], 0.1, 0.0]
        upper = [2.0, f[-1], f[-1] - f[0], 1.0]
        p0 = np.clip([0.8, f0 + 3.0, 1.5 * hw, max(background, 0.0)],
                     lower, upper)
        ours = an._least_squares(residuals, jacobian, p0, lower, upper,
                                 max_nfev=200, xtol=1e-12, ftol=1e-12,
                                 gtol=1e-12)
        ref = optimize.least_squares(
            residuals, p0, jac=jacobian, bounds=(lower, upper), method="trf",
            x_scale="jac", max_nfev=200, xtol=1e-12, ftol=1e-12, gtol=1e-12)
        _assert_same_minimum(ours, ref)
        if background <= -0.03:
            # far enough below 0 that the background's bound is active
            assert ref.x[3] < 1e-6 and ours.x[3] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p_sat=st.floats(1e-7, 1e-4),
           amplitude=st.floats(1e3, 1e7), noise=st.floats(0.01, 0.1),
           span=st.floats(2.0, 20.0))
    def test_saturation_matches_scipy(self, seed, p_sat, amplitude, noise,
                                      span):
        rng = np.random.default_rng(seed)
        P = np.geomspace(p_sat / span, p_sat * span, 10)
        y = amplitude * (1.0 - np.exp(-P / p_sat))
        y = y * (1.0 + noise * rng.standard_normal(len(P)))
        residuals, jacobian = _saturation(P, y)
        p0 = [np.max(y), np.median(P)]
        lower, upper = [0.0, 1e-300], [np.inf, np.inf]
        ours = an._least_squares(residuals, jacobian, p0, lower, upper,
                                 max_nfev=200, xtol=1e-14, ftol=1e-14,
                                 gtol=1e-14)
        ref = optimize.least_squares(
            residuals, p0, jac=jacobian, bounds=(lower, upper), method="trf",
            x_scale="jac", max_nfev=200, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        _assert_same_minimum(ours, ref)

    def test_evaluation_cap_reported(self):
        residuals, jacobian = _saturation(np.geomspace(1e-7, 1e-5, 10),
                                          np.linspace(0.0, 1.0, 10))
        ours = an._least_squares(residuals, jacobian, [1.0, 1e-6], [0.0, 1e-300],
                                 [np.inf, np.inf], max_nfev=2, xtol=1e-14,
                                 ftol=1e-14, gtol=1e-14)
        assert not ours.success and ours.nfev == 2
        assert "maximum number of function evaluations" in ours.message

    # a Poisson-like count histogram; the window is +- 4 sqrt(peak) bins
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mean=st.floats(10.0, 200.0),
           spread=st.floats(0.8, 2.0), n_bins=st.integers(2000, 20000))
    # counts clipped at 0 pile up into a peak at 0 that neither fit reaches
    @example(seed=8, mean=10.0, spread=2.0, n_bins=2000)
    def test_gaussian_peak_matches_curve_fit(self, seed, mean, spread, n_bins):
        rng = np.random.default_rng(seed)
        per_bin = np.rint(rng.normal(mean, spread * np.sqrt(mean), n_bins))
        hist = np.bincount(np.clip(per_bin, 0, None).astype(np.int64))
        counts = np.arange(len(hist))
        peak = int(np.argmax(hist))
        got = an._gaussian_peak_fit(counts, hist, peak)
        sigma0 = max(np.sqrt(max(counts[peak], 1.0)), 1.0)
        lo = max(peak - int(4 * sigma0), 0)
        hi = min(peak + int(4 * sigma0) + 1, len(counts))
        try:
            popt, pcov = optimize.curve_fit(
                lambda x, a, mu, s: a * np.exp(-((x - mu) ** 2) / (2.0 * s**2)),
                counts[lo:hi].astype(float), hist[lo:hi].astype(float),
                p0=[hist[peak], counts[peak], sigma0], maxfev=2000)
        except RuntimeError:
            # curve_fit ran out of evaluations: the fit fails here too and
            # the peak position and Poisson width stand in
            assert got == (float(counts[peak]), float(sigma0))
            return
        errors = np.sqrt(np.diag(pcov))
        assert abs(got[0] - popt[1]) <= 1e-3 * errors[1]
        assert abs(got[1] - abs(popt[2])) <= 1e-3 * errors[2]
