import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pmtrap import analysis, constants as const, io_formats, langevin as lv
from pmtrap import mirror_optics as mo
from pmtrap.seeding import rng_for

import oracles

KT = const.BOLTZMANN * 296.0
MASS = 6.5e-21
OMEGA = 2 * np.pi * 1.0e6
STIFFNESS = lv.TrapStiffness(k_z=MASS * OMEGA**2)
GAMMA = 2 * np.pi * 0.62e6


def _detector(z, cfg):
    """The detector readout of a whole trace, fed as views of ``_BLOCK_SAMPLES``."""
    n, block = len(z.samples), lv._BLOCK_SAMPLES
    views = (z.samples[i: i + block] for i in range(0, n, block))
    blocks = lv.SeriesBlocks(z.sample_interval, n, views, z.units, z.seed)
    return lv.detector_blocks(blocks, cfg).collect()


class TestSimulateAxialMotion:
    def test_equipartition(self):
        cfg = lv.SimConfig(time_step=1.2e-8, duration=1.2e-8 * 1_000_000, seed=2)
        series = lv.simulate_axial_motion(STIFFNESS, GAMMA, MASS, 296.0, cfg)
        ratio = np.var(series.samples) * STIFFNESS.k_z / KT
        assert ratio == pytest.approx(1.0, abs=0.03)

    def test_undamped_amplitude_conserved(self):
        # Gamma = 0, T = 0: pure oscillation; per-period amplitude drift
        # below 1e-6 over 1e3 periods (200 samples per period)
        period = 2 * np.pi / OMEGA
        cfg = lv.SimConfig(time_step=period / 200, duration=1000 * period, seed=0)
        series = lv.simulate_axial_motion(STIFFNESS, 0.0, MASS, 0.0, cfg,
                                          initial_state=(1e-9, 0.0))
        per_period = series.samples.reshape(1000, 200)
        amplitudes = np.max(np.abs(per_period), axis=1)
        assert abs(amplitudes[-1] / amplitudes[0] - 1.0) < 1e-6

    def test_oscillation_frequency(self):
        period = 2 * np.pi / OMEGA
        cfg = lv.SimConfig(time_step=period / 200, duration=500 * period, seed=0)
        series = lv.simulate_axial_motion(STIFFNESS, 0.0, MASS, 0.0, cfg,
                                          initial_state=(1e-9, 0.0))
        spec = analysis.power_spectral_density(series, segment_length=8192)
        f_peak = spec.frequencies[np.argmax(spec.densities)]
        assert f_peak == pytest.approx(OMEGA / (2 * np.pi),
                                       abs=2 * spec.frequencies[1])

    @pytest.mark.parametrize("gamma_hz", [0.2e6, 0.62e6, 2.0e6])
    def test_spectral_round_trip(self, gamma_hz):
        # injected width recovered within 5% (median over seeds) across the
        # relevant damping range; stiff trap keeps the peak Lorentzian-like
        omega = 2 * np.pi * 8e6
        stiffness = lv.TrapStiffness(k_z=MASS * omega**2)
        gamma = 2 * np.pi * gamma_hz
        widths = []
        for seed in range(5):
            cfg = lv.SimConfig(time_step=1.9e-9, duration=8e-3, seed=seed)
            series = lv.simulate_axial_motion(stiffness, gamma, MASS, 296.0, cfg)
            spec = analysis.power_spectral_density(series, segment_length=2**16)
            widths.append(analysis.fit_lorentzian(spec).gamma)
        assert np.median(widths) == pytest.approx(gamma, rel=0.05)

    @pytest.mark.parametrize("ratio", [0.0, 0.3, 2.0, 10.0],
                             ids=["undamped", "underdamped", "critical",
                                  "overdamped"])
    def test_transient_matches_stepped_oracle(self, ratio):
        # T = 0: the trace is the deterministic response to (z0, v0) alone
        gamma = ratio * OMEGA
        dt = 1.0 / (20.0 * max(gamma, OMEGA))
        n = 8000
        cfg = lv.SimConfig(time_step=dt, duration=n * dt, seed=0)
        series = lv.simulate_axial_motion(STIFFNESS, gamma, MASS, 0.0, cfg,
                                          initial_state=(1e-9, 2e-3))
        ref = oracles.splitting_transient(OMEGA, gamma, dt, 1e-9, 2e-3, n)
        assert len(series.samples) == n
        assert np.max(np.abs(series.samples - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_deterministic(self):
        cfg = lv.SimConfig(time_step=1.2e-8, duration=1e-3, seed=99)
        a = lv.simulate_axial_motion(STIFFNESS, GAMMA, MASS, 296.0, cfg)
        b = lv.simulate_axial_motion(STIFFNESS, GAMMA, MASS, 296.0, cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_unstable_step_rejected(self):
        cfg = lv.SimConfig(time_step=1e-6, duration=1e-2, seed=0)
        with pytest.raises(ValueError, match="time_step .* too coarse"):
            lv.simulate_axial_motion(STIFFNESS, GAMMA, MASS, 296.0, cfg)

    def test_short_duration_warns(self):
        cfg = lv.SimConfig(time_step=1.2e-8, duration=5e-6, seed=0)
        with pytest.warns(UserWarning, match="duration"):
            lv.simulate_axial_motion(STIFFNESS, GAMMA, MASS, 296.0, cfg)


# the spacing of the subnormal numbers
GRID = 2.0**-1074


def _assert_matches_lfilter(z, gamma, temperature, dt, z0, v0, seed):
    """z within 1e-10 rms of the recurrence run by ``lfilter``.

    Among the subnormal numbers a rounding error is absolute, up to half a
    GRID step.  The two recurrences round at most a dozen times a step
    between them and a few times more for the initial state, and each such
    error reaches z through the impulse response h, so there they may also
    differ by 8 GRID sum |h|.
    """
    # the same noise: the trace's own stream after the given initial state
    xi = rng_for(seed, "axial-motion").standard_normal(len(z) - 1)
    ref = oracles.ar2_lfilter(OMEGA, gamma, const.BOLTZMANN * temperature / MASS,
                              dt, z0, v0, xi)
    # rms taken in units of the peak, which keeps tiny states from
    # underflowing when squared
    peak = np.max(np.abs(ref))
    rms = peak * np.sqrt(np.mean((ref / peak) ** 2)) if peak > 0 else 0.0
    grid = 8.0 * GRID * np.sum(np.abs(oracles.ar2_impulse_response(
        OMEGA, gamma, dt, len(z))))
    assert np.max(np.abs(z - ref)) <= 1e-10 * rms + grid


@pytest.mark.filterwarnings("ignore:duration below")
class TestRecurrenceProperties:
    DT = 1.2e-8

    # gamma and temperature include 0, where the noise input vanishes; the
    # block size splits the trace anywhere.  The example is a trace about
    # 4.5e10 GRID steps high, where the scan and ``lfilter`` round apart by 94
    @settings(max_examples=100, deadline=None)
    @example(gamma=449831.97471380164, temperature=0.0, z0=-2.2250738585e-313,
             v0=-2.2250738585072014e-308, n=676, block=1, seed=0)
    @given(gamma=st.one_of(st.just(0.0), st.floats(1e3, 5e6)),
           temperature=st.one_of(st.just(0.0), st.floats(1.0, 1e3)),
           z0=st.floats(-1e-8, 1e-8), v0=st.floats(-0.1, 0.1),
           n=st.integers(1, 3000), block=st.integers(1, 3000),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_lfilter_oracle(self, gamma, temperature, z0, v0, n,
                                    block, seed):
        cfg = lv.SimConfig(time_step=self.DT, duration=n * self.DT, seed=seed)

        def run():
            return lv.simulate_axial_motion(STIFFNESS, gamma, MASS, temperature,
                                            cfg, initial_state=(z0, v0)).samples

        whole = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lv, "_BLOCK_SAMPLES", block)
            split = run()
        assert np.array_equal(whole, split)
        _assert_matches_lfilter(whole, gamma, temperature, self.DT, z0, v0, seed)

    # the scan's three routes: a conjugate pair (projection below
    # Gamma = 2 Omega, cascade close to it), a double root and two real
    # roots; dt from 1/2 to all of the limit 1/(10 max(Gamma, Omega))
    # the example is a real cascade at T = 0 whose trace ends among the
    # subnormal numbers
    @settings(max_examples=100, deadline=None)
    @example(ratio=3.0, step=0.5, temperature=0.0, z0=1e-300, v0=1e-294,
             n=3000, seed=0)
    @given(ratio=st.one_of(st.floats(0.0, 3.0),
                           st.sampled_from([2.0 - 1e-6, 2.0, 2.0 + 1e-6])),
           step=st.floats(0.5, 0.999), temperature=st.floats(1.0, 1e3),
           z0=st.floats(-1e-8, 1e-8), v0=st.floats(-0.1, 0.1),
           n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_matches_lfilter_across_damping(self, ratio, step, temperature,
                                            z0, v0, n, seed):
        gamma = ratio * OMEGA
        dt = step / (10.0 * max(gamma, OMEGA))
        cfg = lv.SimConfig(time_step=dt, duration=n * dt, seed=seed)
        z = lv.simulate_axial_motion(STIFFNESS, gamma, MASS, temperature, cfg,
                                     initial_state=(z0, v0)).samples
        assert len(z) == n
        _assert_matches_lfilter(z, gamma, temperature, dt, z0, v0, seed)

    # 40 batches of 200/Gamma each; the spread of the batch means of z^2
    # gives the standard error
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), temperature=st.floats(1.0, 1e3))
    def test_equipartition(self, seed, temperature):
        batches, per_batch = 40, int(200.0 / (GAMMA * self.DT))
        n = batches * per_batch
        cfg = lv.SimConfig(time_step=self.DT, duration=n * self.DT, seed=seed)
        z = lv.simulate_axial_motion(STIFFNESS, GAMMA, MASS, temperature,
                                     cfg).samples
        means = np.mean(z.reshape(batches, per_batch) ** 2, axis=1)
        expected = const.BOLTZMANN * temperature / STIFFNESS.k_z
        std_error = np.std(means, ddof=1) / np.sqrt(batches)
        assert abs(np.mean(means) - expected) < 5.0 * std_error


# gamma / Omega for each shape of the roots: a well separated conjugate
# pair (one projected complex scan), a close conjugate pair, a double root
# and two real roots (a cascade of two scans)
ROOT_SHAPES = {"projection": 0.3, "complex_cascade": 2.0 - 1e-6,
               "double_root": 2.0, "real_cascade": 3.0}


@pytest.mark.filterwarnings("ignore:duration below")
class TestScale:
    """At T = 0 a trace is linear in its initial state, at any scale."""

    @staticmethod
    def _trace(ratio, n, state):
        gamma = ratio * OMEGA
        dt = 0.5 / (10.0 * max(gamma, OMEGA))
        cfg = lv.SimConfig(time_step=dt, duration=n * dt, seed=0)
        return lv.simulate_axial_motion(STIFFNESS, gamma, MASS, 0.0, cfg,
                                        initial_state=state).samples

    # scaling (z0, v0) by 2^k scales every sample by exactly 2^k, from
    # below 1 (scanned as they are) to above it (scanned in units of a
    # power of two), as long as the state and the trace stay normal, 64
    # bits clear of the subnormal numbers
    @settings(max_examples=100, deadline=None)
    @given(shape=st.sampled_from(sorted(ROOT_SHAPES)), n=st.integers(1, 3000),
           z0=st.floats(-1e-8, 1e-8), v0=st.floats(-0.1, 0.1), data=st.data())
    def test_scaling_the_state_scales_the_trace(self, shape, n, z0, v0, data):
        assume(z0 or v0)
        ratio = ROOT_SHAPES[shape]
        # the sizes of the state and its trace, taken with the state scaled
        # up to about 1 (exactly), where no sample underflows to zero
        shift = -int(np.frexp(max(abs(z0), abs(v0)))[1])
        z0, v0 = np.ldexp(z0, shift), np.ldexp(v0, shift)
        sizes = np.abs(np.concatenate(([z0, v0], self._trace(ratio, n, (z0, v0)))))
        sizes = np.frexp(sizes[sizes > 0])[1]
        k_range = st.integers(-1021 + 64 - int(sizes.min()), 1020 - int(sizes.max()))
        k, j = data.draw(k_range, label="k"), data.draw(k_range, label="j")
        z_k = self._trace(ratio, n, (np.ldexp(z0, k), np.ldexp(v0, k)))
        z_j = self._trace(ratio, n, (np.ldexp(z0, j), np.ldexp(v0, j)))
        assert np.array_equal(z_k, np.ldexp(z_j, k - j))

    @pytest.mark.parametrize("shape", sorted(ROOT_SHAPES))
    def test_zero_state_stays_positive_zero(self, shape):
        z = self._trace(ROOT_SHAPES[shape], 3 * 2**16 + 5, (0.0, 0.0))
        assert len(z) == 3 * 2**16 + 5
        assert not np.any(z) and not np.any(np.signbit(z))


# (gamma / Omega, temperature, initial state) for each route of the
# recurrence: a well separated conjugate pair (one projected complex scan),
# a close conjugate pair and two real roots (a cascade of two scans), and a
# trace among the subnormal numbers, which is scanned like any other
ROUTES = {"projection": (0.3, 296.0, None),
          "complex_cascade": (2.0 - 1e-6, 296.0, None),
          "real_cascade": (3.0, 296.0, None),
          "subnormal": (0.3, 0.0, (1e-300, 1e-294))}


@pytest.mark.filterwarnings("ignore:duration below")
class TestChunkStraddle:
    # chunks of 1 to 1024 samples against blocks of 1 to 3000: a chunk
    # straddles two blocks at every offset, or a block spans many chunks
    @settings(max_examples=150, deadline=None)
    @given(route=st.sampled_from(sorted(ROUTES)), n=st.integers(1, 3000),
           block=st.integers(1, 3000), chunk=st.integers(0, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_whole_equals_split(self, route, n, block, chunk, seed):
        ratio, temperature, initial = ROUTES[route]
        gamma = ratio * OMEGA
        dt = 0.5 / (10.0 * max(gamma, OMEGA))
        cfg = lv.SimConfig(time_step=dt, duration=n * dt, seed=seed)

        def run(block_samples):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lv, "_CHUNK_SAMPLES", 1 << chunk)
                mp.setattr(lv, "_BLOCK_SAMPLES", block_samples)
                return lv.simulate_axial_motion(STIFFNESS, gamma, MASS, temperature,
                                                cfg, initial_state=initial).samples

        whole = run(n)
        assert len(whole) == n
        assert np.array_equal(whole, run(block))


BLOCK_LENGTHS = pytest.mark.parametrize("n", [5, 21, 22, 2000, 2001])
BLOCK_SIZES = pytest.mark.parametrize("block", [1, 7, 1000, "n"])
# (gamma, temperature, initial state): thermal noise, then T = 0 and
# Gamma = 0, whose noise input is zero
BLOCK_PHYSICS = pytest.mark.parametrize("gamma, temperature, initial", [
    (GAMMA, 296.0, None), (GAMMA, 0.0, (1e-9, 2e-3)), (0.0, 296.0, None),
], ids=["thermal", "zero_temperature", "zero_damping"])


def _blocked(monkeypatch, block, n, run):
    """``run()`` with the default block size and with ``block`` samples."""
    whole = run()
    monkeypatch.setattr(lv, "_BLOCK_SAMPLES", n if block == "n" else block)
    return whole, run()


@pytest.mark.filterwarnings("ignore:duration below")
class TestBlockInvariance:
    @BLOCK_PHYSICS
    @BLOCK_SIZES
    @BLOCK_LENGTHS
    def test_axial_motion_bit_identical(self, monkeypatch, n, block, gamma,
                                        temperature, initial):
        cfg = lv.SimConfig(time_step=1.2e-8, duration=n * 1.2e-8, seed=8)
        whole, blocked = _blocked(
            monkeypatch, block, n, lambda: lv.simulate_axial_motion(
                STIFFNESS, gamma, MASS, temperature, cfg, initial_state=initial))
        assert len(whole.samples) == n
        assert np.array_equal(whole.samples, blocked.samples)

    @pytest.mark.parametrize("noise_floor", [1e-6, 0.0])
    @BLOCK_SIZES
    @BLOCK_LENGTHS
    def test_detector_bit_identical(self, monkeypatch, n, block, noise_floor):
        cfg = lv.SimConfig(time_step=1.2e-8, duration=n * 1.2e-8, seed=8,
                           detector_noise_floor=noise_floor)
        z = lv.simulate_axial_motion(STIFFNESS, GAMMA, MASS, 296.0, cfg)
        whole, blocked = _blocked(monkeypatch, block, n,
                                  lambda: _detector(z, cfg))
        assert np.array_equal(whole.samples, blocked.samples)
        if noise_floor == 0:
            assert np.array_equal(blocked.samples, cfg.detector_gain * z.samples)


@pytest.mark.filterwarnings("ignore:duration below")
class TestStreamedDetectorFile:
    @pytest.mark.parametrize("noise_floor", [1e-6, 0.0])
    @pytest.mark.parametrize("block", [2001, 1001, 1],
                             ids=["1_block", "2_blocks", "n_blocks"])
    def test_matches_collected_trace(self, tmp_path, monkeypatch, block,
                                     noise_floor):
        # the file written block by block from the generators equals the
        # file of the collected traces, made with the default (one) block
        cfg = lv.SimConfig(time_step=1.2e-8, duration=2001 * 1.2e-8, seed=8,
                           detector_noise_floor=noise_floor)
        args = (STIFFNESS, GAMMA, MASS, 296.0, cfg)
        collected = tmp_path / "collected.ts"
        io_formats.write_time_series(collected, _detector(
            lv.simulate_axial_motion(*args), cfg))
        monkeypatch.setattr(lv, "_BLOCK_SAMPLES", block)
        streamed = tmp_path / "streamed.ts"
        io_formats.write_time_series(streamed, lv.detector_blocks(
            lv.axial_motion_blocks(*args), cfg))
        assert streamed.read_bytes() == collected.read_bytes()

    def test_checks_run_before_first_block(self):
        cfg = lv.SimConfig(time_step=1e-6, duration=1e-2, seed=0)
        with pytest.raises(ValueError, match="time_step .* too coarse"):
            lv.axial_motion_blocks(STIFFNESS, GAMMA, MASS, 296.0, cfg)
        cfg = lv.SimConfig(time_step=1.2e-8, duration=5e-6, seed=0)
        with pytest.warns(UserWarning, match="duration"):
            lv.axial_motion_blocks(STIFFNESS, GAMMA, MASS, 296.0, cfg)


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestBoundedMemory:
    # 2^23 samples (64 MiB): beyond the trace itself only fixed-size blocks
    # are held
    CFG = lv.SimConfig(time_step=1.2e-8, duration=2**23 * 1.2e-8, seed=3)

    def test_axial_motion(self):
        z, peak = _traced_peak(lambda: lv.simulate_axial_motion(
            STIFFNESS, GAMMA, MASS, 296.0, self.CFG))
        assert len(z.samples) == 2**23
        assert peak < z.samples.nbytes + 24 * 2**20

    def test_detector_file_and_its_psd(self, tmp_path):
        # 2^22 samples (32 MiB) generated, read out and written in reused
        # block buffers, then read back for the Welch PSD
        cfg = lv.SimConfig(time_step=1.2e-8, duration=2**22 * 1.2e-8, seed=3)
        path = tmp_path / "detector.ts"
        _, peak = _traced_peak(lambda: io_formats.write_time_series(
            path, lv.detector_blocks(lv.axial_motion_blocks(
                STIFFNESS, GAMMA, MASS, 296.0, cfg), cfg)))
        assert peak < 8 * 2**20
        spectrum, peak = _traced_peak(lambda: analysis.stream_power_spectral_density(
            io_formats.read_time_series(path)))
        assert spectrum.averages == 127
        assert peak < 10.5 * 2**20


class TestDetectorSignal:
    def _series(self, seed=4):
        cfg = lv.SimConfig(time_step=1.2e-8, duration=6e-3, seed=seed)
        return cfg, lv.simulate_axial_motion(STIFFNESS, GAMMA, MASS, 296.0, cfg)

    def test_zero_gain_pure_noise(self):
        cfg, series = self._series()
        cfg_ng = lv.SimConfig(time_step=cfg.time_step, duration=cfg.duration,
                              seed=cfg.seed, detector_gain=0.0,
                              detector_noise_floor=1e-6)
        out = _detector(series, cfg_ng)
        spec = analysis.power_spectral_density(out, segment_length=4096)
        # flat at the configured one-sided floor
        assert np.median(spec.densities) == pytest.approx(1e-12, rel=0.05)
        third = len(spec.densities) // 3
        assert np.mean(spec.densities[:third]) == pytest.approx(
            np.mean(spec.densities[-third:]), rel=0.05)

    @pytest.mark.parametrize("noise_floor", [1e-6, 0.0])
    def test_input_unchanged(self, noise_floor):
        cfg, series = self._series()
        cfg = lv.SimConfig(time_step=cfg.time_step, duration=cfg.duration,
                           seed=cfg.seed, detector_noise_floor=noise_floor)
        before = series.samples.copy()
        out = lv.detector_blocks(series, cfg).collect()
        assert np.array_equal(series.samples, before)
        assert not np.shares_memory(out.samples, series.samples)

    def test_zero_noise_scales_exactly(self):
        cfg, series = self._series()
        cfg_nn = lv.SimConfig(time_step=cfg.time_step, duration=cfg.duration,
                              seed=cfg.seed, detector_gain=2.5e5,
                              detector_noise_floor=0.0)
        out = _detector(series, cfg_nn)
        assert np.array_equal(out.samples, 2.5e5 * series.samples)

    def test_peak_visible_with_defaults(self):
        cfg, series = self._series()
        out = _detector(series, cfg)
        spec = analysis.power_spectral_density(out, segment_length=2**13)
        peak = spec.densities.max()
        floor = np.median(spec.densities[spec.frequencies > 3e6])
        assert peak / floor > 10


class TestTiltStatistics:
    def test_isotropic_limit(self):
        sample = oracles.sample_tilt_distribution(0.0, 296.0, 20000, seed=1)
        assert sample.cos2_mean == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_deep_well(self):
        # exact Boltzmann value at a 10 kT well is 0.8927 (grid oracle);
        # crosses 0.9 near 11 kT
        sample = oracles.sample_tilt_distribution(10 * KT, 296.0, 20000, seed=1)
        assert sample.cos2_mean == pytest.approx(0.8927, abs=0.005)
        assert lv.mean_cos2_tilt(12 * KT, 296.0) >= 0.9

    @pytest.mark.parametrize("depth_kt", [0.0, 0.5, 2.0, 10.0, 50.0])
    def test_sampler_matches_grid_oracle(self, depth_kt):
        sample = oracles.sample_tilt_distribution(depth_kt * KT, 296.0, 40000, seed=5)
        ref = oracles.mean_cos2_grid(depth_kt)
        assert abs(sample.cos2_mean - ref) < 4 * sample.cos2_std_error

    def test_quadrature_matches_grid_oracle(self):
        for depth_kt in (0.0, 0.3, 1.0, 5.0, 30.0, 300.0):
            got = lv.mean_cos2_tilt(depth_kt * KT, 296.0)
            assert got == pytest.approx(oracles.mean_cos2_grid(depth_kt), abs=1e-6)

    # s = depth / kT: 0, log-uniform over [1e-10, 1e8], and both sides of
    # the switch from the power series to Dawson's integral
    @settings(max_examples=200, deadline=None)
    @given(s=st.one_of(
        st.just(0.0), st.floats(-10.0, 8.0).map(lambda e: 10.0**e),
        st.sampled_from([lv._SERIES_BELOW * (1.0 + d)
                         for d in (-1e-6, -1e-15, 0.0, 1e-15, 1e-6)])))
    def test_closed_form_matches_quad_oracle(self, s):
        got = lv.mean_cos2_tilt(s * KT, 296.0)
        assert got == pytest.approx(oracles.mean_cos2_quad(s * KT / KT), rel=1e-12)

    def test_monotone_in_depth(self):
        depths = np.linspace(0, 40, 30) * KT
        values = [lv.mean_cos2_tilt(d, 296.0) for d in depths]
        assert np.all(np.diff(values) > 0)

    def test_beta_range(self):
        sample = oracles.sample_tilt_distribution(2 * KT, 296.0, 5000, seed=0)
        assert np.all((sample.beta >= 0) & (sample.beta <= np.pi / 2))


class TestApparentAPi:
    ANISOTROPY = 2.7e-35  # about half the single-rod polarizability

    def test_zero_power_limit(self):
        got = lv.apparent_a_pi(0.0, 0.9, self.ANISOTROPY)
        assert got == pytest.approx(0.3, rel=1e-9)

    def test_high_power_limit(self):
        got = lv.apparent_a_pi(1e3, 0.9, self.ANISOTROPY)
        assert got == pytest.approx(0.9, abs=1e-3)

    def test_strictly_increasing(self):
        powers = np.geomspace(1e-4, 1.0, 40)
        values = [lv.apparent_a_pi(p, 0.9, self.ANISOTROPY) for p in powers]
        assert np.all(np.diff(values) > 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lv.apparent_a_pi(0.1, 1.5, self.ANISOTROPY)
        with pytest.raises(ValueError):
            lv.apparent_a_pi(-0.1, 0.5, self.ANISOTROPY)


class TestTiltedImageDecomposition:
    @pytest.mark.parametrize("beta_deg", [20.0, 45.0, 70.0])
    def test_azimuthal_average_decomposes(self, beta_deg):
        # ties the alignment statistics to the aperture optics: the ring
        # average of a tilted dipole is cos^2 * linear + sin^2 * circular
        beta = np.radians(beta_deg)
        geom = mo.MirrorGeometry()
        d = np.array([np.sin(beta), 0.0, np.cos(beta)])
        img = mo.general_dipole_image(d, geom)
        profile = mo.azimuthal_average(img)
        pitch = img.pixel_pitch
        inside = ((profile.radii > geom.bore_radius_f + pitch)
                  & (profile.radii < geom.rim_radius_f - pitch))
        r = profile.radii[inside]
        expected = (np.cos(beta) ** 2 * mo.intensity_linear(r)
                    + np.sin(beta) ** 2 * mo.intensity_circular(r))
        assert np.max(np.abs(profile.intensities[inside] / expected - 1.0)) < 0.01


class TestTrapStiffness:
    def test_from_trap_depth(self):
        stiff = lv.TrapStiffness.from_trap_depth(KT, w_z=532e-9)
        assert stiff.k_z == pytest.approx(2 * KT / 532e-9**2, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            lv.TrapStiffness(k_z=-1.0)
