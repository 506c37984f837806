import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmtrap import analysis, io_formats, photon_emitter as pe
from pmtrap.mirror_optics import MirrorGeometry
from pmtrap.seeding import rng_for

import oracles

# a steady single rod with p_A = 1; a keyword overrides any of the three
steady_rod = partial(pe.EmitterModel, n_rods=1, auger_pair_prob=1.0,
                     grey_level=1.0)


EXC = pe.ExcitationConfig()
CHAIN = pe.DetectionChain()


class TestExcitonsPerPulse:
    def test_mean(self):
        rng = np.random.default_rng(0)
        k = oracles.excitons_per_pulse(2e-6, 2.63e-6, rng, size=1_000_000)
        assert np.mean(k) == pytest.approx(2.0 / 2.63, rel=0.01)

    def test_emission_probability(self):
        # Pr(k >= 1) = 1 - exp(-P/P_sat)
        rng = np.random.default_rng(1)
        k = oracles.excitons_per_pulse(2e-6, 2.63e-6, rng, size=1_000_000)
        expected = 1.0 - np.exp(-2.0 / 2.63)
        assert np.mean(k >= 1) == pytest.approx(expected, abs=0.005)

    def test_zero_power(self):
        rng = np.random.default_rng(2)
        assert oracles.excitons_per_pulse(0.0, 2.63e-6, rng) == 0
        assert np.all(oracles.excitons_per_pulse(0.0, 2.63e-6, rng, size=100) == 0)

    def test_invalid(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            oracles.excitons_per_pulse(1e-6, 0.0, rng)


class TestAugerReduce:
    def test_full_annihilation(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            assert oracles.auger_reduce(k, 1.0, rng) == min(k, 1)

    def test_no_annihilation(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            assert oracles.auger_reduce(k, 0.0, rng) == k

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            k = int(rng.integers(0, 12))
            p = float(rng.random())
            out = oracles.auger_reduce(k, p, rng)
            assert 0 <= out <= k
            if k >= 1:
                assert out >= 1  # chain always leaves at least one radiator

    @pytest.mark.parametrize("k,p", [(2, 0.9), (3, 0.5), (5, 0.7), (8, 0.3)])
    def test_matches_enumeration_oracle(self, k, p):
        rng = np.random.default_rng(10 + k)
        n = 40000
        draws = np.array([oracles.auger_reduce(k, p, rng) for _ in range(n)])
        pmf = oracles.auger_photon_pmf(k, p)
        for value, prob in enumerate(pmf):
            if prob < 1e-4:
                continue
            observed = np.mean(draws == value)
            sigma = np.sqrt(prob * (1 - prob) / n)
            assert abs(observed - prob) < 4 * sigma

    def test_vectorized_matches_scalar_stats(self):
        rng = np.random.default_rng(7)
        k = rng.poisson(0.76, 200_000)
        out = oracles.auger_reduce(k, 0.9, rng)
        assert np.all(out <= k)
        pmf1 = oracles.auger_photon_pmf(3, 0.9)
        sel = out[k == 3]
        assert np.mean(sel == 1) == pytest.approx(pmf1[1], abs=0.02)

    def test_int_in_int_out_array_in_array_out(self):
        rng = np.random.default_rng(8)
        assert type(oracles.auger_reduce(5, 0.5, rng)) is int
        out = oracles.auger_reduce(np.array([0, 1, 5, 9]), 0.5, rng)
        assert out.dtype == np.int64 and out.shape == (4,)
        with pytest.raises(ValueError):
            oracles.auger_reduce(np.array([2, -1]), 0.5, rng)

    def test_oracle_normalized(self):
        for k in range(11):
            assert oracles.auger_photon_pmf(k, 0.63).sum() == pytest.approx(1.0)


def pmf_g2(pmf):
    n = np.arange(len(pmf))
    return float(np.sum(pmf * n * (n - 1)) / np.sum(pmf * n) ** 2)


class TestDetectedPhotonPmf:
    @pytest.mark.parametrize("emitter", [
        steady_rod(auger_pair_prob=0.0),
        steady_rod(n_rods=64, auger_pair_prob=None),
        steady_rod(n_rods=16, auger_pair_prob=0.4, independent_emitters=True),
    ], ids=["poisson", "shared_pool", "independent"])
    def test_normalized(self, emitter):
        for exc in (EXC, pe.ExcitationConfig(average_power=2e-9),
                    pe.ExcitationConfig(average_power=40e-6)):
            pmf = pe.detected_photon_pmf(exc, emitter, CHAIN, 1.0 / 3.0)
            assert np.all(pmf >= 0)
            assert abs(pmf.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("pair_prob", [0.0, 0.3, 0.83, 1.0])
    def test_g2_matches_enumeration_oracle(self, pair_prob):
        pmf = pe.detected_photon_pmf(
            EXC, steady_rod(auger_pair_prob=pair_prob), CHAIN)
        expected = oracles.pulsed_g2_expected(EXC.mean_excitons, pair_prob)
        assert abs(pmf_g2(pmf) - expected) < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_independent_emitters_g2(self, n):
        emitter = steady_rod(n_rods=n, auger_pair_prob=1.0,
                             independent_emitters=True)
        pmf = pe.detected_photon_pmf(EXC, emitter, CHAIN)
        assert abs(pmf_g2(pmf) - oracles.independent_emitters_g2(n)) < 1e-12

    def test_no_detection_without_light(self):
        dark = pe.detected_photon_pmf(EXC, steady_rod(), CHAIN, 0.0)
        assert np.array_equal(dark, [1.0])
        off = pe.detected_photon_pmf(pe.ExcitationConfig(average_power=0.0),
                                     steady_rod(), CHAIN)
        assert np.array_equal(off, [1.0])

    @pytest.mark.parametrize("emitter,attenuation", [
        (steady_rod(auger_pair_prob=0.5), 1.0),
        (steady_rod(n_rods=3, auger_pair_prob=0.3,
                    independent_emitters=True), 1.0 / 3.0),
    ], ids=["shared_pool", "independent_grey"])
    def test_matches_per_pulse_monte_carlo(self, emitter, attenuation):
        n = 1_000_000
        rng = np.random.default_rng(12)
        photons = np.zeros(n, dtype=np.int64)
        for _ in range(emitter.n_rods if emitter.independent_emitters else 1):
            photons += oracles.auger_reduce(
                oracles.excitons_per_pulse(EXC.average_power, EXC.saturation_power,
                                      rng, size=n),
                emitter.auger_pair_prob, rng)
        keep = emitter.quantum_yield * attenuation * CHAIN.detection_probability
        observed = np.bincount(rng.binomial(photons, keep))
        pmf = pe.detected_photon_pmf(EXC, emitter, CHAIN, attenuation)
        assert len(observed) <= len(pmf)
        expected = n * pmf[: len(observed)]
        sigma = np.sqrt(n * pmf[: len(observed)] * (1.0 - pmf[: len(observed)]))
        assert np.all(np.abs(observed - expected) <= 5.0 * sigma)


class TestBlinkTrajectory:
    def test_steady(self):
        rng = np.random.default_rng(0)
        traj = pe.blink_trajectory(1.0, steady_rod(), rng)
        assert np.all(traj.attenuation_at(np.linspace(0, 1, 100)) == 1.0)

    def test_vanishing_grey_dwell_mostly_bright(self):
        rng = np.random.default_rng(1)
        model = steady_rod(grey_level=1.0 / 3.0, grey_dwell=1e-7, bright_dwell=1e-2)
        traj = pe.blink_trajectory(2.0, model, rng)
        att = traj.attenuation_at(np.linspace(0, 2, 100_000))
        assert np.mean(att) > 0.999

    def test_occupancy_one_to_four(self):
        # bright:grey dwell 1:4, grey level 1/3 -> mean attenuation
        # 0.2 * 1 + 0.8 / 3
        rng = np.random.default_rng(2)
        model = steady_rod(grey_level=1.0 / 3.0, bright_dwell=1e-3, grey_dwell=4e-3)
        traj = pe.blink_trajectory(100.0, model, rng)
        att = traj.attenuation_at(np.linspace(0, 100, 1_000_000))
        expected = 0.2 + 0.8 / 3.0
        assert np.mean(att) == pytest.approx(expected, rel=0.05)


DWELLS = st.floats(1e-4, 1e-2)
SEEDS = st.integers(0, 2**32 - 1)


class TestGreyLevel:
    # one two-level model spans the steady emitter and the dark-state bursts
    @settings(max_examples=20, deadline=None)
    @given(bright=DWELLS, grey=DWELLS, seed=SEEDS)
    def test_one_is_steady_whatever_the_dwells(self, bright, grey, seed):
        steady = pe.generate_time_tags(EXC, steady_rod(), CHAIN, 0.05, seed=seed)
        stream = pe.generate_time_tags(
            EXC, steady_rod(bright_dwell=bright, grey_dwell=grey), CHAIN, 0.05, seed=seed)
        assert stream.timestamps.tobytes() == steady.timestamps.tobytes()
        assert stream.channels.tobytes() == steady.channels.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(bright=DWELLS, grey=DWELLS, seed=SEEDS)
    @example(bright=1.67e-4, grey=5e-3, seed=7)
    def test_zero_is_dark(self, bright, grey, seed):
        # no event's pulse falls in a grey segment of the stream's trajectory
        model = steady_rod(grey_level=0.0, bright_dwell=bright, grey_dwell=grey)
        stream = pe.generate_time_tags(EXC, model, CHAIN, 0.05, seed=seed)
        trajectory = pe.blink_trajectory(0.05, model, rng_for(seed, "time-tags"))
        assert np.all(trajectory.attenuation_at(stream.timestamps) == 1.0)


class TestGenerateTimeTags:
    def test_reference_rate(self):
        emitter = steady_rod(auger_pair_prob=1.0)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 1.0, seed=11)
        rate = len(stream) / 1.0
        assert 125e3 - 14e3 < rate < 125e3 + 14e3

    def test_zero_yield_empty(self):
        emitter = steady_rod(quantum_yield=0.0)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 0.1, seed=1)
        assert len(stream) == 0

    def test_zero_excitation_empty(self):
        exc = pe.ExcitationConfig(average_power=0.0)
        stream = pe.generate_time_tags(exc, steady_rod(), CHAIN, 0.1, seed=1)
        assert len(stream) == 0

    def test_deterministic(self):
        emitter = steady_rod(auger_pair_prob=0.8)
        a = pe.generate_time_tags(EXC, emitter, CHAIN, 0.3, seed=5)
        b = pe.generate_time_tags(EXC, emitter, CHAIN, 0.3, seed=5)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.channels, b.channels)

    def test_sorted_within_window(self):
        emitter = steady_rod(auger_pair_prob=0.5)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 0.2, seed=6)
        assert np.all(np.diff(stream.timestamps) >= 0)
        assert stream.timestamps[-1] <= 0.2

    def test_memory_scales_with_events(self):
        # 1e7 pulses but only ~1e3 detections: nothing per pulse is allocated
        exc = pe.ExcitationConfig(average_power=2e-9)
        emitter = pe.EmitterModel(n_rods=64)  # the experiment's emitter
        tracemalloc.start()
        try:
            stream = pe.generate_time_tags(exc, emitter, CHAIN, 10.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.metadata["n_pulses"] == 10_000_000
        assert 0 < len(stream) < 5000
        assert peak < 5e6

    def test_channels_balanced(self):
        emitter = steady_rod(auger_pair_prob=1.0)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 1.0, seed=8)
        n0, n1 = stream.counts_per_channel()
        assert abs(n0 - n1) < 5 * np.sqrt(len(stream))


class TestSplitter:
    @pytest.mark.parametrize("ratio", [0.5, 0.3])
    def test_ch1_count_is_binomial_per_photon_number(self, ratio):
        # multi-photon pulses: no Auger annihilation, well above saturation
        exc = pe.ExcitationConfig(average_power=20e-6)
        chain = pe.DetectionChain(splitter_ratio=ratio)
        stream = pe.generate_time_tags(exc, steady_rod(auger_pair_prob=0.0),
                                       chain, 0.05, seed=17)
        pulses = np.rint(stream.timestamps * exc.repetition_rate).astype(np.int64)
        starts = np.flatnonzero(np.diff(pulses, prepend=-1))
        n = np.diff(starts, append=len(pulses))
        ch1 = np.add.reduceat(stream.channels, starts, dtype=np.int64)
        # within a pulse the channel-0 events come first
        assert np.all(np.diff(stream.channels.astype(np.int8))[np.diff(pulses) == 0] >= 0)
        full = 0
        for photons in range(1, n.max() + 1):
            observed = np.bincount(ch1[n == photons], minlength=photons + 1)
            total = observed.sum()
            if total < 100:
                continue
            k = np.arange(photons + 1)
            p = (np.array([math.comb(photons, j) for j in k])
                 * (1.0 - ratio) ** k * ratio ** (photons - k))
            se = np.sqrt(total * p * (1.0 - p))
            assert np.all(np.abs(observed - total * p) <= 5.0 * se + 1.0), photons
            full += observed[photons] if photons > 1 else 0
        assert full > 0  # every photon of a pulse can go to channel 1


class TestTimeTagBlocks:
    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_block_size_does_not_change_stream(self, monkeypatch, block):
        # each level's gap position is carried across blocks, and hits,
        # counts and the splitter draw from their own generators
        emitter = steady_rod(auger_pair_prob=0.5, grey_level=1.0 / 3.0,
                             bright_dwell=2e-4, grey_dwell=3e-4)
        whole = pe.generate_time_tags(EXC, emitter, CHAIN, 5e-3, seed=13)
        monkeypatch.setattr(pe, "_BLOCK_PULSES", block)
        blocked = pe.generate_time_tags(EXC, emitter, CHAIN, 5e-3, seed=13)
        assert len(whole) > 200
        assert blocked.timestamps.tobytes() == whole.timestamps.tobytes()
        assert blocked.channels.tobytes() == whole.channels.tobytes()

    def test_gap_chunk_does_not_change_stream(self, monkeypatch):
        emitter = steady_rod(grey_level=0.0, bright_dwell=1.67e-4, grey_dwell=5e-3)
        whole = pe.generate_time_tags(EXC, emitter, CHAIN, 0.05, seed=14)
        monkeypatch.setattr(pe, "_GAP_CHUNK", 5)
        monkeypatch.setattr(pe, "_BLOCK_PULSES", 999)
        blocked = pe.generate_time_tags(EXC, emitter, CHAIN, 0.05, seed=14)
        assert blocked.timestamps.tobytes() == whole.timestamps.tobytes()
        assert blocked.channels.tobytes() == whole.channels.tobytes()

    def test_metadata_up_front_count_after(self):
        tags = pe.time_tag_blocks(EXC, steady_rod(), CHAIN, 0.1, seed=2)
        assert tags.metadata["n_pulses"] == 100_000
        with pytest.raises(TypeError):
            len(tags)
        blocks = list(tags.blocks)
        assert len(blocks) == 1  # 1e5 pulses fit one block
        assert all(c.dtype == np.uint8 and t.dtype == np.float64 for c, t in blocks)

    @pytest.mark.parametrize("consume", ["g2_zero", "export_time_tags_csv"])
    def test_count_recorded_once_used_up(self, tmp_path, monkeypatch, consume):
        # the stream counts its own events, whichever consumer uses it up
        monkeypatch.setattr(pe, "_BLOCK_PULSES", 4096)
        args = (EXC, steady_rod(), CHAIN, 0.1)
        tags = pe.time_tag_blocks(*args, seed=2)
        if consume == "g2_zero":
            analysis.g2_zero(tags, 1.0 / EXC.repetition_rate)
        else:
            io_formats.export_time_tags_csv(tmp_path / "tags.csv", tags)
        assert len(tags) == len(pe.generate_time_tags(*args, seed=2)) > 0


class TestDownstreamG2:
    def test_single_photon_zero(self):
        emitter = steady_rod(auger_pair_prob=1.0)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 1.0, seed=20)
        assert len(stream) > 1e5
        result = analysis.g2_zero(stream, 1e-6)
        assert result.g2 == 0.0

    def test_poissonian_unity(self):
        emitter = steady_rod(auger_pair_prob=0.0)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 2.0, seed=21)
        result = analysis.g2_zero(stream, 1e-6)
        assert abs(result.g2 - 1.0) < 3 * result.error

    @pytest.mark.parametrize("n", [2, 4])
    def test_independent_emitters(self, n):
        emitter = steady_rod(n_rods=n, auger_pair_prob=1.0,
                             independent_emitters=True)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 1.0, seed=22 + n)
        result = analysis.g2_zero(stream, 1e-6)
        expected = oracles.independent_emitters_g2(n)
        assert abs(result.g2 - expected) < 3 * result.error

    def test_band_setting(self):
        # the documented (p_A = 0.9, shared pool) point sits in the
        # observed antibunching band
        emitter = steady_rod(auger_pair_prob=0.9)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 2.0, seed=25)
        result = analysis.g2_zero(stream, 1e-6)
        assert 0.15 <= result.g2 <= 0.44
        expected = oracles.pulsed_g2_expected(EXC.mean_excitons, 0.9)
        assert abs(result.g2 - expected) < 3 * result.error

    def test_monotone_in_pair_prob(self):
        values = []
        for p in (0.2, 0.5, 0.8, 1.0):
            emitter = steady_rod(auger_pair_prob=p)
            stream = pe.generate_time_tags(EXC, emitter, CHAIN, 1.0, seed=30)
            values.append(analysis.g2_zero(stream, 1e-6).g2)
        oracle = [oracles.pulsed_g2_expected(EXC.mean_excitons, p)
                  for p in (0.2, 0.5, 0.8, 1.0)]
        assert np.all(np.diff(oracle) < 0)
        assert np.all(np.diff(values) < 0.05)  # allows MC noise


class TestExpectedCountRate:
    def test_reference_budget(self):
        emitter = steady_rod(auger_pair_prob=1.0)
        est = pe.expected_count_rate(EXC, emitter, CHAIN)
        assert est.rate == pytest.approx(125.4e3, rel=0.01)
        assert est.uncertainty == pytest.approx(13.7e3, rel=0.05)

    def test_ideal_chain_limit(self):
        # a_pi = 1, all other factors unity, far above saturation
        exc = pe.ExcitationConfig(average_power=1.0, saturation_power=2.63e-6)
        chain = pe.DetectionChain(apd_quantum_efficiency=1.0,
                                  mirror=MirrorGeometry(reflectivity=1.0),
                                  setup_transmission=1.0, a_pi=1.0)
        emitter = steady_rod(quantum_yield=1.0)
        est = pe.expected_count_rate(exc, emitter, chain)
        assert est.rate == pytest.approx(1e6 * 0.94, rel=1e-6)

    def test_monotone_in_factors(self):
        emitter = steady_rod()
        base = pe.expected_count_rate(EXC, emitter, CHAIN).rate
        better = pe.DetectionChain(apd_quantum_efficiency=0.8)
        assert pe.expected_count_rate(EXC, emitter, better).rate > base
        stronger = pe.ExcitationConfig(average_power=4e-6)
        assert pe.expected_count_rate(stronger, emitter, CHAIN).rate > base

    def test_monte_carlo_agreement(self):
        emitter = steady_rod(auger_pair_prob=1.0)
        stream = pe.generate_time_tags(EXC, emitter, CHAIN, 2.0, seed=31)
        est = pe.expected_count_rate(EXC, emitter, CHAIN)
        assert len(stream) / 2.0 == pytest.approx(est.rate, rel=0.02)


class TestClusterAugerLaw:
    def test_bounds_and_decay(self):
        p1 = pe.auger_prob_for_cluster(1)
        p16 = pe.auger_prob_for_cluster(16)
        p64 = pe.auger_prob_for_cluster(64)
        assert 0 < p64 < p16 < p1 <= 1.0

    def test_g2_rises_with_cluster_size(self):
        g2s = [oracles.pulsed_g2_expected(EXC.mean_excitons,
                                          pe.auger_prob_for_cluster(n))
               for n in (1, 16, 64)]
        assert np.all(np.diff(g2s) > 0)


class TestValidation:
    def test_stream_invariants(self):
        with pytest.raises(ValueError):
            pe.TimeTagStream(channels=np.array([0, 1], dtype=np.uint8),
                             timestamps=np.array([2.0, 1.0]), duration=3.0)
        with pytest.raises(ValueError):
            pe.TimeTagStream(channels=np.array([0], dtype=np.uint8),
                             timestamps=np.array([5.0]), duration=3.0)

    def test_model_bounds(self):
        with pytest.raises(ValueError):
            steady_rod(auger_pair_prob=1.5)
        with pytest.raises(ValueError):
            steady_rod(grey_level=2.0)
        with pytest.raises(ValueError):
            pe.DetectionChain(apd_quantum_efficiency=0.0)
        with pytest.raises(ValueError):
            pe.ExcitationConfig(saturation_power=0.0)
