"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest
import yaml

from pmtrap import analysis, constants as const, langevin as lv
from pmtrap import mirror_optics as mo
from pmtrap import photon_emitter as pe
from pmtrap import trap_mechanics as tm
from pmtrap.config import default_config_yaml, parse_config
from pmtrap.reproduce import run_target

import oracles

KT = const.BOLTZMANN * 296.0


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def test_criterion_01_collection_efficiencies():
    with Timer() as t:
        geom = mo.MirrorGeometry()
        lin = mo.collection_efficiency("linear", geom)
        cir = mo.collection_efficiency("circular", geom)
        lin_ref = oracles.collection_quad("linear", geom.bore_angle, geom.rim_angle)
        cir_ref = oracles.collection_quad("circular", geom.bore_angle, geom.rim_angle)
    assert abs(lin - 0.94) < 0.005
    assert abs(cir - 0.76) < 0.005
    assert abs(lin - lin_ref) < 1e-6
    assert abs(cir - cir_ref) < 1e-6
    assert t.elapsed < 1.0
    _report(1, f"collection {lin:.4f}/{cir:.4f} vs 0.94/0.76, "
               f"oracle agreement < 1e-6, {t.elapsed:.2f}s")


def test_criterion_02_minimum_trapping_power():
    with Timer() as t:
        alpha1 = tm.polarizability()
        p1 = tm.min_power(alpha1)
        p16 = tm.min_power(16 * alpha1)
    assert p1 == pytest.approx(41e-3, rel=1e-12)  # exact by calibration
    assert p16 == pytest.approx(41e-3 / 16, rel=1e-12)
    assert p16 * 1e3 == pytest.approx(2.56, abs=0.01)
    # consistent with the observed average 2.5 +/- 2.1 mW for 16 +/- 14 rods
    assert 0.4e-3 < p16 < 4.6e-3
    assert t.elapsed < 1.0
    _report(2, f"P_min(1) = {p1*1e3:.1f} mW exact, P_min(16) = {p16*1e3:.4g} mW, "
               f"{t.elapsed:.2f}s")


def test_criterion_03_single_rod_damping():
    rod = tm.RodGeometry()
    cluster = tm.ClusterSample()
    rate = tm.damping_rate(rod.padded_radius, tm.cluster_mass(cluster))
    assert rate.hz == pytest.approx(2.0e6, rel=0.10)
    _report(3, f"Gamma/2pi = {rate.hz/1e6:.3f} MHz within 2.0 MHz +/- 10%")


def test_criterion_04_count_rate():
    with Timer() as t:
        exc = pe.ExcitationConfig()
        chain = pe.DetectionChain()
        emitter = pe.EmitterModel(auger_pair_prob=1.0)
        est = pe.expected_count_rate(exc, emitter, chain)
        # Monte Carlo over 1e7 pulses
        duration = 1e7 / exc.repetition_rate
        stream = pe.generate_time_tags(exc, emitter, chain, duration, seed=404)
        mc_rate = len(stream) / duration
    assert est.rate == pytest.approx(125e3, abs=14e3)
    assert est.uncertainty == pytest.approx(14e3, abs=3e3)
    assert mc_rate == pytest.approx(est.rate, rel=0.02)
    assert t.elapsed < 30.0
    _report(4, f"closed form {est.rate/1e3:.1f} +/- {est.uncertainty/1e3:.1f} kcps, "
               f"MC {mc_rate/1e3:.1f} kcps ({100*abs(mc_rate/est.rate-1):.2f}%), "
               f"{t.elapsed:.1f}s")


def test_criterion_05_scaling_law(tmp_path):
    with Timer() as t:
        config = parse_config(yaml.safe_load(default_config_yaml()))
        summary = run_target("fig1b", config, tmp_path, seed=5)
    exponent = summary["exponent"]
    assert exponent == pytest.approx(0.50, abs=0.02)
    # inside or adjacent to the measured 0.48 +/- 0.03 band
    assert summary["within_or_adjacent"]
    assert t.elapsed < 60.0
    _report(5, f"exponent {exponent:.3f} +/- {summary['std_error']:.3f} "
               f"(target 0.50 +/- 0.02, reference band 0.45-0.51), {t.elapsed:.1f}s")


def test_criterion_06_g2_suite():
    with Timer() as t:
        exc = pe.ExcitationConfig()
        chain = pe.DetectionChain()
        period = 1.0 / exc.repetition_rate

        # p_A = 1: perfect antibunching
        s1 = pe.generate_time_tags(exc, pe.EmitterModel(auger_pair_prob=1.0),
                                   chain, 1.0, seed=601)
        g1 = analysis.g2_zero(s1, period)
        assert g1.g2 == 0.0

        # p_A = 0: Poissonian
        s0 = pe.generate_time_tags(exc, pe.EmitterModel(auger_pair_prob=0.0),
                                   chain, 2.0, seed=602)
        g0 = analysis.g2_zero(s0, period)
        assert abs(g0.g2 - 1.0) < 3 * g0.error

        # N independent single-photon emitters: 1 - 1/N
        results_n = {}
        for n in (2, 4):
            sn = pe.generate_time_tags(
                exc, pe.EmitterModel(n_rods=n, auger_pair_prob=1.0,
                                     independent_emitters=True),
                chain, 1.5, seed=600 + n)
            gn = analysis.g2_zero(sn, period)
            expected = oracles.independent_emitters_g2(n)
            assert abs(gn.g2 - expected) < 3 * gn.error
            results_n[n] = gn.g2

        # documented band setting: shared pool with p_A = 0.9
        sb = pe.generate_time_tags(exc, pe.EmitterModel(auger_pair_prob=0.9),
                                   chain, 2.0, seed=606)
        gb = analysis.g2_zero(sb, period)
        assert 0.15 <= gb.g2 <= 0.44

        # Monte Carlo matches the brute-force enumeration oracle within 3 sigma
        for p_a, seed in ((0.9, 607), (0.6, 608), (0.3, 609)):
            s = pe.generate_time_tags(exc, pe.EmitterModel(auger_pair_prob=p_a),
                                      chain, 2.0, seed=seed)
            g = analysis.g2_zero(s, period)
            expected = oracles.pulsed_g2_expected(exc.mean_excitons, p_a)
            assert abs(g.g2 - expected) < 3 * g.error
    assert t.elapsed < 120.0
    _report(6, f"g2: pA=1 -> 0, pA=0 -> {g0.g2:.3f}, N=2/4 -> "
               f"{results_n[2]:.3f}/{results_n[4]:.3f}, band point {gb.g2:.3f} "
               f"in [0.15, 0.44], oracle matched, {t.elapsed:.1f}s")


def test_criterion_07_fit_round_trips():
    with Timer() as t:
        # Lorentzian width at the observed mean damping, 20 seeds
        mass = 6.5e-21
        omega = 2 * np.pi * 8e6
        stiffness = lv.TrapStiffness(k_z=mass * omega**2)
        gamma = 2 * np.pi * 0.62e6
        widths = []
        for seed in range(20):
            cfg = lv.SimConfig(time_step=1.9e-9, duration=8e-3, seed=seed)
            series = lv.simulate_axial_motion(stiffness, gamma, mass, 296.0, cfg)
            spec = analysis.power_spectral_density(series, segment_length=2**16)
            widths.append(analysis.fit_lorentzian(spec).gamma)
        width_err = abs(np.median(widths) / gamma - 1.0)
        assert width_err < 0.05

        # dipole fraction through the imaging pipeline at SNR 10
        geom = mo.MirrorGeometry()
        recovered = {}
        for a_pi in (0.0, 0.31, 0.5, 1.0):
            img = mo.mix_image(mo.DipoleMix(a_pi=a_pi), geom)
            rng = np.random.default_rng(700 + int(100 * a_pi))
            noisy = np.clip(
                img.pixels + rng.normal(0, img.pixels.max() / 10,
                                        img.pixels.shape), 0, None)
            img_n = mo.ApertureImage(pixels=noisy, pixel_pitch=img.pixel_pitch,
                                     center=img.center, metadata=img.metadata)
            profile = mo.azimuthal_average(img_n)
            keep = ((profile.radii > geom.bore_radius_f + img.pixel_pitch)
                    & (profile.radii < geom.rim_radius_f - img.pixel_pitch))
            fit = mo.fit_dipole_fraction(mo.RadialProfile(
                radii=profile.radii[keep], intensities=profile.intensities[keep]))
            assert abs(fit.a_pi - a_pi) < 0.05
            recovered[a_pi] = round(float(fit.a_pi), 4)

        # saturation power, noiseless: exact
        powers = np.geomspace(0.4e-6, 12e-6, 9)
        rates = 1.6e5 * (1 - np.exp(-powers / 2.63e-6))
        sat = analysis.fit_saturation(powers, rates)
        assert sat.saturation_power == pytest.approx(2.63e-6, rel=1e-6)
    assert t.elapsed < 120.0
    _report(7, f"width median err {100*width_err:.2f}% (20 seeds at 0.62 MHz), "
               f"a_pi recovered {recovered}, P_sat exact, {t.elapsed:.1f}s")


def test_criterion_08_optics_reductions():
    with Timer() as t:
        geom = mo.MirrorGeometry()
        # reduction to the closed-form shapes
        img_lin = mo.general_dipole_image(np.array([0.0, 0.0, 1.0]), geom)
        R = img_lin.radius_grid()
        mask = img_lin.pixels > 0
        dev_lin = np.max(np.abs(
            img_lin.pixels[mask] / mo.intensity_linear(R[mask]) - 1.0))
        x = mo.general_dipole_image(np.array([1.0, 0.0, 0.0]), geom)
        y = mo.general_dipole_image(np.array([0.0, 1.0, 0.0]), geom)
        img_cir = mo.general_dipole_image(mo.CIRCULAR, geom)
        mix = 0.5 * (x.pixels + y.pixels)
        mask = img_cir.pixels > 0
        dev_cir = np.max(np.abs(mix[mask] / img_cir.pixels[mask] - 1.0))
        assert dev_lin < 1e-9 and dev_cir < 1e-9

        # tilted-dipole decomposition
        beta = np.radians(40.0)
        img_t = mo.general_dipole_image(
            np.array([np.sin(beta), 0.0, np.cos(beta)]), geom)
        profile = mo.azimuthal_average(img_t)
        inside = ((profile.radii > geom.bore_radius_f + img_t.pixel_pitch)
                  & (profile.radii < geom.rim_radius_f - img_t.pixel_pitch))
        r = profile.radii[inside]
        expected = (np.cos(beta)**2 * mo.intensity_linear(r)
                    + np.sin(beta)**2 * mo.intensity_circular(r))
        dev_tilt = np.max(np.abs(profile.intensities[inside] / expected - 1.0))
        assert dev_tilt < 0.01

        # apparent fraction versus power: monotone, correct limits
        anisotropy = 0.5 * tm.polarizability()
        a0 = lv.apparent_a_pi(0.0, 0.9, anisotropy)
        a_inf = lv.apparent_a_pi(1e3, 0.9, anisotropy)
        powers = np.geomspace(1e-4, 1.0, 30)
        curve = [lv.apparent_a_pi(p, 0.9, anisotropy) for p in powers]
        assert a0 == pytest.approx(0.3, rel=1e-9)
        assert a_inf == pytest.approx(0.9, abs=1e-3)
        assert np.all(np.diff(curve) > 0)
    assert t.elapsed < 30.0
    _report(8, f"reductions {dev_lin:.1e}/{dev_cir:.1e} < 1e-9, tilt decomposition "
               f"{100*dev_tilt:.2f}% < 1%, a_pi(P) monotone 0.30 -> 0.90, "
               f"{t.elapsed:.1f}s")


def test_criterion_09_equipartition_and_parseval():
    with Timer() as t:
        mass = 6.5e-21
        omega = 2 * np.pi * 1e6
        stiffness = lv.TrapStiffness(k_z=mass * omega**2)
        gamma = 2 * np.pi * 0.62e6
        cfg = lv.SimConfig(time_step=1.2e-8, duration=1.2e-8 * 1_000_000, seed=2)
        series = lv.simulate_axial_motion(stiffness, gamma, mass, 296.0, cfg)
        ratio = np.var(series.samples) * stiffness.k_z / KT
        assert ratio == pytest.approx(1.0, abs=0.03)

        parseval = []
        rng = np.random.default_rng(9)
        white = lv.TimeSeries(sample_interval=1e-6,
                              samples=rng.normal(0, 1.7, 2**17))
        for s in (series, white):
            spec = analysis.power_spectral_density(s)
            parseval.append(spec.integral() / np.var(s.samples))
            assert parseval[-1] == pytest.approx(1.0, abs=0.01)
    assert t.elapsed < 60.0
    _report(9, f"equipartition ratio {ratio:.4f} (1 +/- 0.03), Parseval "
               f"{parseval[0]:.4f}/{parseval[1]:.4f} (1 +/- 0.01), {t.elapsed:.1f}s")


def test_criterion_10_blinking_pipeline():
    with Timer() as t:
        exc = pe.ExcitationConfig()
        chain = pe.DetectionChain()
        grey_factor = 3.0
        emitter = pe.EmitterModel(auger_pair_prob=1.0, blink_mode="two_state",
                                  grey_attenuation=grey_factor)
        stream = pe.generate_time_tags(exc, emitter, chain, 10.0, seed=1001)
        hist = analysis.blink_analysis(stream, bin_width=500e-6)
        bright = pe.expected_count_rate(exc, emitter, chain).rate
        assert hist.grey_mean_rate == pytest.approx(bright / grey_factor, rel=0.10)

        burst = pe.EmitterModel(auger_pair_prob=1.0, blink_mode="bursts")
        bstream = pe.generate_time_tags(exc, burst, chain, 10.0, seed=1002)
        bhist = analysis.blink_analysis(bstream, bin_width=500e-6)
        assert bhist.classification == "exponential_burst"

        # deterministic classification on identical input
        again = analysis.blink_analysis(bstream, bin_width=500e-6)
        assert again.classification == bhist.classification
        assert analysis.blink_analysis(stream).classification == hist.classification
    assert t.elapsed < 120.0
    _report(10, f"grey mean {hist.grey_mean_rate/1e3:.1f} kcps vs bright/g = "
                f"{bright/grey_factor/1e3:.1f} kcps (10%), bursts classified, "
                f"deterministic, {t.elapsed:.1f}s")
