import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from pmtrap import mirror_optics as mo
from pmtrap.errors import FitError, InsufficientDataError, InvalidGeometryError

import oracles

GEOM = mo.MirrorGeometry()
Z_AXIS = np.array([0.0, 0.0, 1.0])


def tilted(beta_deg):
    b = np.radians(beta_deg)
    return np.array([np.sin(b), 0.0, np.cos(b)])


class TestThetaFromR:
    def test_on_axis(self):
        assert mo.theta_from_R(0.0) == 0.0

    def test_r_equals_two(self):
        assert mo.theta_from_R(2.0) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_reference_rim(self):
        # aperture radius over focal length: 10/2.1
        theta = mo.theta_from_R(10.0 / 2.1)
        assert np.degrees(theta) == pytest.approx(134.4, abs=1.0)

    def test_monotone(self):
        r = np.linspace(0, 20, 500)
        assert np.all(np.diff(mo.theta_from_R(r)) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mo.theta_from_R(-0.1)


class TestIntensityShapes:
    def test_linear_zero_on_axis(self):
        assert mo.intensity_linear(0.0) == 0.0

    def test_linear_at_two(self):
        assert mo.intensity_linear(2.0) == pytest.approx(0.25, rel=1e-12)

    def test_linear_argmax(self):
        # grid-search oracle for the maximum position
        r = np.linspace(0.5, 2.0, 2_000_001)
        r_star = r[np.argmax(mo.intensity_linear(r))]
        assert r_star == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-5)

    def test_circular_max_on_axis(self):
        assert mo.intensity_circular(0.0) == 1.0
        r = np.linspace(0, 10, 1000)
        assert np.max(mo.intensity_circular(r)) == 1.0

    def test_circular_at_two(self):
        assert mo.intensity_circular(2.0) == pytest.approx(0.125, rel=1e-12)

    def test_ratio_diverges_on_axis(self):
        r = np.array([1e-1, 1e-3, 1e-6])
        ratio = mo.intensity_circular(r) / mo.intensity_linear(r)
        assert np.all(np.diff(ratio) > 0) and ratio[-1] > 1e10


class TestGeneralDipoleImage:
    def test_reduces_to_linear(self):
        img = mo.general_dipole_image(Z_AXIS, GEOM)
        R = img.radius_grid()
        mask = img.pixels > 0
        rel = np.abs(img.pixels[mask] / mo.intensity_linear(R[mask]) - 1.0)
        assert rel.max() < 1e-9

    def test_named_linear_matches_vector(self):
        a = mo.general_dipole_image(mo.LINEAR_ON_AXIS, GEOM)
        b = mo.general_dipole_image(Z_AXIS, GEOM)
        assert np.allclose(a.pixels, b.pixels, rtol=1e-12, atol=0)

    def test_inplane_mix_reduces_to_circular(self):
        x = mo.general_dipole_image(np.array([1.0, 0.0, 0.0]), GEOM)
        y = mo.general_dipole_image(np.array([0.0, 1.0, 0.0]), GEOM)
        mix = 0.5 * (x.pixels + y.pixels)
        ref = mo.general_dipole_image(mo.CIRCULAR, GEOM)
        mask = ref.pixels > 0
        rel = np.abs(mix[mask] / ref.pixels[mask] - 1.0)
        assert rel.max() < 1e-9

    def test_tilted_breaks_symmetry(self):
        img = mo.general_dipole_image(tilted(45.0), GEOM)
        profile = mo.azimuthal_average(img)
        assert np.nanmax(profile.variances) > 0

    def test_clipping(self):
        img = mo.general_dipole_image(Z_AXIS, GEOM)
        R = img.radius_grid()
        assert np.all(img.pixels[R < GEOM.bore_radius_f] == 0)
        assert np.all(img.pixels[R > GEOM.rim_radius_f] == 0)

    def test_coarse_grid_warns(self):
        with pytest.warns(UserWarning, match="bore"):
            img = mo.general_dipole_image(Z_AXIS, GEOM, n_pixels=16)
        assert img.metadata["bore_resolved"] is False

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError):
            mo.general_dipole_image(np.array([0.0, 0.0, 1.1]), GEOM)


class TestPolarizedProjection:
    def test_pure_linear_extinction(self):
        total = mo.mix_image(1.0, GEOM)
        vert = mo.polarized_projection(total, 1.0, "vertical")
        x, y = vert.pixel_coordinates()
        # nearest pixel rows to the horizontal axis (centers at +-pitch/2)
        on_horizontal = (np.abs(y) <= vert.pixel_pitch * 0.51) & (total.pixels > 0)
        assert on_horizontal.any()
        # extinction line along the horizontal axis: sin^2(phi) -> 0
        assert vert.pixels[on_horizontal].max() < 0.01 * vert.pixels.max()
        mask = total.pixels > 0
        r2 = x**2 + y**2
        expected = total.pixels * np.where(r2 > 0, y**2 / np.where(r2 > 0, r2, 1), 0.5)
        assert np.allclose(vert.pixels[mask], expected[mask], rtol=1e-12)

    def test_pure_circular_splits_evenly(self):
        total = mo.mix_image(0.0, GEOM)
        vert = mo.polarized_projection(total, 0.0, "vertical")
        horiz = mo.polarized_projection(total, 0.0, "horizontal")
        assert np.allclose(vert.pixels, horiz.pixels, rtol=0, atol=0)
        assert np.allclose(vert.pixels, total.pixels / 2, rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 1.0))
    @example(0.0)
    @example(0.31)
    @example(0.5)
    @example(1.0)
    def test_energy_split_exact(self, a_pi):
        total = mo.mix_image(a_pi, GEOM)
        vert = mo.polarized_projection(total, a_pi, "vertical")
        horiz = mo.polarized_projection(total, a_pi, "horizontal")
        recon = vert.pixels + horiz.pixels
        mask = total.pixels > 0
        rel = np.abs(recon[mask] / total.pixels[mask] - 1.0)
        assert rel.max() < 1e-9

    def test_extinction_contrast_reference_mix(self):
        # ring at the linear-shape maximum R = 2/sqrt(3)
        total = mo.mix_image(0.31, GEOM, n_pixels=512)
        vert = mo.polarized_projection(total, 0.31, "vertical")
        R = vert.radius_grid()
        ring = np.abs(R - 2.0 / np.sqrt(3.0)) < vert.pixel_pitch / 2
        contrast = vert.pixels[ring].min() / vert.pixels[ring].max()
        i_pi = mo.intensity_linear(2.0 / np.sqrt(3.0))
        i_sig = mo.intensity_circular(2.0 / np.sqrt(3.0))
        expected = (0.345 * i_sig) / (0.31 * i_pi + 0.345 * i_sig)
        assert contrast == pytest.approx(expected, rel=0.05)
        assert contrast > 0


class TestCollectionEfficiency:
    def test_reference_values(self):
        assert mo.collection_efficiency("linear", GEOM) == pytest.approx(0.94, abs=0.005)
        assert mo.collection_efficiency("circular", GEOM) == pytest.approx(0.76, abs=0.005)

    def test_matches_closed_form(self):
        for kind in ("linear", "circular"):
            got = mo.collection_efficiency(kind, GEOM)
            ref = oracles.collection_quad(kind, GEOM.bore_angle, GEOM.rim_angle)
            assert got == pytest.approx(ref, abs=1e-6)

    def test_full_solid_angle(self):
        geom = mo.MirrorGeometry(focal_length=2.1e-3, aperture_radius=1e3,
                                 bore_radius=1e-12)
        assert mo.collection_efficiency("linear", geom) == pytest.approx(1.0, abs=1e-5)
        assert mo.collection_efficiency("circular", geom) == pytest.approx(1.0, abs=1e-5)

    def test_monotone_in_geometry(self):
        bores = [0.2e-3, 0.5e-3, 1.0e-3, 2.0e-3]
        effs = [mo.collection_efficiency(
            "linear", mo.MirrorGeometry(bore_radius=b)) for b in bores]
        assert np.all(np.diff(effs) < 0)
        apertures = [6e-3, 8e-3, 10e-3, 14e-3]
        effs = [mo.collection_efficiency(
            "linear", mo.MirrorGeometry(aperture_radius=a)) for a in apertures]
        assert np.all(np.diff(effs) > 0)

    def test_aperture_integral_identity(self):
        # energy bookkeeping of the R <-> theta mapping
        for kind, shape in (("linear", mo.intensity_linear),
                            ("circular", mo.intensity_circular)):
            band = oracles.aperture_band_integral(
                shape, GEOM.bore_radius_f, GEOM.rim_radius_f)
            frac = band / oracles.TOTAL_APERTURE_POWER
            assert frac == pytest.approx(
                mo.collection_efficiency(kind, GEOM), abs=1e-6)

    def test_invalid_geometry(self):
        with pytest.raises(InvalidGeometryError):
            mo.MirrorGeometry(bore_radius=11e-3)  # bore beyond aperture
        with pytest.raises(InvalidGeometryError):
            # shallower than a hemisphere
            mo.MirrorGeometry(focal_length=50e-3)


class TestAzimuthalAverage:
    def test_linear_round_trip(self):
        img = mo.general_dipole_image(Z_AXIS, GEOM)
        profile = mo.azimuthal_average(img)
        pitch = img.pixel_pitch
        inside = ((profile.radii > GEOM.bore_radius_f + pitch)
                  & (profile.radii < GEOM.rim_radius_f - pitch))
        got = profile.intensities[inside]
        ref = mo.intensity_linear(profile.radii[inside])
        assert np.max(np.abs(got / ref - 1.0)) < 0.01

    def test_constant_image(self):
        img = mo.ApertureImage(pixels=np.ones((64, 64)), pixel_pitch=0.1)
        profile = mo.azimuthal_average(img)
        assert np.allclose(profile.intensities, 1.0)

    def test_tilted_variance_positive(self):
        img = mo.general_dipole_image(tilted(45.0), GEOM)
        profile = mo.azimuthal_average(img)
        interior = ((profile.radii > GEOM.bore_radius_f + img.pixel_pitch)
                    & (profile.radii < GEOM.rim_radius_f - img.pixel_pitch))
        assert np.all(profile.variances[interior] > 0)


def synth_profile(a_pi, n=60, noise=0.0, rng=None):
    radii = np.linspace(0.05, 4.7, n)
    vals = (a_pi * mo.intensity_linear(radii)
            + (1 - a_pi) * mo.intensity_circular(radii))
    if noise > 0:
        vals = vals + rng.normal(0.0, noise * vals.max(), n)
    return mo.RadialProfile(radii=radii, intensities=np.clip(vals, 0, None))


class TestFitDipoleFraction:
    def test_reference_mix_noiseless(self):
        fit = mo.fit_dipole_fraction(synth_profile(0.31))
        assert fit.a_pi == pytest.approx(0.31, abs=1e-6)

    @pytest.mark.parametrize("a_pi", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_round_trip(self, a_pi):
        fit = mo.fit_dipole_fraction(synth_profile(a_pi))
        assert fit.a_pi == pytest.approx(a_pi, abs=1e-6)

    def test_pure_circular(self):
        assert mo.fit_dipole_fraction(synth_profile(0.0)).a_pi == 0.0

    def test_degenerate_profile(self):
        profile = mo.RadialProfile(radii=np.linspace(0.1, 3, 20),
                                   intensities=np.zeros(20))
        with pytest.raises(FitError):
            mo.fit_dipole_fraction(profile)

    def test_insufficient_span(self):
        profile = mo.RadialProfile(radii=np.linspace(0.1, 0.9, 20),
                                   intensities=np.ones(20))
        with pytest.raises(InsufficientDataError):
            mo.fit_dipole_fraction(profile)

    def test_noise_recovery_study(self):
        # 2% additive noise, 100 seeds: recovered fraction 0.50 +/- 0.05
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            fit = mo.fit_dipole_fraction(synth_profile(0.5, noise=0.02, rng=rng))
            errs.append(fit.a_pi - 0.5)
        errs = np.abs(errs)
        assert np.quantile(errs, 0.95) < 0.05
        assert np.mean(errs) < 0.02


class TestNonNegativeFitOracle:
    """The two-column non-negative least squares against scipy's ``nnls``."""

    # signs < 0 put the unconstrained optimum outside the quadrant, so
    # one or both coefficients clip to 0
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60),
           signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
           noise=st.floats(0.0, 1.0))
    # a square system of cond(A) ~ 2600: an exact fit whose rounded residual
    # is 3.9e-14 against nnls's 0.0
    @example(seed=12998044, m=2, signs=(1, 1), noise=1.0)
    def test_matches_scipy_nnls(self, seed, m, signs, noise):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-0.2, 1.0, (m, 2))
        y = A @ (np.array(signs) * rng.uniform(0.1, 2.0, 2))
        y = y + noise * rng.standard_normal(m)
        coeffs, residual = mo._two_column_nnls(A, y)
        ref, ref_residual = optimize.nnls(A, y)
        scale = np.linalg.norm(y) / np.min(np.linalg.norm(A, axis=0))
        assert np.all(coeffs >= 0)
        assert np.allclose(coeffs, ref, rtol=1e-9, atol=1e-12 * scale)
        # a backward-stable solve leaves a residual of order eps |A| |x|, at
        # most eps cond(A) |y|: an exact fit's residual is rounding of that size
        rounding = 16 * np.finfo(float).eps * np.linalg.cond(A) * np.linalg.norm(y)
        assert residual == pytest.approx(ref_residual, rel=1e-9, abs=rounding)

    @pytest.mark.parametrize("a_pi", [-0.3, 0.0, 0.4, 1.0, 1.3])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_fit_matches_scipy_nnls(self, a_pi, noise):
        profile = synth_profile(a_pi, noise=noise, rng=np.random.default_rng(3))
        R = profile.radii
        A = np.column_stack([mo.intensity_linear(R), mo.intensity_circular(R)])
        ref, ref_residual = optimize.nnls(A, profile.intensities)
        fit = mo.fit_dipole_fraction(profile)
        assert fit.a_pi == pytest.approx(ref[0] / ref.sum(), rel=1e-9, abs=1e-12)
        assert fit.residual_norm == pytest.approx(ref_residual, rel=1e-9,
                                                  abs=1e-14)


class TestAsymmetryMetric:
    def test_on_axis_symmetric(self):
        res = mo.asymmetry_metric(mo.general_dipole_image(Z_AXIS, GEOM))
        assert res.score < 1e-9
        assert res.classification == "symmetric"

    def test_tilted_asymmetric(self):
        res = mo.asymmetry_metric(mo.general_dipole_image(tilted(45.0), GEOM))
        assert res.score > 0.1
        assert res.classification == "asymmetric"

    def test_noise_robustness(self):
        # additive noise at SNR 10: symmetric in >= 95% of seeds
        base = mo.general_dipole_image(Z_AXIS, GEOM)
        sigma = base.pixels.max() / 10.0
        n_ok = 0
        n_seeds = 40
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            noisy = np.clip(base.pixels + rng.normal(0, sigma, base.pixels.shape),
                            0, None)
            img = mo.ApertureImage(pixels=noisy, pixel_pitch=base.pixel_pitch,
                                   metadata=base.metadata)
            if mo.asymmetry_metric(img).classification == "symmetric":
                n_ok += 1
        assert n_ok >= 0.95 * n_seeds

    def test_threshold_override(self, monkeypatch):
        img = mo.general_dipole_image(tilted(45.0), GEOM)
        monkeypatch.setattr(mo, "ASYMMETRY_SCORE_MIN", 1e6)
        monkeypatch.setattr(mo, "SYMMETRY_SCORE_MAX", 1e-12)
        res = mo.asymmetry_metric(img)
        assert res.classification == "inconclusive"


class TestMixFraction:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            mo.mix_image(1.2, GEOM)
        with pytest.raises(ValueError):
            mo.mix_image(-0.1, GEOM)
        total = mo.mix_image(0.31, GEOM)
        with pytest.raises(ValueError):
            mo.polarized_projection(total, 1.2, "vertical")
