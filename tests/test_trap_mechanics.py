import numpy as np
import pytest
from scipy import stats

from pmtrap import constants as const
from pmtrap import trap_mechanics as tm
from pmtrap.errors import InsufficientDataError


KT = const.BOLTZMANN * 296.0


class TestPolarizability:
    def test_reference_rod(self):
        # eps0 * pi (3.5 nm)^2 * 35 nm * (2.34^2 - 1)
        assert tm.polarizability() == pytest.approx(5.34e-35, rel=0.01)

    def test_index_matched(self):
        material = tm.MaterialParams(refractive_index=1.0 + 1e-12)
        assert tm.polarizability(material=material) == pytest.approx(0.0, abs=1e-44)

    def test_volume_additive(self):
        assert tm.polarizability(n_rods=16) == 16 * tm.polarizability()


class TestFieldFactorAndDepth:
    def test_calibrated_magnitude(self):
        assert tm.calibrated_field_factor() == pytest.approx(3.7e15, rel=0.02)

    def test_zero_power(self):
        # a beam without power traps nothing
        with pytest.raises(ValueError, match="power must be > 0"):
            tm.TrapParams(power=0.0)

    def test_escape_point_is_kt(self):
        trap = tm.TrapParams(power=0.041)  # the single-rod escape power
        depth = tm.trap_depth(tm.polarizability(), trap)
        assert depth == pytest.approx(KT, rel=1e-9)

    def test_linear_in_cluster_size(self):
        trap = tm.TrapParams(power=0.1)
        one = tm.trap_depth(tm.polarizability(), trap)
        two = tm.trap_depth(tm.polarizability(n_rods=2), trap)
        assert two == pytest.approx(2 * one, rel=1e-12)


class TestMinPower:
    def test_single_rod_calibration_point(self):
        assert tm.min_power(tm.polarizability()) == pytest.approx(0.041, rel=1e-12)

    def test_sixteen_rods(self):
        p = tm.min_power(tm.polarizability(n_rods=16))
        assert p == pytest.approx(0.041 / 16, rel=1e-12)
        assert p * 1e3 == pytest.approx(2.56, abs=0.01)

    def test_inverse_proportionality_exact(self):
        alpha = tm.polarizability()
        for n in (2, 3, 10, 100):
            assert tm.min_power(n * alpha) * n == pytest.approx(
                tm.min_power(alpha), rel=1e-12)

    def test_large_cluster_limit(self):
        assert tm.min_power(tm.polarizability(n_rods=10**6)) < 1e-7


class TestRodsFromPmin:
    def test_average_cluster(self):
        assert tm.rods_from_pmin(2.5e-3) == pytest.approx(16.4, abs=0.1)

    def test_calibration_point(self):
        assert tm.rods_from_pmin(41e-3) == pytest.approx(1.0, rel=1e-9)

    def test_alignment_threshold(self):
        assert tm.rods_from_pmin(1.5e-3) == pytest.approx(27.3, abs=0.1)

    def test_round_trip_identity(self):
        alpha1 = tm.polarizability()
        for n in (1, 4, 16, 64):
            p = tm.min_power(n * alpha1)
            assert tm.rods_from_pmin(p) == pytest.approx(n, rel=1e-9)

    def test_out_of_model_warning(self):
        with pytest.warns(UserWarning, match="outside the cluster model"):
            n = tm.rods_from_pmin(60e-3)
        assert n < 1.0


class TestClusterGeometry:
    def test_single_rod_padded_radius(self):
        cluster = tm.ClusterSample(n_rods=1)
        assert tm.effective_radius(cluster) == pytest.approx(5.1e-9, rel=1e-9)

    @pytest.mark.parametrize("n,expected", [(4, 10.2e-9), (16, 20.4e-9)])
    def test_sqrt_scaling(self, n, expected):
        cluster = tm.ClusterSample(n_rods=n)
        assert tm.effective_radius(cluster) == pytest.approx(expected, rel=1e-9)

    def test_single_rod_mass(self):
        assert tm.cluster_mass(tm.ClusterSample(n_rods=1)) == pytest.approx(6.5e-21, rel=0.02)

    def test_mass_additive(self):
        m1 = tm.cluster_mass(tm.ClusterSample(n_rods=1))
        assert tm.cluster_mass(tm.ClusterSample(n_rods=7)) == pytest.approx(
            7 * m1, rel=1e-12)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError):
            tm.RodGeometry(diameter=0.0)


class TestDampingRate:
    def test_single_rod_reference(self):
        cluster = tm.ClusterSample(n_rods=1)
        rate = tm.damping_rate(cluster.rod.padded_radius, tm.cluster_mass(cluster))
        assert rate.hz == pytest.approx(2.0e6, rel=0.10)
        assert rate.rad_per_s == pytest.approx(2 * np.pi * rate.hz, rel=1e-12)

    def test_continuum_stokes_limit(self):
        gas = tm.GasParams(mean_free_path=1e-15)
        r, m = 5.1e-9, 6.5e-21
        rate = tm.damping_rate(r, m, gas)
        stokes = 6 * np.pi * gas.viscosity * r / m
        assert rate.rad_per_s == pytest.approx(stokes, rel=1e-4)

    def test_decreasing_in_mass(self):
        masses = np.geomspace(1e-21, 1e-18, 8)
        rates = [tm.damping_rate(5.1e-9, m).rad_per_s for m in masses]
        assert np.all(np.diff(rates) < 0)

    def test_geometric_cluster_law_exact(self):
        base = tm.cluster_damping_rate(tm.ClusterSample(n_rods=1)).rad_per_s
        for n in (4, 9, 16, 64):
            got = tm.cluster_damping_rate(tm.ClusterSample(n_rods=n)).rad_per_s
            assert got == pytest.approx(base / np.sqrt(n), rel=1e-12)

    def test_full_slip_mode_identity(self):
        # with the Knudsen correction included, the ratio equals the geometric
        # law times the slip-factor ratio, exactly
        gas = tm.GasParams()
        base = tm.cluster_damping_rate(tm.ClusterSample(n_rods=1), gas,
                                       slip_at_single_rod=False).rad_per_s
        r1 = tm.RodGeometry().padded_radius
        for n in (4, 16, 64):
            cluster = tm.ClusterSample(n_rods=n)
            got = tm.cluster_damping_rate(cluster, gas,
                                          slip_at_single_rod=False).rad_per_s
            s1 = tm._slip_factor(gas.mean_free_path / r1)
            sn = tm._slip_factor(gas.mean_free_path / (r1 * np.sqrt(n)))
            assert got / base == pytest.approx((sn / s1) / np.sqrt(n), rel=1e-12)

    def test_positive_finite(self):
        for n in (1, 5, 50):
            cluster = tm.ClusterSample(n_rods=n)
            rate = tm.cluster_damping_rate(cluster)
            assert np.isfinite(rate.rad_per_s) and rate.rad_per_s > 0


class TestGammaPminExponent:
    def test_model_chain_exponent(self):
        # N in {4..64} through min_power and the geometric damping law
        alpha1 = tm.polarizability()
        samples = []
        for n in (4, 8, 16, 32, 64):
            p = tm.min_power(n * alpha1)
            g = tm.cluster_damping_rate(tm.ClusterSample(n_rods=n)).rad_per_s
            samples.append((p, g))
        fit = tm.gamma_pmin_exponent(samples)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.std_error < 1e-9

    def test_constant_data(self):
        samples = [(p, 1.0) for p in (1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2)]
        fit = tm.gamma_pmin_exponent(samples)
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_ci_brackets_estimate(self):
        rng = np.random.default_rng(1)
        p = np.geomspace(1e-3, 1e-2, 12)
        g = p**0.48 * np.exp(rng.normal(0, 0.05, 12))
        fit = tm.gamma_pmin_exponent(list(zip(p, g)))
        assert fit.ci95[0] < fit.exponent < fit.ci95[1]
        assert fit.exponent == pytest.approx(0.48, abs=0.1)

    def test_ci_is_t_interval(self):
        # fig1b's nine points: 7 degrees of freedom, t(0.975, 7) = 2.3646
        rng = np.random.default_rng(4)
        p = np.geomspace(1e-3, 1e-2, 9)
        fit = tm.gamma_pmin_exponent(list(zip(p, p**0.5 * np.exp(rng.normal(0, 0.05, 9)))))
        half = 0.5 * (fit.ci95[1] - fit.ci95[0])
        assert half == pytest.approx(stats.t.ppf(0.975, 7) * fit.std_error, rel=1e-12)
        assert half / (1.96 * fit.std_error) == pytest.approx(1.2064, abs=1e-4)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            tm.gamma_pmin_exponent([(1e-3, 1.0)] * 4)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            tm.gamma_pmin_exponent([(1e-3, -1.0)] * 6)


class TestStudentTQuantile:
    @pytest.mark.parametrize("dof", range(1, 61))
    def test_matches_scipy(self, dof):
        for p in (0.5, 0.6, 0.9, 0.975, 0.995):
            assert tm._t_quantile(p, dof) == pytest.approx(stats.t.ppf(p, dof),
                                                           rel=1e-12, abs=1e-15)
