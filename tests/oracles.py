"""Independent reference computations for the test suite.

Everything here is derived by a different route than the package code:
closed-form antiderivatives, exact enumeration, dense-grid quadrature,
explicit stepping of matrix exponentials.
"""

from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.linalg import expm

KB = 1.380649e-23


# --- mirror collection, closed form -----------------------------------------
# linear dipole: integral of (3/8pi) sin^2atheta * 2pi sin(theta) dtheta
#   = (3/4) * [-cos + cos^3/3]
# circular dipole: (3/16pi)(1+cos^2 theta) * 2pi sin(theta) dtheta
#   = (3/8) * [-cos - cos^3/3]

def collection_linear_closed(theta0, theta1):
    F = lambda t: 0.75 * (-np.cos(t) + np.cos(t) ** 3 / 3.0)
    return F(theta1) - F(theta0)


def collection_circular_closed(theta0, theta1):
    G = lambda t: 0.375 * (-np.cos(t) - np.cos(t) ** 3 / 3.0)
    return G(theta1) - G(theta0)


# --- aperture-plane intensity integral --------------------------------------
# With unit amplitude, integral of I(R) 2 pi R dR over all R is 8 pi / 3 for
# both dipole shapes, so the band integral over [R0, R1] divided by 8pi/3 must
# equal the angular collection fraction.

def aperture_band_integral(shape, r0, r1):
    val, _ = integrate.quad(lambda r: shape(r) * 2.0 * np.pi * r, r0, r1,
                            epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


TOTAL_APERTURE_POWER = 8.0 * np.pi / 3.0


# --- pairwise Auger reduction, exact enumeration ----------------------------

def auger_photon_pmf(k, pair_prob):
    """Exact photon-number pmf for k initial excitons.

    Recursion over the chain: a pool of j >= 2 excitons either merges one pair
    (j -> j-1, probability p) or radiates the pair (j -> j-2, +2 photons).
    """
    @lru_cache(maxsize=None)
    def pmf(j):
        if j <= 1:
            out = np.zeros(j + 1)
            out[j] = 1.0
            return tuple(out)
        merged = np.array(pmf(j - 1))
        radiated = np.array(pmf(j - 2))
        out = np.zeros(j + 1)
        out[: len(merged)] += pair_prob * merged
        out[2: 2 + len(radiated)] += (1.0 - pair_prob) * radiated
        return tuple(out)

    return np.array(pmf(int(k)))


def poisson_pmf(mean, k_max):
    ks = np.arange(k_max + 1)
    log_p = -mean + ks * np.log(mean) - np.array(
        [np.sum(np.log(np.arange(1, k + 1))) if k else 0.0 for k in ks])
    return np.exp(log_p)


def pulsed_g2_expected(mean_excitons, pair_prob, k_max=40):
    """g2(0) = E[n(n-1)]/E[n]^2 of the per-pulse photon number.

    Bernoulli thinning and a balanced splitter leave this ratio unchanged, so
    it equals the measured zero-lag/side-peak coincidence ratio.
    """
    pk = poisson_pmf(mean_excitons, k_max)
    e_n = 0.0
    e_nn = 0.0
    for k, p in enumerate(pk):
        pmf = auger_photon_pmf(k, pair_prob)
        n = np.arange(len(pmf))
        e_n += p * float(np.sum(pmf * n))
        e_nn += p * float(np.sum(pmf * n * (n - 1)))
    return e_nn / e_n**2


def independent_emitters_g2(n_emitters):
    """n identical independent sub-Poissonian emitters: 1 - 1/n exactly."""
    return 1.0 - 1.0 / n_emitters


# --- pulse-lag coincidences, dense brute force ------------------------------

def pulse_lag_coincidences(pulses0, pulses1, max_lag):
    """Cross-channel coincidences at pulse lags -max_lag..max_lag.

    Dense per-pulse event counts for each channel (pulse indices >= 0), then
    for every lag an explicit sum over all pulses of count(ch0, i) *
    count(ch1, i + lag).
    """
    n = int(max(np.max(pulses0), np.max(pulses1))) + 1
    dense0 = np.bincount(pulses0, minlength=n)
    dense1 = np.bincount(pulses1, minlength=n)
    out = np.zeros(2 * max_lag + 1, dtype=np.int64)
    for k, lag in enumerate(range(-max_lag, max_lag + 1)):
        for i in range(n):
            if 0 <= i + lag < n:
                out[k] += int(dense0[i]) * int(dense1[i + lag])
    return out


# --- alignment statistics, dense-grid quadrature ----------------------------

def mean_cos2_grid(depth_over_kt, n=200001):
    u = np.linspace(0.0, 1.0, n)
    w = np.exp(-depth_over_kt * (1.0 - u**2))
    return np.trapezoid(u**2 * w, u) / np.trapezoid(w, u)


# --- noise-free Langevin splitting, explicit stepping -----------------------

def splitting_transient(omega, gamma, dt, z0, v0, n):
    """z after k = 0..n-1 steps of half-harmonic / velocity decay / half-harmonic.

    The half step is expm of the harmonic generator [[0, 1], [-omega^2, 0]]
    over dt/2; the damping step multiplies v by exp(-gamma dt).
    """
    half = expm(np.array([[0.0, 1.0], [-omega**2, 0.0]]) * (dt / 2.0))
    step = half @ np.diag([1.0, np.exp(-gamma * dt)]) @ half
    state = np.array([z0, v0], dtype=float)
    out = np.empty(n)
    for k in range(n):
        out[k] = state[0]
        state = step @ state
    return out
