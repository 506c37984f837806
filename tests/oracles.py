"""Independent reference computations for the test suite.

Everything here is derived by a different route than the package code:
adaptive quadrature, exact enumeration, dense-grid quadrature, explicit
stepping of matrix exponentials, a recursive filter in place of a banded
solve, and per-pulse or rejection Monte Carlo of the models the package
evaluates exactly.  Nothing here imports ``pmtrap``.
"""

import zlib
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import integrate, signal
from scipy.linalg import expm

KB = 1.380649e-23


# --- mirror collection, theta quadrature -----------------------------------
# normalized dipole angular densities over 4 pi: linear (3/8pi) sin^2 theta,
# circular (3/16pi)(1 + cos^2 theta); the collected fraction integrates
# density * 2 pi sin(theta) over [theta0, theta1]

DIPOLE_DENSITY = {
    "linear": lambda t: 3.0 / (8.0 * np.pi) * np.sin(t) ** 2,
    "circular": lambda t: 3.0 / (16.0 * np.pi) * (1.0 + np.cos(t) ** 2),
}


def collection_quad(kind, theta0, theta1):
    density = DIPOLE_DENSITY[kind]
    val, _ = integrate.quad(lambda t: density(t) * 2.0 * np.pi * np.sin(t),
                            theta0, theta1, epsabs=1e-12, epsrel=1e-11, limit=200)
    return val


# --- aperture-plane intensity integral --------------------------------------
# With unit amplitude, integral of I(R) 2 pi R dR over all R is 8 pi / 3 for
# both dipole shapes, so the band integral over [R0, R1] divided by 8pi/3 must
# equal the angular collection fraction.

def aperture_band_integral(shape, r0, r1):
    val, _ = integrate.quad(lambda r: shape(r) * 2.0 * np.pi * r, r0, r1,
                            epsabs=1e-12, epsrel=1e-11, limit=200)
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


# --- exciton number and Auger chain, per-pulse Monte Carlo -----------------

def excitons_per_pulse(power, saturation_power, rng, size=None):
    """Poissonian exciton number(s) with mean P/P_sat."""
    if power < 0 or saturation_power <= 0:
        raise ValueError("require power >= 0 and saturation_power > 0")
    mean = power / saturation_power
    if mean == 0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    return rng.poisson(mean, size=size)


def auger_reduce(k, pair_prob, rng):
    """Photons surviving the pairwise Auger-annihilation chain, drawn per pulse.

    While at least two excitons remain, one pair either merges into a single
    exciton (probability ``pair_prob``) or both leave the pool and radiate.
    An int ``k`` gives an int; a 1-D array gives an int64 array with one
    independent chain per element.
    """
    if not 0.0 <= pair_prob <= 1.0:
        raise ValueError("pair_prob must be in [0, 1]")
    pool = np.array(k, dtype=np.int64, ndmin=1)
    if np.any(pool < 0):
        raise ValueError("k must be >= 0")
    if pair_prob >= 1.0:
        np.minimum(pool, 1, out=pool)
    elif pair_prob > 0.0:
        radiated = np.zeros_like(pool)
        active = pool >= 2
        while np.any(active):
            idx = np.nonzero(active)[0]
            merge = rng.random(idx.size) < pair_prob
            pool[idx[merge]] -= 1
            pool[idx[~merge]] -= 2
            radiated[idx[~merge]] += 2
            active[idx] = pool[idx] >= 2
        pool += radiated
    return int(pool[0]) if np.ndim(k) == 0 else pool


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

def mean_cos2_quad(depth_over_kt):
    """<u^2> under the weight exp(-s (1 - u^2)) on [0, 1], by adaptive quadrature.

    The weight stays in (0, 1]; for s > 20 its boundary layer at u = 1,
    of width ~1/s, gets a breakpoint at 1 - 20/s.
    """
    s = depth_over_kt
    if s == 0:
        return 1.0 / 3.0
    weight = lambda u: np.exp(-s * (1.0 - u**2))
    points = [1.0 - 20.0 / s] if s > 20 else None
    opts = dict(points=points, limit=200, epsabs=0.0, epsrel=1e-11)
    num, _ = integrate.quad(lambda u: u**2 * weight(u), 0.0, 1.0, **opts)
    den, _ = integrate.quad(weight, 0.0, 1.0, **opts)
    return num / den


def mean_cos2_grid(depth_over_kt, n=200001):
    u = np.linspace(0.0, 1.0, n)
    w = np.exp(-depth_over_kt * (1.0 - u**2))
    return np.trapezoid(u**2 * w, u) / np.trapezoid(w, u)


class TiltSample(NamedTuple):
    beta: np.ndarray
    cos2_mean: float
    cos2_std_error: float


def sample_tilt_distribution(align_depth, temperature, n_samples, seed):
    """Rejection Monte Carlo of the alignment Boltzmann distribution of beta.

    p(beta) ~ exp(-s sin^2 beta) sin(beta) on [0, pi/2] with s = dU / kB T;
    on u = cos(beta) the target ~ exp(s u^2) is dominated by the invertible
    envelope ~ exp(s u).  The generator is derived from ``seed`` and the
    label "tilt-sampler" as the package's seeded streams are.
    """
    s = align_depth / (KB * temperature)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(b"tilt-sampler")]))
    u_out = np.empty(n_samples)
    filled = 0
    while filled < n_samples:
        m = max(n_samples - filled, 1024)
        v = rng.random(m)
        if s == 0:
            u = v
            accept = np.ones(m, dtype=bool)
        else:
            # inverse CDF of the envelope exp(s u) on [0, 1], overflow-safe
            u = 1.0 + np.log(v + (1.0 - v) * np.exp(-s)) / s
            accept = np.log(rng.random(m)) < s * (u**2 - u)
        good = u[accept]
        take = min(len(good), n_samples - filled)
        u_out[filled: filled + take] = good[:take]
        filled += take
    cos2 = u_out**2
    return TiltSample(beta=np.arccos(u_out), cos2_mean=float(np.mean(cos2)),
                      cos2_std_error=float(np.std(cos2, ddof=1) / np.sqrt(n_samples)))


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


# --- thermal Langevin splitting, recursive filter ---------------------------

def ar2_lfilter(omega, gamma, kt_over_m, dt, z0, v0, xi):
    """z after k = 0..n-1 steps of the thermal splitting, by ``lfilter``.

    One step maps (z, v) to A (z, v) + w xi[k]: half harmonic steps (expm of
    the generator over dt/2) around the exact velocity decay exp(-gamma dt)
    with kick sqrt(kT/m (1 - exp(-2 gamma dt))).  By Cayley-Hamilton z obeys
    z[k] = tr(A) z[k-1] - det(A) z[k-2] + w_z e[k] + (a12 w_v - a22 w_z) e[k-1]
    with e[k] = xi[k-1] and e[0] = 0; the initial state enters as the filter
    state.  ``xi`` holds the n - 1 unit normal kicks.
    """
    half = expm(np.array([[0.0, 1.0], [-omega**2, 0.0]]) * (dt / 2.0))
    c1 = np.exp(-gamma * dt)
    A = half @ np.diag([1.0, c1]) @ half
    w = half @ np.array([0.0, np.sqrt(kt_over_m * (1.0 - c1**2))])
    b = [w[0], A[0, 1] * w[1] - A[1, 1] * w[0]]
    a = [1.0, -np.trace(A), np.linalg.det(A)]
    zi = [z0, A[0, 1] * v0 - A[1, 1] * z0]
    z, _ = signal.lfilter(b, a, np.concatenate([[0.0], xi]), zi=zi)
    return z
