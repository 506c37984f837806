"""Closed-form expectations for the benchmark's output checks.

Everything here is derived from the documented model (README, module
docstrings) and the documented default parameters, without importing pmtrap,
so a check never compares the package with a copy of itself.  Each
expectation comes with its statistical standard error; checks allow
``Z_TOL`` standard errors plus any systematic offset computed here a priori.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import optimize, special

Z_TOL = 5.0  # two-sided false-alarm rate ~6e-7 per check for Gaussian errors
G2_MAX_LAG = 50  # side-peak lags of `pmtrap analyze` and fig1a
KB = 1.380649e-23

# Documented defaults of `pmtrap default-config` (README "Configuration").
DEFAULTS = {
    "mirror": {"focal_length_m": 2.1e-3, "aperture_radius_m": 10e-3,
               "bore_radius_m": 0.75e-3},
    "rod": {"length_m": 35e-9, "diameter_m": 7e-9, "shell_thickness_m": 1.6e-9},
    "material": {"refractive_index": 2.34, "density_kg_m3": 4826.0},
    "gas": {"viscosity_pa_s": 1.82e-5, "mean_free_path_m": 68e-9,
            "temperature_k": 296.0},
    "trap": {"power_w": 0.36},
    "cluster": {"n_rods": 64},
    "emitter": {"quantum_yield": 0.7, "grey_attenuation": 3.0,
                "bright_dwell_s": 5e-3, "grey_dwell_s": 15e-3},
    "excitation": {"repetition_rate_hz": 1e6, "average_power_w": 2e-6,
                   "saturation_power_w": 2.63e-6},
    "detection": {"apd_quantum_efficiency": 0.69, "mirror_reflectivity": 0.72,
                  "setup_transmission": 0.83, "a_pi": 0.31,
                  "splitter_ratio": 0.5},
    "simulation": {"time_step_s": 4e-9, "duration_s": 0.01,
                   "detector_gain_v_per_m": 1e6, "detector_noise_floor": 1e-6,
                   "axial_width_m": 532e-9},
    "acquisition": {"duration_s": 10.0},
    "image": {"n_pixels": 256, "half_extent_f": 5.0, "noise_rms_fraction": 0.02},
}

# Trap calibration (README): one bare rod escapes at 41 mW and 296 K.
ESCAPE_POWER_W = 0.041
CALIBRATION_T_K = 296.0
# Reference values the paper reports (README, reproduce docstring).
COLLECTION_REFERENCE = {"linear": 0.94, "circular": 0.76}
G2_BAND = (0.15, 0.44)
EXPONENT_BAND = (0.45, 0.51)


def merged(overrides: dict) -> dict:
    """DEFAULTS with a workload's section overrides applied."""
    out = {k: dict(v) for k, v in DEFAULTS.items()}
    for section, values in overrides.items():
        if isinstance(values, dict):
            out[section].update(values)
    return out


# --- mirror collection -----------------------------------------------------

def collection_fractions(p: dict) -> dict:
    """Dipole emission fractions between bore and rim, closed-form antiderivatives."""
    m = p["mirror"]
    theta = lambda r: 2.0 * math.atan(r / m["focal_length_m"] / 2.0)
    t0, t1 = theta(m["bore_radius_m"]), theta(m["aperture_radius_m"])
    lin = lambda t: 0.75 * (-math.cos(t) + math.cos(t) ** 3 / 3.0)
    cir = lambda t: 0.375 * (-math.cos(t) - math.cos(t) ** 3 / 3.0)
    return {"linear": lin(t1) - lin(t0), "circular": cir(t1) - cir(t0)}


def detection_probability(p: dict) -> float:
    """Per emitted photon, using the reference collection fractions 0.94/0.76."""
    d = p["detection"]
    collection = (COLLECTION_REFERENCE["linear"] * d["a_pi"]
                  + COLLECTION_REFERENCE["circular"] * (1.0 - d["a_pi"]))
    return (collection * d["mirror_reflectivity"] * d["setup_transmission"]
            * d["apd_quantum_efficiency"])


# --- photon statistics -----------------------------------------------------

def auger_prob(n_rods: int) -> float:
    """Documented size law p_A(N) = 0.97 exp(-(N-1)/400)."""
    return 0.97 * math.exp(-(n_rods - 1) / 400.0)


@lru_cache(maxsize=None)
def photon_moments(mean_excitons: float, pair_prob: float,
                   k_max: int = 40) -> tuple[float, float]:
    """(E[n], E[n(n-1)]) of the per-pulse photon number.

    Forward DP over the pairwise chain: a pool of j >= 2 excitons merges one
    pair (j -> j-1, probability p) or radiates it (j -> j-2, two photons).
    State: probability mass over (pool, radiated) after each step.
    """
    log_pk = [-mean_excitons + k * math.log(mean_excitons) - math.lgamma(k + 1)
              for k in range(k_max + 1)]
    # mass[j][r]: probability of pool j with r radiated, all k combined
    mass = np.zeros((k_max + 1, k_max + 1))
    mass[:, 0] = np.exp(log_pk)
    final = np.zeros(k_max + 2)
    for j in range(k_max, -1, -1):
        row = mass[j]
        if j <= 1:
            final[j:j + k_max + 1] += row[: k_max + 2 - j]
            continue
        mass[j - 1] += pair_prob * row
        mass[j - 2, 2:] += (1.0 - pair_prob) * row[:-2]
    n = np.arange(len(final))
    return float(np.sum(n * final)), float(np.sum(n * (n - 1) * final))


def blink_stats(p: dict, blinking: bool) -> tuple[float, float, float]:
    """(E[a], Var[a], correlation time) of the emission attenuation a(t)."""
    if not blinking:
        return 1.0, 0.0, 0.0
    e = p["emitter"]
    tb, tg = e["bright_dwell_s"], e["grey_dwell_s"]
    frac = tb / (tb + tg)
    low = 1.0 / e["grey_attenuation"]
    mean = frac + (1.0 - frac) * low
    var = frac * (1.0 - frac) * (1.0 - low) ** 2
    return mean, var, 1.0 / (1.0 / tb + 1.0 / tg)


def photon_expectations(p: dict, duration: float, n_rods: int,
                        blinking: bool) -> dict:
    """Expected event count and g2(0), with standard errors.

    g2(0) = E[n(n-1)]/E[n]^2 times E[a^2] over the mean side-peak attenuation
    correlation E[a(t)a(t+L)], L = 1..G2_MAX_LAG pulses (the two-state telegraph
    covariance decays as exp(-L T_rep / tau_c)).  Bernoulli thinning and the
    splitter cancel in the ratio.  Event-count variance: per-pulse detection
    variance plus the blinking time-average variance 2 Var[a] tau_c / T.
    """
    x = p["excitation"]
    rep = x["repetition_rate_hz"]
    n_pulses = math.floor(duration * rep)
    lam = x["average_power_w"] / x["saturation_power_w"]
    m1, m2 = photon_moments(lam, auger_prob(n_rods))
    q = p["emitter"]["quantum_yield"] * detection_probability(p)
    a_mean, a_var, tau = blink_stats(p, blinking)
    a2 = a_mean ** 2 + a_var
    lags = np.arange(1, G2_MAX_LAG + 1) / rep
    side_corr = a_mean ** 2 + a_var * (float(np.mean(np.exp(-lags / tau))) if tau else 0.0)

    events = n_pulses * q * a_mean * m1
    var_pulse = q * q * a2 * m2 + q * a_mean * m1 - (q * a_mean * m1) ** 2
    var_events = n_pulses * var_pulse + (n_pulses * q * m1) ** 2 * 2.0 * a_var * tau / duration

    r = p["detection"]["splitter_ratio"]
    g2 = m2 / m1 ** 2 * a2 / side_corr
    zero = n_pulses * r * (1 - r) * q * q * a2 * m2
    side_total = 2 * G2_MAX_LAG * n_pulses * r * (1 - r) * q * q * side_corr * m1 ** 2
    return {"n_pulses": n_pulses, "events": events,
            "events_se": math.sqrt(var_events), "g2": g2,
            "g2_se": g2 * math.sqrt(1.0 / zero + 1.0 / side_total)}


def count_rate(p: dict) -> float:
    """Closed-form detected rate of an always-bright single-photon emitter."""
    x = p["excitation"]
    lam = x["average_power_w"] / x["saturation_power_w"]
    return (x["repetition_rate_hz"] * (1.0 - math.exp(-lam))
            * p["emitter"]["quantum_yield"] * detection_probability(p))


# --- trap mechanics and damping -------------------------------------------

def single_rod_gamma(p: dict) -> float:
    """Slip-corrected Stokes rate of one shell-padded rod (rad/s)."""
    rod, gas = p["rod"], p["gas"]
    radius = rod["diameter_m"] / 2.0 + rod["shell_thickness_m"]
    volume = math.pi * (rod["diameter_m"] / 2.0) ** 2 * rod["length_m"]
    mass = p["material"]["density_kg_m3"] * volume
    kn = gas["mean_free_path_m"] / radius
    c_k = 0.31 * kn / (0.785 + 1.152 * kn + kn ** 2)
    slip = 0.619 / (0.619 + kn) * (1.0 + c_k)
    return 6.0 * math.pi * gas["viscosity_pa_s"] * radius / mass * slip


def cluster_motion(p: dict) -> dict:
    """Gamma(N) = Gamma(1)/sqrt(N); trap frequency from the calibrated depth."""
    n = p["cluster"]["n_rods"]
    rod = p["rod"]
    volume = math.pi * (rod["diameter_m"] / 2.0) ** 2 * rod["length_m"]
    mass = n * p["material"]["density_kg_m3"] * volume
    # U0 = N alpha1/2 * kappa * P with kappa alpha1 = 2 kB T_cal / P_escape
    depth = n * KB * CALIBRATION_T_K * p["trap"]["power_w"] / ESCAPE_POWER_W
    stiffness = 2.0 * depth / p["simulation"]["axial_width_m"] ** 2
    return {"gamma": single_rod_gamma(p) / math.sqrt(n), "mass": mass,
            "stiffness": stiffness, "omega": math.sqrt(stiffness / mass)}


def _lorentzian(theta, f):
    a, f0, hw, b = theta
    return a * hw ** 2 / ((f - f0) ** 2 + hw ** 2) + b


def _lorentzian_jac(theta, f):
    a, f0, hw, b = theta
    d = (f - f0) ** 2 + hw ** 2
    return np.column_stack([hw ** 2 / d, 2 * a * hw ** 2 * (f - f0) / d ** 2,
                            2 * a * hw * (f - f0) ** 2 / d ** 2, np.ones_like(f)])


def lorentzian_width_expectation(p: dict) -> dict:
    """Expected fitted FWHM (Gamma/2pi, Hz) and its standard error.

    The expected Welch spectrum is the damped-oscillator PSD times the
    detector gain squared plus the white detector floor, on the Welch grid
    that analysis.power_spectral_density documents.  An unweighted
    Lorentzian-plus-background least-squares fit on the peak window
    (center +- 4 FWHM) of that noise-free spectrum gives the estimator's
    systematic offset.  Its sandwich covariance gives the standard error,
    with each Welch bin an independent mu_i chi^2_2K / 2K (variance mu_i^2/K
    over the K averaged segments).
    """
    sim = p["simulation"]
    motion = cluster_motion(p)
    gamma, omega, mass = motion["gamma"], motion["omega"], motion["mass"]
    dt = sim["time_step_s"]
    n = int(round(sim["duration_s"] / dt))
    seg = int(2 ** np.clip(np.floor(np.log2(max(n // 8, 2))), 8, 16))
    n_seg = 1 + (n - seg) // (seg // 2)
    f = np.arange(seg // 2 + 1) / (seg * dt)
    w = 2 * np.pi * f
    kt = KB * p["gas"]["temperature_k"]
    psd = (sim["detector_gain_v_per_m"] ** 2 * 4 * kt * gamma / mass
           / ((omega ** 2 - w ** 2) ** 2 + (gamma * w) ** 2)
           + sim["detector_noise_floor"] ** 2)

    peak = int(np.argmax(psd))
    background = float(np.median(psd))
    half = background + (psd[peak] - background) / 2.0
    fwhm0 = (f[1] - f[0]) * int(np.count_nonzero(psd > half))
    keep = (np.abs(f - f[peak]) <= 4.0 * fwhm0) & (f > 0)
    fk, mu = f[keep], psd[keep]
    scale = float(mu.max())
    fit = optimize.least_squares(
        lambda t: _lorentzian(t, fk) - mu / scale,
        [1.0, f[peak], fwhm0 / 2.0, float(mu.min() / scale)],
        jac=lambda t: _lorentzian_jac(t, fk), method="lm",
        xtol=1e-14, ftol=1e-14, gtol=1e-14)
    jac = _lorentzian_jac(fit.x, fk)
    bread = np.linalg.inv(jac.T @ jac)
    cov = bread @ (jac.T * (mu / scale) ** 2 / n_seg) @ jac @ bread
    return {"model_hz": gamma / (2 * np.pi), "fit_hz": 2.0 * fit.x[2],
            "se_hz": 2.0 * math.sqrt(cov[2, 2])}


# --- aperture images -------------------------------------------------------

def dipole_fraction_expectation(p: dict) -> dict:
    """Expected fitted a_pi and its standard error.

    Pixel model (README, mirror_optics): a_pi I_pi(R) + (1-a_pi) I_sigma(R)
    inside [bore, rim], plus N(0, (f max)^2) camera noise clipped at zero.
    The profile averages pixels in annuli one pitch wide, keeping annuli
    strictly inside the unclipped aperture; a two-shape least-squares fit
    to the expected (clip-biased) profile gives the systematic offset, and
    its covariance under the per-annulus noise sigma^2 / n_pixels gives the
    standard error.
    """
    img, m = p["image"], p["mirror"]
    a_pi = p["detection"]["a_pi"]
    n_px = img["n_pixels"]
    pitch = 2.0 * img["half_extent_f"] / n_px
    coords = (np.arange(n_px) - (n_px - 1) / 2.0) * pitch
    radius = np.hypot(*np.meshgrid(coords, coords)).ravel()
    bore = m["bore_radius_m"] / m["focal_length_m"]
    rim = m["aperture_radius_m"] / m["focal_length_m"]
    i_pi = lambda r: r ** 2 / (r ** 2 / 4 + 1) ** 4
    i_sigma = lambda r: (r ** 4 / 16 + 1) / (r ** 2 / 4 + 1) ** 4
    clean = a_pi * i_pi(radius) + (1 - a_pi) * i_sigma(radius)
    clean[(radius < bore) | (radius > rim)] = 0.0
    sigma = img["noise_rms_fraction"] * float(clean.max())
    z = clean / sigma
    # E[max(x + e, 0)] for e ~ N(0, sigma^2)
    clipped = clean * special.ndtr(z) + sigma * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    ring = np.floor(radius / pitch).astype(np.int64)
    counts = np.bincount(ring)
    occupied = counts > 0
    centers = (np.arange(len(counts)) + 0.5) * pitch
    keep = occupied & (centers > bore + pitch) & (centers < rim - pitch)
    profile = np.bincount(ring, weights=clipped)[keep] / counts[keep]
    r = centers[keep]
    design = np.column_stack([i_pi(r), i_sigma(r)])
    coeffs, *_ = np.linalg.lstsq(design, profile, rcond=None)
    bread = np.linalg.inv(design.T @ design)
    cov = bread @ (design.T * (sigma ** 2 / counts[keep])) @ design @ bread
    total = coeffs.sum()
    grad = np.array([coeffs[1], -coeffs[0]]) / total ** 2
    return {"a_pi": a_pi, "fit": float(coeffs[0] / total),
            "se": float(math.sqrt(grad @ cov @ grad))}
