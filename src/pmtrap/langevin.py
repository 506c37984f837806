"""Stochastic dynamics of the trapped cluster.

Axial translation is modeled as a damped harmonic Langevin equation

    m z'' = -k_z z - m Gamma z' + sqrt(2 m Gamma kB T) xi(t)

integrated with a Strang splitting: exact harmonic rotation half-steps (the
exact Hamiltonian flow, hence symplectic) around an exact Ornstein-Uhlenbeck
damping/noise sub-step.  Both sub-steps leave the Boltzmann distribution of
the harmonic trap invariant, so equipartition holds without time-step bias,
and the scheme is unconditionally stable for any damping.  The one-step map
is linear, so its z component obeys an exact ARMA(2, 1) recurrence (by
Cayley-Hamilton) that one scipy lfilter pass evaluates, with the initial
state (z0, v0) entering as the filter state; this is bit-deterministic per
seed and orders of magnitude faster than stepping in Python.

Rod alignment is modeled by its stationary statistics: tilt angles beta
follow the Boltzmann weight exp(-dU sin^2(beta)/kB T) sin(beta) on
[0, pi/2], which maps trap power onto the apparent linear-dipole fraction
a_pi(P) = intrinsic * <cos^2 beta>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import integrate, signal

from . import constants as const
from .seeding import rng_for

__all__ = [
    "TrapStiffness",
    "SimConfig",
    "TimeSeries",
    "TiltSample",
    "simulate_axial_motion",
    "detector_signal",
    "sample_tilt_distribution",
    "mean_cos2_tilt",
    "apparent_a_pi",
]


@dataclass(frozen=True)
class TrapStiffness:
    """Harmonic trap stiffness k_z = 2 U0 / w_z^2 with axial width w_z."""

    k_z: float
    w_z: float = 532e-9

    def __post_init__(self):
        if self.k_z <= 0 or self.w_z <= 0:
            raise ValueError("k_z and w_z must be > 0")

    @classmethod
    def from_trap_depth(cls, trap_depth: float, w_z: float = 532e-9) -> "TrapStiffness":
        return cls(k_z=2.0 * trap_depth / w_z**2, w_z=w_z)


@dataclass(frozen=True)
class SimConfig:
    time_step: float = 4e-9          # s
    duration: float = 0.01           # s
    seed: int = 0
    detector_gain: float = 1e6       # V/m
    detector_noise_floor: float = 1e-6  # V/sqrt(Hz), one-sided
    axial_width: float = 532e-9      # m, trap width w_z setting the stiffness

    def __post_init__(self):
        if self.time_step <= 0 or self.duration <= 0:
            raise ValueError("time_step and duration must be > 0")
        if self.axial_width <= 0:
            raise ValueError("axial_width must be > 0")
        if self.duration < self.time_step:
            raise ValueError("duration shorter than one step")
        if self.detector_gain < 0 or self.detector_noise_floor < 0:
            raise ValueError("detector parameters must be >= 0")


@dataclass
class TimeSeries:
    """Uniformly sampled real-valued signal."""

    sample_interval: float
    samples: np.ndarray
    units: str = "m"
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("samples must be 1-D")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be > 0")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @property
    def duration(self) -> float:
        return len(self.samples) * self.sample_interval


def _one_step_map(omega: float, gamma: float, mass: float,
                  temperature: float, dt: float):
    """One-step (A, w) of the half-rotation / OU / half-rotation splitting."""
    phi = omega * dt / 2.0
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, s / omega], [-omega * s, c]])
    c1 = np.exp(-gamma * dt)
    c2 = np.sqrt(const.BOLTZMANN * temperature / mass * (1.0 - c1**2))
    damp = np.array([[1.0, 0.0], [0.0, c1]])
    A = rot @ damp @ rot
    w = rot @ np.array([0.0, c2])
    return A, w


def simulate_axial_motion(stiffness: TrapStiffness, gamma: float, mass: float,
                          temperature: float, cfg: SimConfig,
                          initial_state: tuple[float, float] | None = None) -> TimeSeries:
    """Integrate the axial Langevin equation; returns z(t) in meters.

    Parameters
    ----------
    stiffness : TrapStiffness
    gamma : velocity damping rate Gamma (rad/s); the PSD peak has FWHM Gamma.
    mass : particle mass (kg)
    temperature : bath temperature (K); 0 disables thermal noise
    cfg : SimConfig; ``cfg.time_step`` must resolve both Omega and Gamma
        (dt < 1/(10 max(Gamma, Omega))), otherwise a ValueError is raised
        before integration.
    initial_state : optional (z0, v0); default draws from the stationary
        Boltzmann distribution (zeros when temperature is 0).
    """
    if gamma < 0 or mass <= 0 or temperature < 0:
        raise ValueError("require gamma >= 0, mass > 0, temperature >= 0")
    omega = np.sqrt(stiffness.k_z / mass)
    dt = cfg.time_step
    fastest = max(gamma, omega)
    if dt >= 1.0 / (10.0 * fastest):
        raise ValueError(
            f"time step {dt:.3g} s too coarse for max(Gamma, Omega) = "
            f"{fastest:.3g} rad/s; require dt < {1/(10*fastest):.3g} s"
        )
    if gamma > 0 and cfg.duration < 100.0 / gamma:
        warnings.warn(
            "duration below 100/Gamma; spectral estimates will be poor",
            stacklevel=2,
        )

    n = int(round(cfg.duration / dt))
    rng = rng_for(cfg.seed, "axial-motion")
    if initial_state is None:
        if temperature > 0:
            z0 = rng.normal(0.0, np.sqrt(const.BOLTZMANN * temperature / stiffness.k_z))
            v0 = rng.normal(0.0, np.sqrt(const.BOLTZMANN * temperature / mass))
        else:
            z0, v0 = 0.0, 0.0
    else:
        z0, v0 = float(initial_state[0]), float(initial_state[1])

    A, w = _one_step_map(omega, gamma, mass, temperature, dt)
    # z[k] = trA z[k-1] - detA z[k-2] + w_z xi[k-1] + (a12 w_v - a22 w_z) xi[k-2];
    # the filter state makes z[0] = z0 and z[1] = (A (z0, v0))_z + w_z xi[0].
    # w = 0 without temperature or damping, so the input stays zero then.
    e = np.zeros(n)
    if temperature > 0 and gamma > 0:
        rng.standard_normal(out=e[1:])
    b = [w[0], A[0, 1] * w[1] - A[1, 1] * w[0]]
    a = [1.0, -(A[0, 0] + A[1, 1]), A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]]
    zi = [z0, A[0, 1] * v0 - A[1, 1] * z0]
    z, _ = signal.lfilter(b, a, e, zi=zi)

    return TimeSeries(sample_interval=dt, samples=z, units="m", seed=cfg.seed,
                      metadata={"omega": float(omega), "gamma": float(gamma),
                                "mass": mass, "temperature": temperature})


def detector_signal(z: TimeSeries, cfg: SimConfig) -> TimeSeries:
    """Linearized interferometric readout: s(t) = gain*z(t) + white noise.

    The noise floor is the one-sided amplitude spectral density in V/sqrt(Hz);
    per-sample sigma = floor * sqrt(fs/2).
    """
    fs = 1.0 / z.sample_interval
    sigma = cfg.detector_noise_floor * np.sqrt(fs / 2.0)
    rng = rng_for(cfg.seed, "detector-noise")
    noise = rng.standard_normal(len(z.samples)) * sigma if sigma > 0 else 0.0
    samples = cfg.detector_gain * z.samples + noise
    return TimeSeries(sample_interval=z.sample_interval, samples=samples,
                      units="V", seed=z.seed, metadata=dict(z.metadata))


class TiltSample(NamedTuple):
    beta: np.ndarray
    cos2_mean: float
    cos2_std_error: float


def sample_tilt_distribution(align_depth: float, temperature: float,
                             n_samples: int, seed: int) -> TiltSample:
    """Monte Carlo tilt angles from the alignment Boltzmann distribution.

    Draws beta on [0, pi/2] from p(beta) ~ exp(-dU sin^2(beta)/kB T) sin(beta)
    by exact rejection on u = cos(beta): the target ~ exp(s u^2) is dominated
    by the analytically invertible envelope ~ exp(s u).  Returns the samples
    and the Monte Carlo estimate of <cos^2 beta> with its standard error.
    """
    if align_depth < 0:
        raise ValueError("align_depth must be >= 0")
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    s = align_depth / (const.BOLTZMANN * temperature)
    rng = rng_for(seed, "tilt-sampler")

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
    mean = float(np.mean(cos2))
    se = float(np.std(cos2, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else float("nan")
    return TiltSample(beta=np.arccos(u_out), cos2_mean=mean, cos2_std_error=se)


def mean_cos2_tilt(align_depth: float, temperature: float) -> float:
    """<cos^2 beta> of the alignment Boltzmann distribution, by quadrature.

    1/3 for an unaligned rod (isotropic over the hemisphere), -> 1 for deep
    alignment wells; monotone increasing in the well depth.
    """
    if align_depth < 0:
        raise ValueError("align_depth must be >= 0")
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    s = align_depth / (const.BOLTZMANN * temperature)
    if s == 0:
        return 1.0 / 3.0
    # weight exp(s u^2 - s) stays in (0, 1]; boundary layer at u = 1
    weight = lambda u: np.exp(-s * (1.0 - u**2))
    knot = max(0.0, 1.0 - 20.0 / s) if s > 20 else None
    points = [knot] if knot else None
    num, _ = integrate.quad(lambda u: u**2 * weight(u), 0.0, 1.0,
                            points=points, limit=200)
    den, _ = integrate.quad(weight, 0.0, 1.0, points=points, limit=200)
    return float(num / den)


def apparent_a_pi(power: float, intrinsic_a_pi: float, anisotropy: float,
                  temperature: float = const.ROOM_TEMPERATURE,
                  field_factor: float | None = None) -> float:
    """Apparent linear-dipole fraction after thermal tilt averaging.

    A rod tilted by beta contributes cos^2(beta) to the on-axis linear pattern
    and sin^2(beta) to the circular-shaped in-plane average, so the fitted
    fraction is intrinsic_a_pi * <cos^2 beta> evaluated at the alignment well
    depth dU = (anisotropy/2) * kappa * P.  Limits: intrinsic/3 at P = 0
    (isotropic), intrinsic as P -> infinity.

    Parameters
    ----------
    power : trap beam power (W)
    intrinsic_a_pi : linear fraction of the emitter itself, in [0, 1]
    anisotropy : polarizability anisotropy d_alpha (C m^2/V)
    """
    if not 0 <= intrinsic_a_pi <= 1:
        raise ValueError("intrinsic_a_pi must be in [0, 1]")
    if power < 0 or anisotropy < 0:
        raise ValueError("power and anisotropy must be >= 0")
    if field_factor is None:
        from .trap_mechanics import calibrated_field_factor
        field_factor = calibrated_field_factor()
    align_depth = 0.5 * anisotropy * field_factor * power
    return intrinsic_a_pi * mean_cos2_tilt(align_depth, temperature)
