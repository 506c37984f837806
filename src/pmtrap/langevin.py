"""Stochastic dynamics of the trapped cluster.

Axial translation is modeled as a damped harmonic Langevin equation

    m z'' = -k_z z - m Gamma z' + sqrt(2 m Gamma kB T) xi(t)

integrated with a Strang splitting: exact harmonic rotation half-steps (the
exact Hamiltonian flow, hence symplectic) around an exact Ornstein-Uhlenbeck
damping/noise sub-step.  Both sub-steps leave the Boltzmann distribution of
the harmonic trap invariant, so equipartition holds without time-step bias,
and the scheme is unconditionally stable for any damping.  The one-step map
is linear, so its z component obeys an exact ARMA(2, 1) recurrence (by
Cayley-Hamilton).  The recurrence is a unit lower-triangular banded linear
system in the samples, solved in place by LAPACK's banded triangular solve
(``dtbtrs``), with the initial state (z0, v0) folded into the first two
right-hand sides.

Traces are produced as ``SeriesBlocks``: a sample count known up front and
one pass over fixed-size blocks of samples.  ``axial_motion_blocks`` runs
its argument checks and warnings before the first block; each solve takes
the two samples before it as known rows and the noise is drawn block by
block from one generator, so the result is bit-identical to one pass over
the whole trace.
``detector_blocks`` is the one detector readout, a per-block transform
(white noise drawn per block from its own generator, in sample order, plus
gain * z); a whole trace is read out as
``detector_blocks(series.as_blocks(), cfg).collect()``.  A consumer such as
``io_formats.write_time_series`` can therefore take a trace of any length
in fixed memory.  ``simulate_axial_motion`` collects the same blocks into a
``TimeSeries``.  The recurrence is bit-deterministic per seed and orders of
magnitude faster than stepping in Python.

Rod alignment is modeled by its stationary statistics: tilt angles beta
follow the Boltzmann weight exp(-dU sin^2(beta)/kB T) sin(beta) on
[0, pi/2], which maps trap power onto the apparent linear-dipole fraction
a_pi(P) = intrinsic * <cos^2 beta>, evaluated by quadrature.  The rejection
Monte Carlo of the same distribution, which checks that quadrature, lives
with the test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import integrate
from scipy.linalg import lapack

from . import constants as const
from .seeding import rng_for

__all__ = [
    "TrapStiffness",
    "SimConfig",
    "TimeSeries",
    "SeriesBlocks",
    "axial_motion_blocks",
    "simulate_axial_motion",
    "detector_blocks",
    "mean_cos2_tilt",
    "apparent_a_pi",
]


@dataclass(frozen=True)
class TrapStiffness:
    """Harmonic trap stiffness k_z = 2 U0 / w_z^2 with axial width w_z."""

    k_z: float

    def __post_init__(self):
        if self.k_z <= 0:
            raise ValueError("k_z must be > 0")

    @classmethod
    def from_trap_depth(cls, trap_depth: float, w_z: float) -> "TrapStiffness":
        if w_z <= 0:
            raise ValueError("w_z must be > 0")
        return cls(k_z=2.0 * trap_depth / w_z**2)


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

    def as_blocks(self) -> "SeriesBlocks":
        """The samples as consecutive views of ``_BLOCK_SAMPLES``."""
        n = len(self.samples)
        views = (self.samples[start: start + _BLOCK_SAMPLES]
                 for start in range(0, n, _BLOCK_SAMPLES))
        return SeriesBlocks(self.sample_interval, n, views, self.units, self.seed)


@dataclass
class SeriesBlocks:
    """A uniformly sampled signal delivered once, as consecutive blocks.

    ``n_samples`` is known before the first block; the lengths of the 1-D
    float arrays that ``blocks`` yields sum to it.  Producers and consumers
    drop their reference to a block before asking for the next one, so
    that each stage holds one block at a time.
    """

    sample_interval: float
    n_samples: int
    blocks: Iterator[np.ndarray]
    units: str = "m"
    seed: int | None = None

    def collect(self) -> TimeSeries:
        """All blocks in one ``TimeSeries``."""
        samples = np.empty(self.n_samples)
        start = 0
        for block in self.blocks:
            samples[start: start + len(block)] = block
            start += len(block)
            del block
        return TimeSeries(sample_interval=self.sample_interval, samples=samples,
                          units=self.units, seed=self.seed)


# samples per block of the Langevin recurrence and of the detector readout
_BLOCK_SAMPLES = 1 << 20
# rows per banded solve of the recurrence
_SOLVE_ROWS = 1 << 16


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


def axial_motion_blocks(stiffness: TrapStiffness, gamma: float, mass: float,
                        temperature: float, cfg: SimConfig,
                        initial_state: tuple[float, float] | None = None
                        ) -> SeriesBlocks:
    """Integrate the axial Langevin equation; z(t) in meters, block by block.

    The arguments are checked, and the short-duration warning given, before
    the first block.

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
    # z[k] + a1 z[k-1] + a2 z[k-2] = b0 e[k] + b1 e[k-1], with e = xi shifted
    # by one step (e[0] = 0) and a1 = -trA, a2 = detA, b0 = w_z,
    # b1 = a12 w_v - a22 w_z.  With zero history before z[0], adding zi to the
    # first two right-hand sides makes z[0] = z0 and z[1] = (A (z0, v0))_z +
    # w_z xi[0].  w = 0 without temperature or damping, so no noise is drawn.
    noisy = temperature > 0 and gamma > 0
    b0, b1 = w[0], A[0, 1] * w[1] - A[1, 1] * w[0]
    zi = (z0, A[0, 1] * v0 - A[1, 1] * z0)
    # Lower band of the system matrix for _SOLVE_ROWS unknowns behind two
    # known rows: the unit diagonal, a1 below it and a2 below that.
    # ab[1, 0] = 0 keeps the second known row from coupling to the first.
    ab = np.empty((3, min(n, _SOLVE_ROWS) + 2), order="F")
    ab[0] = 1.0
    ab[1] = -(A[0, 0] + A[1, 1])
    ab[1, 0] = 0.0
    ab[2] = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]

    def recurrence():
        history = np.zeros(2)
        e_last = 0.0  # b1 e[k-1] at the first sample of the block
        e = np.zeros(min(n, _BLOCK_SAMPLES))
        for start in range(0, n, _BLOCK_SAMPLES):
            size = min(n - start, _BLOCK_SAMPLES)
            block = e[:size]
            if noisy:
                rng.standard_normal(out=block[1:] if start == 0 else block)
            # two known rows in front of the right-hand sides
            z = np.empty(size + 2)
            z[:2] = history
            rhs = z[2:]
            np.multiply(block, b0, out=rhs)
            block *= b1
            rhs[0] += e_last
            rhs[1:] += block[:-1]
            e_last = block[-1]
            for k in range(start, min(start + size, 2)):
                rhs[k - start] += zi[k]
            del rhs, block
            for row in range(0, size, _SOLVE_ROWS):
                rows = min(size - row, _SOLVE_ROWS)
                lapack.dtbtrs(ab[:, : rows + 2], z[row: row + rows + 2],
                              uplo="L", diag="U", overwrite_b=1)
            history = z[-2:].copy()
            yield z[2:]
            del z

    return SeriesBlocks(sample_interval=dt, n_samples=n, blocks=recurrence(),
                        units="m", seed=cfg.seed)


def simulate_axial_motion(stiffness: TrapStiffness, gamma: float, mass: float,
                          temperature: float, cfg: SimConfig,
                          initial_state: tuple[float, float] | None = None) -> TimeSeries:
    """``axial_motion_blocks`` collected into one trace of z(t) in meters."""
    return axial_motion_blocks(stiffness, gamma, mass, temperature, cfg,
                               initial_state).collect()


def detector_blocks(z: SeriesBlocks, cfg: SimConfig) -> SeriesBlocks:
    """Linearized interferometric readout s(t) = gain*z(t) + white noise.

    One output block per block of ``z``; the noise continues one generator's
    stream in sample order.  The noise floor is the one-sided amplitude
    spectral density in V/sqrt(Hz); per-sample sigma = floor * sqrt(fs/2).
    """
    fs = 1.0 / z.sample_interval
    sigma = cfg.detector_noise_floor * np.sqrt(fs / 2.0)
    rng = rng_for(cfg.seed, "detector-noise") if sigma > 0 else None

    def readout():
        for block in z.blocks:
            out = np.zeros(len(block))
            if rng is not None:
                rng.standard_normal(out=out)
                out *= sigma
            out += cfg.detector_gain * block
            del block
            yield out

    return SeriesBlocks(sample_interval=z.sample_interval, n_samples=z.n_samples,
                        blocks=readout(), units="V", seed=z.seed)


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
