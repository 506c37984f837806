"""Stochastic dynamics of the trapped cluster.

Axial translation is modeled as a damped harmonic Langevin equation

    m z'' = -k_z z - m Gamma z' + sqrt(2 m Gamma kB T) xi(t)

integrated with a Strang splitting: exact harmonic rotation half-steps (the
exact Hamiltonian flow, hence symplectic) around an exact Ornstein-Uhlenbeck
damping/noise sub-step.  Both sub-steps leave the Boltzmann distribution of
the harmonic trap invariant, so equipartition holds without time-step bias,
and the scheme is unconditionally stable for any damping.  The one-step map
is linear, so its z component obeys an exact ARMA(2, 1) recurrence (by
Cayley-Hamilton), with the initial state (z0, v0) folded into the first
two inputs.  Its AR part factors over the roots r1, r2 of the one-step
map's characteristic polynomial, and each first-order factor
y[k] = r y[k-1] + u[k] is a scan: a cumulative sum of u r^-k per chunk of
samples, rescaled by r^k, with one carry from chunk to chunk.  A
well-separated conjugate pair needs one complex scan, z = Im(r1 y)/Im(r1);
near critical damping, and for real roots, the two factors are scanned in
turn, which divides by no root difference.  Traces at every scale take
the scan; a tiny one rounds onto the subnormal grid in its product by r^k.

Traces are produced as ``SeriesBlocks``: a sample count known up front and
one pass over blocks of ``_BLOCK_SAMPLES`` samples in reused buffers, each
valid until the next.  ``axial_motion_blocks`` runs its argument checks and
warnings before the first block.  The noise is drawn in order from one
generator and the scan's chunks sit on a grid fixed from the first sample,
a chunk that straddles two blocks carrying its running sum across, so the
result is bit-identical to one pass over the whole trace, whatever the
block size.  A whole ``TimeSeries`` is a stream too, of one block, so every
consumer of a stream takes either.  ``detector_blocks`` is the one detector
readout, a per-block transform that only reads its input; a whole trace is
read out as ``detector_blocks(series, cfg).collect()``.  A consumer such as
``io_formats.write_time_series`` can therefore take a trace of any length
in fixed memory.  ``simulate_axial_motion`` collects the same blocks into a
``TimeSeries``.  The recurrence is bit-deterministic per seed and orders of
magnitude faster than stepping in Python.

Rod alignment is modeled by its stationary statistics: tilt angles beta
follow the Boltzmann weight exp(-dU sin^2(beta)/kB T) sin(beta) on
[0, pi/2], which maps trap power onto the apparent linear-dipole fraction
a_pi(P) = intrinsic * <cos^2 beta>, in closed form through Dawson's
integral.  The quadrature and the rejection Monte Carlo of the same
distribution, which check that closed form, live with the test oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import constants as const
from .seeding import rng_for
from .trap_mechanics import GasParams, calibrated_field_factor

__all__ = [
    "TrapStiffness",
    "SimConfig",
    "TimeSeries",
    "SeriesBlocks",
    "check_time_step",
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
        if self.time_step <= 0:
            raise ValueError("time_step must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.axial_width <= 0:
            raise ValueError("axial_width must be > 0")
        if self.duration < self.time_step:
            raise ValueError("duration shorter than one step")
        if self.detector_gain < 0:
            raise ValueError("detector_gain must be >= 0")
        if self.detector_noise_floor < 0:
            raise ValueError("detector_noise_floor must be >= 0")


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

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def blocks(self) -> Iterator[np.ndarray]:
        """The samples as one block, the stream protocol of ``SeriesBlocks``."""
        return iter([self.samples])


def _counted(blocks: Iterator, promised: int | None, length_of, unit: str):
    """Yield ``blocks``, then return the number of records they held.

    ``length_of`` gives a block's record count.  A block that takes the
    count past a known ``promised`` count, or blocks used up short of it,
    raise ValueError.
    """
    count = 0
    for block in blocks:
        count += length_of(block)
        if promised is not None and count > promised:
            break
        yield block
        del block
    if promised is not None and count != promised:
        raise ValueError(f"{count} {unit}, the stream promised {promised}")
    return count


@dataclass
class SeriesBlocks:
    """A uniformly sampled signal delivered once, as consecutive blocks.

    ``n_samples`` is known before the first block; the lengths of the 1-D
    float arrays that ``blocks`` yields must sum to it, and the stream
    checks that as they pass: a block beyond the count, or blocks used up
    short of it, raise ValueError.
    A block is valid until the next one: producers reuse its buffer, so a
    consumer that keeps samples copies them.
    """

    sample_interval: float
    n_samples: int
    blocks: Iterator[np.ndarray]
    units: str = "m"
    seed: int | None = None

    def __post_init__(self):
        self.blocks = _counted(self.blocks, self.n_samples, len, "samples")

    def collect(self) -> TimeSeries:
        """All blocks in one ``TimeSeries``."""
        samples = np.empty(self.n_samples)
        start = 0
        for block in self.blocks:
            samples[start: start + len(block)] = block
            start += len(block)
        return TimeSeries(sample_interval=self.sample_interval, samples=samples,
                          units=self.units, seed=self.seed)


# samples per block of the Langevin recurrence
_BLOCK_SAMPLES = 1 << 16
# longest chunk of the recurrence scan; the chunks sit on a grid that
# starts at sample 0, whatever the block size
_CHUNK_SAMPLES = 1 << 16
# bound on L |ln r| for a scan chunk of L samples, which keeps r^(+-m)
# finite and accurate
_SCAN_EXPONENT = 256.0
# complex roots closer than this, in units of 1 - |r|, are scanned as a
# cascade of two first-order recurrences
_CASCADE_SPLIT = 1.0


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


def check_time_step(time_step: float, gamma: float, omega: float) -> None:
    """Raise ValueError unless dt < 1/(10 max(Gamma, Omega)), both in rad/s."""
    fastest = max(gamma, omega)
    if time_step >= 1.0 / (10.0 * fastest):
        raise ValueError(
            f"time_step {time_step:.3g} s too coarse for max(Gamma, Omega) = "
            f"{fastest:.3g} rad/s; require time_step < {1/(10*fastest):.3g} s"
        )


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
    cfg : SimConfig; ``cfg.time_step`` must pass :func:`check_time_step`,
        otherwise a ValueError is raised before integration.
    initial_state : optional (z0, v0); default draws from the stationary
        Boltzmann distribution (zeros when temperature is 0).
    """
    if gamma < 0 or mass <= 0 or temperature < 0:
        raise ValueError("require gamma >= 0, mass > 0, temperature >= 0")
    omega = np.sqrt(stiffness.k_z / mass)
    dt = cfg.time_step
    check_time_step(dt, gamma, omega)
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
    # first two inputs makes z[0] = z0 and z[1] = (A (z0, v0))_z + w_z xi[0].
    # w = 0 without temperature or damping, so no noise is drawn.
    noisy = temperature > 0 and gamma > 0
    b0, b1 = w[0], A[0, 1] * w[1] - A[1, 1] * w[0]
    zi = (z0, A[0, 1] * v0 - A[1, 1] * z0)
    # inputs above 1 are scanned in units of a power of two near their
    # largest coefficient, exactly, which keeps r^-m u finite; smaller
    # ones as they are, even among the subnormal numbers
    scale = max(abs(b0), abs(b1), *map(abs, zi))
    unit = np.ldexp(1.0, min(max(int(np.frexp(scale)[1]), 0), 1000))
    b0, b1, zi = b0 / unit, b1 / unit, (zi[0] / unit, zi[1] / unit)

    def forcing():
        # without noise w = 0, so b0 = b1 = +0 and e stays +0
        e, u = np.zeros(min(n, _BLOCK_SAMPLES)), np.empty(min(n, _BLOCK_SAMPLES))
        e_last = 0.0  # b1 e[k-1] at the first sample of the block
        for start in range(0, n, len(e)):
            e_k, u_k = e[: n - start], u[: n - start]
            if noisy:
                rng.standard_normal(out=e_k[1:] if start == 0 else e_k)
            np.multiply(e_k, b0, out=u_k)
            e_k *= b1
            u_k[0] += e_last
            u_k[1:] += e_k[:-1]
            e_last = e_k[-1]
            for k in range(start, min(start + len(u_k), 2)):
                u_k[k - start] += zi[k]
            yield u_k

    # (1 - r1 B)(1 - r2 B) z = u in the backshift B.  Without input z is the
    # +0 of u (the projection would sign a zero by the phase of r^m); a well
    # separated conjugate pair takes one complex scan and the projection
    # z = Im(r1 y)/Im(r1), and other roots the two first-order scans in
    # turn, which divide by no root difference
    log_r1, log_r2 = _log_roots(gamma * dt, omega * dt)
    if not scale:
        blocks = forcing()
    elif log_r1.imag and (np.exp(log_r1).imag
                          >= _CASCADE_SPLIT * -np.expm1(log_r1.real)):
        blocks = _scan(log_r1, forcing(), unit, project=True)
    else:
        blocks = (y.real for y in _scan(log_r2, _scan(log_r1, forcing()), unit))
    return SeriesBlocks(sample_interval=dt, n_samples=n,
                        blocks=blocks, units="m", seed=cfg.seed)


def _log_roots(gamma_dt: float, omega_dt: float
               ) -> tuple[complex, complex] | tuple[float, float]:
    """Logarithms of the roots of x^2 - (1 + c1) cos(omega dt) x + c1.

    That is the characteristic polynomial of the recurrence: trace and
    determinant of the one-step map, c1 = exp(-Gamma dt).  The discriminant
    is taken as a product of two factors, which keeps it accurate away
    from critical damping; complex roots come as a conjugate pair.
    """
    c1 = np.exp(-gamma_dt)
    half_trace = 0.5 * (1.0 + c1) * np.cos(omega_dt)
    spread = (1.0 + c1) * np.sin(omega_dt)
    quarter_disc = 0.25 * (-np.expm1(-gamma_dt) - spread) * (
        -np.expm1(-gamma_dt) + spread)
    if quarter_disc < 0:
        log_r = complex(-0.5 * gamma_dt,
                        np.arctan2(np.sqrt(-quarter_disc), half_trace))
        return log_r, log_r.conjugate()
    r1 = half_trace + np.sqrt(quarter_disc)
    return float(np.log(r1)), float(np.log(c1 / r1))


def _scan(log_r: complex | float, inputs: Iterator[np.ndarray], unit: float = 1.0,
          project: bool = False) -> Iterator[np.ndarray]:
    """unit * y, y[k] = r y[k-1] + u[k] from y = 0, r = exp(log_r), per block.

    The samples are cut into chunks of L samples on a grid fixed from the
    first one, L a power of two up to ``_CHUNK_SAMPLES`` with
    L |log_r| <= ``_SCAN_EXPONENT``; within a chunk,
    y[m] = r^(m+1) (y_in + cumsum(u r^-(j+1))[m]), with y_in the last y of
    the chunk before.  A chunk that straddles two blocks of ``inputs``
    carries its running sum and its offset into the powers across; the sum
    is sequential, so the result does not depend on the block lengths.
    Blocks come in one reused buffer.  With ``project``,
    unit * Im(r y)/Im(r) is returned instead.  The result is complex when
    log_r is, else real (as the inputs must then be).
    """
    length = _CHUNK_SAMPLES
    while length > 1 and length * abs(log_r) > _SCAN_EXPONENT:
        length //= 2
    powers = np.arange(1, length + 1) * log_r
    up, down = np.exp(powers), np.exp(-powers)
    carry = np.exp(length * log_r)
    up *= unit
    if project:
        r = np.exp(log_r)
        up *= r / r.imag
    acc, at = 0.0, 0  # the chunk's running sum (y_in at its start), the offset in it
    q, sums = np.empty(0, dtype=down.dtype), np.empty(length, dtype=down.dtype)
    for u in inputs:
        if len(u) > len(q):
            q = np.empty(len(u), dtype=down.dtype)
        y = q[: len(u)]
        start = 0
        while start < len(u):
            # out of place: numpy's in-place complex product of some short
            # lengths rounds differently
            take = min(len(u) - start, length - at)
            piece = sums[:take]
            np.multiply(u[start: start + take], down[at: at + take], out=piece)
            piece[0] += acc
            np.cumsum(piece, out=piece)
            acc = piece[-1]
            np.multiply(piece, up[at: at + take], out=y[start: start + take])
            at, start = at + take, start + take
            if at == length:
                acc, at = carry * acc, 0
        yield y.imag if project else y


def simulate_axial_motion(stiffness: TrapStiffness, gamma: float, mass: float,
                          temperature: float, cfg: SimConfig,
                          initial_state: tuple[float, float] | None = None) -> TimeSeries:
    """``axial_motion_blocks`` collected into one trace of z(t) in meters."""
    return axial_motion_blocks(stiffness, gamma, mass, temperature, cfg,
                               initial_state).collect()


def detector_blocks(z: SeriesBlocks | TimeSeries, cfg: SimConfig) -> SeriesBlocks:
    """Linearized interferometric readout s(t) = gain*z(t) + white noise.

    One output block per block of ``z``, in a reused buffer; ``z`` is only
    read.  The noise continues one generator's stream in sample order.  The
    noise floor is the one-sided amplitude spectral density in V/sqrt(Hz);
    per-sample sigma = floor * sqrt(fs/2).
    """
    fs = 1.0 / z.sample_interval
    sigma = cfg.detector_noise_floor * np.sqrt(fs / 2.0)
    rng = rng_for(cfg.seed, "detector-noise") if sigma > 0 else None

    def readout():
        noise = out = np.empty(0)
        for block in z.blocks:
            if len(block) > len(out):
                noise, out = np.zeros(len(block)), np.empty(len(block))
            noise_k, out_k = noise[: len(block)], out[: len(block)]
            if rng is not None:
                np.multiply(rng.standard_normal(out=noise_k), sigma, out=noise_k)
            yield np.add(np.multiply(block, cfg.detector_gain, out=out_k), noise_k,
                         out=out_k)

    return SeriesBlocks(sample_interval=z.sample_interval, n_samples=z.n_samples,
                        blocks=readout(), units="V", seed=z.seed)


# Rybicki's sum for Dawson's integral: spacing h and the weights
# exp(-(n h)^2) of the odd n up to 33, the last above 1e-19
_RYBICKI_H = 0.2
_RYBICKI_N = np.arange(1, 35, 2)
_RYBICKI_WEIGHTS = np.exp(-(_RYBICKI_N * _RYBICKI_H) ** 2)
# s = depth / kT below which <cos^2 beta> is summed as a power series, and
# its number of terms (s^24 / 24! < 1e-23 at s = 1)
_SERIES_BELOW = 1.0
_SERIES_TERMS = 24


def _dawson(x: float) -> float:
    """Dawson's integral F(x) = exp(-x^2) int_0^x exp(t^2) dt for x > 0.

    Rybicki's sampling-theorem sum (Numerical Recipes, 6.10), with the
    spacing cut to 0.2 for double precision: around the even multiple
    n0 h of h nearest x, F = exp(-x'^2) / sqrt(pi) sum over odd n of
    exp(-(n h)^2) (exp(2 x' n h) / (n0 + n) + exp(-2 x' n h) / (n0 - n)),
    x' = x - n0 h.  Beyond x = 1e4 the asymptotic series
    (1 + 1/(2x^2) + 3/(4x^4)) / (2x) is exact to rounding.
    """
    if x > 1e4:
        return (1.0 + (0.5 + 0.75 / x**2) / x**2) / (2.0 * x)
    n0 = 2.0 * np.round(x / (2.0 * _RYBICKI_H))
    xp = x - n0 * _RYBICKI_H
    grow = np.exp(2.0 * xp * _RYBICKI_H * _RYBICKI_N)
    terms = _RYBICKI_WEIGHTS * (grow / (n0 + _RYBICKI_N)
                                + 1.0 / (grow * (n0 - _RYBICKI_N)))
    return float(np.exp(-xp * xp) * np.sum(terms) / np.sqrt(np.pi))


def mean_cos2_tilt(align_depth: float, temperature: float) -> float:
    """<cos^2 beta> of the alignment Boltzmann distribution, in closed form.

    With s = depth / kT and u = cos(beta) the weight is exp(s u^2) on
    [0, 1], and <u^2> = 1/(2 sqrt(s) F(sqrt(s))) - 1/(2s), F being Dawson's
    integral.  Below s = 1 the two terms cancel, so there the ratio of the
    term-by-term integrals sum s^n/(n! (2n+3)) / sum s^n/(n! (2n+1)) is used.
    1/3 for an unaligned rod (isotropic over the hemisphere), -> 1 for deep
    alignment wells; monotone increasing in the well depth.
    """
    if align_depth < 0:
        raise ValueError("align_depth must be >= 0")
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    s = align_depth / (const.BOLTZMANN * temperature)
    if s < _SERIES_BELOW:
        n = np.arange(_SERIES_TERMS)
        power = np.cumprod(np.concatenate(([1.0], s / n[1:])))  # s^n / n!
        return float(np.sum(power / (2 * n + 3)) / np.sum(power / (2 * n + 1)))
    x = np.sqrt(s)
    return float(0.5 / (x * _dawson(x)) - 0.5 / s)


def apparent_a_pi(power: float, intrinsic_a_pi: float, anisotropy: float,
                  temperature: float = GasParams.temperature,
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
        field_factor = calibrated_field_factor()
    align_depth = 0.5 * anisotropy * field_factor * power
    return intrinsic_a_pi * mean_cos2_tilt(align_depth, temperature)
