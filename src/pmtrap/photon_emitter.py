"""Monte Carlo photon emission from a trapped cluster under pulsed excitation.

Per excitation pulse: the number of electron-hole pairs is Poissonian with
mean P/P_sat (so the emission probability before losses follows
1 - exp(-P/P_sat)); multi-excitons are thinned by a phenomenological pairwise
Auger-annihilation chain with a single survival parameter p_A; surviving
photons pass the quantum yield, the blinking attenuation, the collection and
detection chain, and a 50/50 splitter onto two detector channels.  The result
is a two-channel time-tag stream, deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants as const
from .seeding import rng_for

__all__ = [
    "ExcitationConfig",
    "EmitterModel",
    "DetectionChain",
    "TimeTagStream",
    "BlinkTrajectory",
    "RateEstimate",
    "excitons_per_pulse",
    "auger_reduce",
    "auger_prob_for_cluster",
    "blink_trajectory",
    "generate_time_tags",
    "expected_count_rate",
]


@dataclass(frozen=True)
class ExcitationConfig:
    """Pulsed excitation: rate, pulse length (informational), power levels."""

    repetition_rate: float = 1e6       # 1/s
    pulse_duration: float = 82e-9      # s (unresolved by the analysis)
    average_power: float = 2e-6        # W
    saturation_power: float = 2.63e-6  # W

    def __post_init__(self):
        if self.repetition_rate <= 0:
            raise ValueError("repetition_rate must be > 0")
        if self.average_power < 0 or self.saturation_power <= 0:
            raise ValueError("powers must be positive (P >= 0, P_sat > 0)")

    @property
    def mean_excitons(self) -> float:
        return self.average_power / self.saturation_power


@dataclass(frozen=True)
class EmitterModel:
    """Cluster photophysics: Auger survival, quantum yield, blinking.

    ``auger_pair_prob`` is the probability that a given exciton pair merges
    rather than radiating; 1 enforces single-photon emission, 0 leaves
    Poissonian statistics.  ``independent_emitters`` treats the cluster as
    n_rods non-interacting emitters (each with its own exciton pool and Auger
    chain) instead of one shared pool -- the model for uncoupled rods.

    Blinking: ``blink_mode`` is "steady" (always bright), "two_state"
    (bright/grey alternating with exponential dwells, grey attenuates emission
    by 1/grey_attenuation), or "bursts" (dark baseline at ``dark_attenuation``
    with short bright bursts, giving an exponential-like count-rate
    histogram).
    """

    n_rods: int = 1
    quantum_yield: float = 0.7
    auger_pair_prob: float | None = 1.0  # None -> auger_prob_for_cluster
    independent_emitters: bool = False
    blink_mode: str = "steady"
    grey_attenuation: float = 3.0
    bright_dwell: float = 5e-3    # s
    grey_dwell: float = 15e-3     # s
    dark_attenuation: float = 0.0
    burst_dwell: float = 1.67e-4  # s, bright-burst duration in "bursts" mode
    dark_dwell: float = 5e-3      # s

    def __post_init__(self):
        if self.n_rods < 1:
            raise ValueError("n_rods must be >= 1")
        if self.auger_pair_prob is None:
            object.__setattr__(self, "auger_pair_prob",
                               auger_prob_for_cluster(self.n_rods))
        for name in ("quantum_yield", "auger_pair_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.grey_attenuation < 1:
            raise ValueError("grey_attenuation must be >= 1")
        if self.blink_mode not in ("steady", "two_state", "bursts"):
            raise ValueError(f"unknown blink_mode {self.blink_mode!r}")
        for name in ("bright_dwell", "grey_dwell", "burst_dwell", "dark_dwell"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.dark_attenuation <= 1.0:
            raise ValueError("dark_attenuation must be in [0, 1]")


@dataclass(frozen=True)
class DetectionChain:
    """Multiplicative detection budget from emitter to APD click."""

    apd_quantum_efficiency: float = 0.69
    mirror_reflectivity: float = const.MIRROR_REFLECTIVITY
    setup_transmission: float = 0.83
    a_pi: float = 0.31
    splitter_ratio: float = 0.5
    collection_linear: float = 0.94    # mirror collection, on-axis linear dipole
    collection_circular: float = 0.76  # mirror collection, circular dipole

    def __post_init__(self):
        for name in ("apd_quantum_efficiency", "mirror_reflectivity",
                     "setup_transmission", "collection_linear",
                     "collection_circular"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not 0.0 <= self.a_pi <= 1.0:
            raise ValueError("a_pi must be in [0, 1]")
        if not 0.0 < self.splitter_ratio < 1.0:
            raise ValueError("splitter_ratio must be in (0, 1)")

    @property
    def collection_efficiency(self) -> float:
        """Mirror collection for the a_pi linear/circular mixture."""
        return (self.collection_linear * self.a_pi
                + self.collection_circular * (1.0 - self.a_pi))

    @property
    def detection_probability(self) -> float:
        """Per emitted photon: collection * reflectivity * transmission * QE."""
        return (self.collection_efficiency * self.mirror_reflectivity
                * self.setup_transmission * self.apd_quantum_efficiency)


@dataclass
class TimeTagStream:
    """Time-sorted detection events on two channels."""

    channels: np.ndarray    # uint8, 0 or 1
    timestamps: np.ndarray  # float64 seconds
    duration: float
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.channels.shape != self.timestamps.shape:
            raise ValueError("channels and timestamps must align")
        if np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")
        if len(self.timestamps) and (
            self.timestamps[0] < 0 or self.timestamps[-1] > self.duration
        ):
            raise ValueError("timestamps must lie within the acquisition window")

    def __len__(self) -> int:
        return len(self.timestamps)

    def counts_per_channel(self) -> tuple[int, int]:
        n1 = int(np.count_nonzero(self.channels))
        return len(self.channels) - n1, n1


def excitons_per_pulse(power: float, saturation_power: float,
                       rng: np.random.Generator, size=None):
    """Poissonian exciton number(s) with mean P/P_sat."""
    if power < 0 or saturation_power <= 0:
        raise ValueError("require power >= 0 and saturation_power > 0")
    mean = power / saturation_power
    if mean == 0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    return rng.poisson(mean, size=size)


def auger_reduce(k, pair_prob: float, rng: np.random.Generator):
    """Photons surviving the pairwise Auger-annihilation chain.

    While at least two excitons remain, one pair either merges into a single
    exciton (probability ``pair_prob``) or both leave the pool and radiate.
    pair_prob = 1 yields min(k, 1) photons; pair_prob = 0 yields k.  ``k`` is
    an int, which gives an int, or a 1-D array of per-pulse exciton numbers,
    which gives an int64 array with one independent chain per element.
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


def auger_prob_for_cluster(n_rods: int, p0: float = 0.97, n0: float = 400.0) -> float:
    """Empirical size law p_A(N) = p0 * exp(-(N-1)/n0).

    Larger clusters annihilate less efficiently, raising g2(0) with cluster
    size; p0 and n0 are tuning knobs, not first-principles values.
    """
    if n_rods < 1:
        raise ValueError("n_rods must be >= 1")
    return p0 * np.exp(-(n_rods - 1) / n0)


@dataclass(frozen=True)
class BlinkTrajectory:
    """Piecewise-constant emission attenuation: boundaries and per-segment values."""

    boundaries: np.ndarray   # segment start times, boundaries[0] == 0
    attenuations: np.ndarray  # emission multiplier per segment, in [0, 1]
    duration: float

    def attenuation_at(self, times: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.boundaries, times, side="right") - 1
        return self.attenuations[np.clip(idx, 0, len(self.attenuations) - 1)]


def blink_trajectory(duration: float, model: EmitterModel,
                     rng: np.random.Generator) -> BlinkTrajectory:
    """Alternating exponential dwell times between the model's two states.

    two_state: bright (1) / grey (1/g); bursts: bright (1) / dark baseline.
    steady: a single bright segment.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if model.blink_mode == "steady":
        return BlinkTrajectory(boundaries=np.array([0.0]),
                               attenuations=np.array([1.0]), duration=duration)
    if model.blink_mode == "two_state":
        dwells = (model.bright_dwell, model.grey_dwell)
        levels = (1.0, 1.0 / model.grey_attenuation)
    else:  # bursts
        dwells = (model.burst_dwell, model.dark_dwell)
        levels = (1.0, model.dark_attenuation)

    starts = [0.0]
    values = []
    state = int(rng.random() < 0.5)  # random initial state
    t = 0.0
    while t < duration:
        values.append(levels[state])
        t += rng.exponential(dwells[state])
        starts.append(t)
        state ^= 1
    return BlinkTrajectory(boundaries=np.array(starts[: len(values)]),
                           attenuations=np.array(values), duration=duration)


def generate_time_tags(excitation: ExcitationConfig, emitter: EmitterModel,
                       chain: DetectionChain, duration: float,
                       seed: int, jitter_scale: float = 0.0) -> TimeTagStream:
    """Simulate the detected two-channel time-tag stream.

    Per pulse: excitons -> Auger reduction -> Bernoulli(quantum yield) ->
    Bernoulli(blink attenuation) -> Bernoulli(detection chain) -> 50/50
    splitter.  Timestamps sit on the pulse grid (index / repetition rate);
    ``jitter_scale`` > 0 adds exponential emission-delay jitter (off by
    default -- the analysis bins by pulse period and cannot resolve it).
    Identical seeds give identical streams.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    n_pulses = int(np.floor(duration * excitation.repetition_rate))
    period = 1.0 / excitation.repetition_rate
    rng = rng_for(seed, "time-tags")

    photons = np.zeros(n_pulses, dtype=np.int64)
    for _ in range(emitter.n_rods if emitter.independent_emitters else 1):
        photons += auger_reduce(
            excitons_per_pulse(excitation.average_power,
                               excitation.saturation_power, rng, size=n_pulses),
            emitter.auger_pair_prob, rng)

    trajectory = blink_trajectory(duration, emitter, rng)
    pulse_times = np.arange(n_pulses) * period
    attenuation = trajectory.attenuation_at(pulse_times)

    p_detect = emitter.quantum_yield * attenuation * chain.detection_probability
    detected = rng.binomial(photons, p_detect)

    hit = detected > 0
    n_per_pulse = detected[hit]
    ch1 = rng.binomial(n_per_pulse, 1.0 - chain.splitter_ratio)
    ch0 = n_per_pulse - ch1

    times = np.repeat(pulse_times[hit], n_per_pulse)
    # ch0 events first within each pulse, then ch1 (stable, deterministic)
    offsets = np.concatenate(([0], np.cumsum(n_per_pulse)))
    within_pulse = np.arange(int(n_per_pulse.sum())) - np.repeat(offsets[:-1],
                                                                 n_per_pulse)
    channels = (within_pulse >= np.repeat(ch0, n_per_pulse)).astype(np.uint8)
    if jitter_scale > 0:
        times = times + rng.exponential(jitter_scale, size=len(times))
        order = np.argsort(times, kind="stable")
        times, channels = times[order], channels[order]
        keep = times < duration
        times, channels = times[keep], channels[keep]

    return TimeTagStream(
        channels=channels, timestamps=times, duration=duration, seed=seed,
        metadata={
            "repetition_rate": excitation.repetition_rate,
            "n_pulses": n_pulses,
            "mean_excitons": excitation.mean_excitons,
            "auger_pair_prob": emitter.auger_pair_prob,
            "blink_mode": emitter.blink_mode,
        },
    )


@dataclass(frozen=True)
class RateEstimate:
    rate: float       # 1/s
    uncertainty: float  # 1/s, first order in (P_sat, a_pi)


def expected_count_rate(excitation: ExcitationConfig, emitter: EmitterModel,
                        chain: DetectionChain,
                        saturation_power_error: float = 0.43e-6,
                        a_pi_error: float = 0.03) -> RateEstimate:
    """Closed-form detected count rate for an always-bright single-photon emitter.

    rate = rep_rate * QE_apd * T * R_pm * (1 - exp(-P/P_sat)) * QY
           * [c_lin * a_pi + c_circ * (1 - a_pi)]

    which evaluates to about 1.25e5 1/s with the default budget.  The
    uncertainty is first-order in the saturation power and a_pi errors.
    """
    x = excitation.mean_excitons
    saturated = 1.0 - np.exp(-x)
    rate = (excitation.repetition_rate * chain.apd_quantum_efficiency
            * chain.setup_transmission * chain.mirror_reflectivity
            * saturated * emitter.quantum_yield * chain.collection_efficiency)

    rel_psat = 0.0
    if saturated > 0:
        d_sat = np.exp(-x) * x * (saturation_power_error / excitation.saturation_power)
        rel_psat = d_sat / saturated
    rel_api = ((chain.collection_linear - chain.collection_circular) * a_pi_error
               / chain.collection_efficiency)
    err = rate * float(np.hypot(rel_psat, rel_api))
    return RateEstimate(rate=float(rate), uncertainty=err)
