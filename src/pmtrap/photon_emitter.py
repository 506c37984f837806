"""Photon emission from a trapped cluster under pulsed excitation.

Per excitation pulse: the number of electron-hole pairs is Poissonian with
mean P/P_sat (so the emission probability before losses follows
1 - exp(-P/P_sat)); multi-excitons are thinned by a phenomenological pairwise
Auger-annihilation chain with a single survival parameter p_A; surviving
photons pass the quantum yield, the blinking attenuation and the collection
and detection chain, then a 50/50 splitter onto two detector channels.

Within a blink segment the attenuation is constant, so the detected-photon
number per pulse is i.i.d. with a pmf computed exactly
(:func:`detected_photon_pmf`).  :func:`generate_time_tags` draws only the
pulses that give a detection, so time and memory scale with the number of
events, not of pulses.  The per-pulse Monte Carlo of the same chain, which
checks that pmf, lives with the test oracles (``tests/oracles.py``).  The
result is a two-channel time-tag stream, deterministic per seed.
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
    "auger_prob_for_cluster",
    "detected_photon_pmf",
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
        channels = np.asarray(self.channels)
        # checked before the uint8 cast, which would wrap 256 to 0
        if channels.size and (channels.min() < 0 or channels.max() > 1):
            raise ValueError("channels must be 0 or 1")
        self.channels = channels.astype(np.uint8, copy=False)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.channels.shape != self.timestamps.shape:
            raise ValueError("channels and timestamps must align")
        if np.any(self.timestamps[1:] < self.timestamps[:-1]):
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


def auger_prob_for_cluster(n_rods: int, p0: float = 0.97, n0: float = 400.0) -> float:
    """Empirical size law p_A(N) = p0 * exp(-(N-1)/n0).

    Larger clusters annihilate less efficiently, raising g2(0) with cluster
    size; p0 and n0 are tuning knobs, not first-principles values.
    """
    if n_rods < 1:
        raise ValueError("n_rods must be >= 1")
    return p0 * np.exp(-(n_rods - 1) / n0)


# A pmf tail holding less probability than this is dropped: it lies below
# double precision even after weighting by n(n-1) in the g2 moments.
_TAIL = np.finfo(float).eps ** 2


def _trim_tail(pmf: np.ndarray) -> np.ndarray:
    tail = np.cumsum(pmf[::-1])[::-1]
    return pmf[: max(int(np.count_nonzero(tail >= _TAIL)), 1)]


def _poisson_pmf(mean: float) -> np.ndarray:
    if mean == 0:
        return np.ones(1)
    k = np.arange(1, int(np.ceil(mean + 15.0 * np.sqrt(mean) + 40.0)) + 1)
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(mean / k)))) - mean
    return _trim_tail(np.exp(log_pmf))


def _auger_pmf(excitons: np.ndarray, pair_prob: float) -> np.ndarray:
    """Photon-number pmf after the pairwise Auger chain.

    Forward DP over (pool, radiated), visiting pools from the largest down:
    row j holds the probability of reaching pool j with r photons radiated.
    Pool j >= 2 passes its row to j - 1 (merge, p) and, shifted by two
    photons, to j - 2 (radiate, 1 - p); pools 0 and 1 end the chain with
    r + j photons.
    """
    width = len(excitons)
    above = np.zeros(width)   # row j + 1
    above2 = np.zeros(width)  # row j + 2
    for j in range(width - 1, -1, -1):
        row = np.zeros(width)
        row[0] = excitons[j]
        if j >= 1:
            row += pair_prob * above
        row[2:] += (1.0 - pair_prob) * above2[:-2]
        above, above2 = row, above
    photons = above.copy()
    photons[1:] += above2[:-1]
    return photons


def _thin(pmf: np.ndarray, keep: float) -> np.ndarray:
    """pmf of Binomial(n, keep) for n ~ pmf.

    Horner's rule on the generating function sum_n pmf[n] (1 - keep + keep z)^n.
    """
    out = np.zeros(len(pmf))
    out[0] = pmf[-1]
    for n in range(len(pmf) - 2, -1, -1):
        out[1:] = (1.0 - keep) * out[1:] + keep * out[:-1]
        out[0] = (1.0 - keep) * out[0] + pmf[n]
    return out


def detected_photon_pmf(excitation: ExcitationConfig, emitter: EmitterModel,
                        chain: DetectionChain,
                        attenuation: float = 1.0) -> np.ndarray:
    """Exact pmf of the detected-photon number per pulse, both channels.

    Poisson(P/P_sat) excitons, truncated where the tail is below double
    precision, through the pairwise Auger chain; for ``independent_emitters``
    the sum over n_rods such pools; then binomial thinning by quantum yield x
    ``attenuation`` x detection probability.  Entry n is Pr(n detections).
    """
    photons = _auger_pmf(_poisson_pmf(excitation.mean_excitons),
                         emitter.auger_pair_prob)
    if emitter.independent_emitters:
        single = photons
        for _ in range(emitter.n_rods - 1):
            photons = _trim_tail(np.convolve(photons, single))
    keep = emitter.quantum_yield * attenuation * chain.detection_probability
    return _trim_tail(_thin(photons, keep))


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


def _bernoulli_hits(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices in [0, n) of a Bernoulli(p) process, via geometric gaps."""
    chunks = []
    last = -1
    while last < n:
        expected = (n - 1 - last) * p
        gaps = rng.geometric(p, size=int(expected + 5.0 * np.sqrt(expected)) + 16)
        # a gap beyond n leaves the window; clipping keeps the sum from overflowing
        steps = last + np.cumsum(np.minimum(gaps, n + 1))
        last = int(steps[-1])
        chunks.append(steps[steps < n])
    return np.concatenate(chunks)


def generate_time_tags(excitation: ExcitationConfig, emitter: EmitterModel,
                       chain: DetectionChain, duration: float,
                       seed: int, jitter_scale: float = 0.0) -> TimeTagStream:
    """Simulate the detected two-channel time-tag stream.

    Pulse i fires at i / repetition rate and takes the blink attenuation of
    the segment it falls in.  For each attenuation level the pulses of its
    segments form one line of i.i.d. pulses: the pulses with at least one
    detection are placed by geometric gaps at that level's hit probability
    1 - pmf[0], and each draws its count from the pmf conditioned on n >= 1
    (see :func:`detected_photon_pmf`).  Counts go through the 50/50
    splitter, ch0 events before ch1 within a pulse.  Nothing of length
    n_pulses is allocated.  ``jitter_scale`` > 0 adds exponential
    emission-delay jitter (off by default -- the analysis bins by pulse
    period and cannot resolve it).  Identical seeds give identical streams.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    n_pulses = int(np.floor(duration * excitation.repetition_rate))
    period = 1.0 / excitation.repetition_rate
    rng = rng_for(seed, "time-tags")

    trajectory = blink_trajectory(duration, emitter, rng)
    first_pulse = np.minimum(
        np.ceil(trajectory.boundaries / period).astype(np.int64), n_pulses)
    lengths = np.diff(first_pulse, append=n_pulses)

    hit_pulses, n_hit = [], []
    for level in np.unique(trajectory.attenuations):
        pmf = detected_photon_pmf(excitation, emitter, chain, level)
        if len(pmf) == 1:  # no detection at this level
            continue
        cdf = np.cumsum(pmf[1:])
        segments = trajectory.attenuations == level
        seg_first, seg_len = first_pulse[segments], lengths[segments]
        line_start = np.cumsum(seg_len) - seg_len
        hits = _bernoulli_hits(int(seg_len.sum()), float(cdf[-1]), rng)
        owner = np.searchsorted(line_start, hits, side="right") - 1
        hit_pulses.append(seg_first[owner] + hits - line_start[owner])
        n_hit.append(1 + np.searchsorted(cdf, rng.random(len(hits)) * cdf[-1],
                                         side="right"))
    pulses = np.concatenate(hit_pulses or [np.zeros(0, dtype=np.int64)])
    n_per_pulse = np.concatenate(n_hit or [np.zeros(0, dtype=np.int64)])
    if len(hit_pulses) > 1:
        order = np.argsort(pulses)
        pulses, n_per_pulse = pulses[order], n_per_pulse[order]

    ch1 = rng.binomial(n_per_pulse, 1.0 - chain.splitter_ratio)
    ch0 = n_per_pulse - ch1

    times = np.repeat(pulses * period, n_per_pulse)
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

    rate = rep_rate * (1 - exp(-P/P_sat)) * QY * chain.detection_probability

    where the detection probability is [c_lin * a_pi + c_circ * (1 - a_pi)]
    * R_pm * T * QE_apd.  The rate is about 1.25e5 1/s with the default
    budget.  The uncertainty is first-order in the saturation power and a_pi
    errors.
    """
    x = excitation.mean_excitons
    saturated = 1.0 - np.exp(-x)
    rate = (excitation.repetition_rate * saturated * emitter.quantum_yield
            * chain.detection_probability)

    rel_psat = 0.0
    if saturated > 0:
        d_sat = np.exp(-x) * x * (saturation_power_error / excitation.saturation_power)
        rel_psat = d_sat / saturated
    rel_api = ((chain.collection_linear - chain.collection_circular) * a_pi_error
               / chain.collection_efficiency)
    err = rate * float(np.hypot(rel_psat, rel_api))
    return RateEstimate(rate=float(rate), uncertainty=err)
