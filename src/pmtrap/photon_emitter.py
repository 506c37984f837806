"""Photon emission from a trapped cluster under pulsed excitation.

Per excitation pulse: the number of electron-hole pairs is Poissonian with
mean P/P_sat (so the emission probability before losses follows
1 - exp(-P/P_sat)); multi-excitons are thinned by a phenomenological pairwise
Auger-annihilation chain with a single survival parameter p_A; surviving
photons pass the quantum yield, the blinking attenuation and the collection
and detection chain, then a 50/50 splitter onto two detector channels.

Within a blink segment the attenuation is constant, so the detected-photon
number per pulse is i.i.d. with a pmf computed exactly
(:func:`detected_photon_pmf`).  :func:`detection_blocks` draws only the
pulses that give a detection, and their photon counts, so time scales with
the number of events, not of pulses; a count rate needs nothing more.
:func:`time_tag_blocks` sends each of those photons through the splitter
on its own draw and yields the two-channel stream as ``TagBlocks``: the
pulse count and the metadata up front, then one block per ``_BLOCK_PULSES``
pulses, so memory does not grow with the acquisition.  Each attenuation
level carries its geometric-gap position from block to block, and the
trajectory, each level's hits and counts, and the splitter draw from
separate child generators, so the stream is deterministic per seed and the
same whatever the block size.  A whole acquisition is
``time_tag_blocks(...).collect()``, a ``TimeTagStream``, which is a stream
of one block, so every consumer of a stream takes either.  The per-pulse
Monte Carlo of the same chain, which checks that pmf, lives with the test
oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .langevin import _counted
from .mirror_optics import MirrorGeometry
from .seeding import rng_for

__all__ = [
    "ExcitationConfig",
    "EmitterModel",
    "DetectionChain",
    "TimeTagStream",
    "TagBlocks",
    "BlinkTrajectory",
    "RateEstimate",
    "auger_prob_for_cluster",
    "detected_photon_pmf",
    "blink_trajectory",
    "detection_blocks",
    "time_tag_blocks",
    "expected_count_rate",
]


@dataclass(frozen=True)
class ExcitationConfig:
    """Pulsed excitation: repetition rate and power levels."""

    repetition_rate: float = 1e6       # 1/s
    average_power: float = 2e-6        # W
    saturation_power: float = 2.63e-6  # W

    def __post_init__(self):
        if self.repetition_rate <= 0:
            raise ValueError("repetition_rate must be > 0")
        if self.average_power < 0:
            raise ValueError("average_power must be >= 0")
        if self.saturation_power <= 0:
            raise ValueError("saturation_power must be > 0")

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

    Blinking: a two-level telegraph process, bright and grey states
    alternating with exponential dwells of mean ``bright_dwell`` and
    ``grey_dwell`` from a random first state.  ``grey_level`` is the grey
    state's emission relative to the bright one: 1 is a steady emitter, 0 a
    dark state that leaves short bright bursts when ``bright_dwell`` is
    short, with an exponential-like count-rate histogram.
    """

    n_rods: int
    quantum_yield: float = 0.7
    auger_pair_prob: float | None = None  # None -> auger_prob_for_cluster
    independent_emitters: bool = False
    grey_level: float = 1.0 / 3.0
    bright_dwell: float = 5e-3    # s
    grey_dwell: float = 15e-3     # s

    def __post_init__(self):
        if self.n_rods < 1:
            raise ValueError("n_rods must be >= 1")
        if self.auger_pair_prob is None:
            object.__setattr__(self, "auger_pair_prob",
                               auger_prob_for_cluster(self.n_rods))
        for name in ("quantum_yield", "auger_pair_prob", "grey_level"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("bright_dwell", "grey_dwell"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


# Mirror collection fractions of an on-axis linear and a circular dipole: the
# paper's values, which do not yet follow ``DetectionChain.mirror``
COLLECTION_LINEAR = 0.94
COLLECTION_CIRCULAR = 0.76


@dataclass(frozen=True)
class DetectionChain:
    """Multiplicative detection budget from emitter to APD click."""

    apd_quantum_efficiency: float = 0.69
    setup_transmission: float = 0.83
    a_pi: float = 0.31
    splitter_ratio: float = 0.5
    mirror: MirrorGeometry = MirrorGeometry()  # its reflectivity is the mirror loss

    def __post_init__(self):
        for name in ("apd_quantum_efficiency", "setup_transmission"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not 0.0 <= self.a_pi <= 1.0:
            raise ValueError("a_pi must be in [0, 1]")
        if not 0.0 < self.splitter_ratio < 1.0:
            raise ValueError("splitter_ratio must be in (0, 1)")

    @property
    def collection_efficiency(self) -> float:
        """Mirror collection for the a_pi linear/circular mixture."""
        return (COLLECTION_LINEAR * self.a_pi
                + COLLECTION_CIRCULAR * (1.0 - self.a_pi))

    @property
    def detection_probability(self) -> float:
        """Per emitted photon: collection * reflectivity * transmission * QE."""
        return (self.collection_efficiency * self.mirror.reflectivity
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
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if channels.shape != self.timestamps.shape:
            raise ValueError("channels and timestamps must align")
        # checked before the uint8 cast, which would wrap 256 to 0
        defect = self.defect(channels, self.timestamps, self.duration)
        if defect is not None:
            raise ValueError(defect)
        self.channels = channels.astype(np.uint8, copy=False)

    @staticmethod
    def defect(channels: np.ndarray, timestamps: np.ndarray, duration: float,
               previous: float = 0.0) -> str | None:
        """What breaks the stream invariants in a run of events, or None.

        Timestamps finite, non-decreasing from ``previous`` (the timestamp
        before the run; 0 for a whole stream) and at most ``duration``;
        channels 0 or 1.
        """
        if len(timestamps) == 0:
            return None
        if not np.isfinite(timestamps).all():
            return "non-finite timestamp"
        if channels.min() < 0 or channels.max() > 1:
            return "channels must be 0 or 1"
        if timestamps[0] < previous or np.any(timestamps[1:] < timestamps[:-1]):
            return ("timestamps must lie within the acquisition window"
                    if timestamps[0] < 0 else "timestamps must be non-decreasing")
        if timestamps[-1] > duration:
            return "timestamps must lie within the acquisition window"
        return None

    def __len__(self) -> int:
        return len(self.timestamps)

    def counts_per_channel(self) -> tuple[int, int]:
        n1 = int(np.count_nonzero(self.channels))
        return len(self.channels) - n1, n1

    @property
    def n_events(self) -> int:
        return len(self.timestamps)

    @property
    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The stream as one block, the stream protocol of ``TagBlocks``."""
        return iter([(self.channels, self.timestamps)])


@dataclass
class TagBlocks:
    """A time-tag stream delivered once, as consecutive blocks.

    Each block is a ``(channels, timestamps)`` pair of aligned arrays, and
    the blocks in order make one time-sorted stream.  ``duration``,
    ``seed`` and ``metadata`` are known before the first block, and so is
    ``n_events`` when the producer knows it (a reader does; a generator
    knows its pulses, not its events).  The stream counts the events as
    they pass: a block beyond a known count, or blocks used up short of
    it, raise ValueError, and an unknown count is recorded in ``n_events``
    once the blocks are used up.  ``len()`` is that count.  A block is
    valid until the next one: a reader's blocks are views of its reused
    buffer, so a consumer that keeps events copies them.
    """

    duration: float
    blocks: Iterator[tuple[np.ndarray, np.ndarray]]
    seed: int | None = None
    metadata: dict = field(default_factory=dict)
    n_events: int | None = None

    def __post_init__(self):
        self.blocks = self._counted(self.blocks)

    def _counted(self, blocks: Iterator[tuple[np.ndarray, np.ndarray]]
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        self.n_events = yield from _counted(blocks, self.n_events,
                                            lambda block: len(block[1]), "events")

    def __len__(self) -> int:
        if self.n_events is None:
            raise TypeError("the event count is known once the blocks are consumed")
        return self.n_events

    def collect(self) -> TimeTagStream:
        """All blocks in one ``TimeTagStream``, which checks its invariants."""
        if self.n_events is None:
            blocks = [(c.copy(), t.copy()) for c, t in self.blocks]
            channels = np.concatenate([c for c, _ in blocks] or [np.zeros(0, np.uint8)])
            timestamps = np.concatenate([t for _, t in blocks] or [np.zeros(0)])
        else:
            channels = np.empty(self.n_events, dtype=np.uint8)
            timestamps = np.empty(self.n_events)
            start = 0
            for c, t in self.blocks:
                channels[start: start + len(c)] = c
                timestamps[start: start + len(t)] = t
                start += len(t)
        return TimeTagStream(channels=channels, timestamps=timestamps,
                             duration=self.duration, seed=self.seed,
                             metadata=self.metadata)


def auger_prob_for_cluster(n_rods: int) -> float:
    """Empirical size law p_A(N) = 0.97 * exp(-(N-1)/400).

    Larger clusters annihilate less efficiently, raising g2(0) with cluster
    size.  0.97 and 400 are neither first-principles values nor fitted to
    the observed g2(0) band of 0.15-0.44: at the default excitation the law
    gives g2(0) = 0.07 at N = 2 and reaches the band only at N = 18.
    """
    if n_rods < 1:
        raise ValueError("n_rods must be >= 1")
    return 0.97 * np.exp(-(n_rods - 1) / 400.0)


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

    Bright (1) for a mean ``bright_dwell``, grey (``grey_level``) for a mean
    ``grey_dwell``, starting in either with probability 1/2.  At
    ``grey_level`` 1 both levels are bright and the emitter is steady.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    dwells = (model.bright_dwell, model.grey_dwell)
    levels = (1.0, model.grey_level)
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


# pulses per block of ``time_tag_blocks``; the stream does not depend on it
_BLOCK_PULSES = 1 << 18
# most geometric gaps drawn at once for one attenuation level
_GAP_CHUNK = 1 << 16


class _HitLine:
    """The pulses of one attenuation level, in pulse order, as one line of
    i.i.d. pulses; its hits and their photon counts, block by block.

    Hit positions on the line are the running sums of geometric gaps at the
    hit probability ``cdf[-1]``, drawn from ``hits_rng`` in runs whose
    length depends only on the position reached, and kept across blocks
    until their pulse comes; each hit draws its count from ``counts_rng``,
    so neither draw depends on where the blocks end.
    """

    def __init__(self, seg_first: np.ndarray, seg_len: np.ndarray, cdf: np.ndarray,
                 hits_rng: np.random.Generator, counts_rng: np.random.Generator):
        self.seg_first, self.seg_len = seg_first, seg_len
        self.line_start = np.cumsum(seg_len) - seg_len
        self.length = int(seg_len.sum())
        self.cdf = cdf
        self.hits_rng, self.counts_rng = hits_rng, counts_rng
        self.pending = np.zeros(0, dtype=np.int64)  # drawn hit positions not yet placed
        self.last = -1  # last position drawn

    def _position(self, pulse: int) -> int:
        """Line position of the first of this level's pulses at or after ``pulse``."""
        i = int(np.searchsorted(self.seg_first, pulse, side="right")) - 1
        if i < 0:
            return 0
        return int(self.line_start[i] + min(pulse - self.seg_first[i], self.seg_len[i]))

    def take(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Hit pulses in [start, end), ascending, and their photon counts (>= 1)."""
        stop = self._position(end)
        drawn = [self.pending]
        while self.last < stop:
            # as many gaps as the rest of the line likely needs, at most
            # _GAP_CHUNK: a function of the draws so far, not of ``stop``
            expected = (self.length - 1 - self.last) * self.cdf[-1]
            size = min(_GAP_CHUNK, int(expected + 5.0 * np.sqrt(expected)) + 16)
            gaps = self.hits_rng.geometric(self.cdf[-1], size=size)
            # a gap beyond the line leaves it; clipping keeps the sum from overflowing
            steps = self.last + np.cumsum(np.minimum(gaps, self.length + 1))
            self.last = int(steps[-1])
            drawn.append(steps)
        pending = np.concatenate(drawn) if len(drawn) > 1 else self.pending
        taken = int(np.searchsorted(pending, stop))
        hits, self.pending = pending[:taken], pending[taken:]
        # the segments are few and the hits many: place the segment starts
        # among the hits, not each hit among the segments
        per_segment = np.diff(np.searchsorted(hits, self.line_start), append=len(hits))
        pulses = hits + np.repeat(self.seg_first - self.line_start, per_segment)
        # most hits are single photons: only the others search the cdf
        u = self.counts_rng.random(len(hits)) * self.cdf[-1]
        counts = np.ones(len(hits), dtype=np.int64)
        multi = np.flatnonzero(u >= self.cdf[0])
        counts[multi] += np.searchsorted(self.cdf, u[multi], side="right")
        return pulses, counts


def detection_blocks(excitation: ExcitationConfig, emitter: EmitterModel,
                     chain: DetectionChain, duration: float, seed: int
                     ) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The pulses that give a detection, and their photon counts, in blocks.

    Pulse i fires at i / repetition rate and takes the blink attenuation of
    the segment it falls in.  For each attenuation level the pulses of its
    segments form one line of i.i.d. pulses (``_HitLine``): the pulses with
    at least one detection are placed by geometric gaps at that level's hit
    probability 1 - pmf[0], and each draws its count, both channels
    together, from the pmf conditioned on n >= 1 (see
    :func:`detected_photon_pmf`).

    Returns the pulse count and a one-pass iterator of ``(pulses, counts)``
    pairs, pulses ascending, one per ``_BLOCK_PULSES`` pulses.  The blink
    trajectory is fixed on the call.  The trajectory, each level's hits and
    each level's counts draw from separate child generators, each in pulse
    order, so the blocks are the same whatever the block size, and
    identical seeds give identical blocks.  Nothing of length n_pulses is
    allocated.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    n_pulses = int(np.floor(duration * excitation.repetition_rate))
    period = 1.0 / excitation.repetition_rate
    trajectory = blink_trajectory(duration, emitter, rng_for(seed, "time-tags"))
    first_pulse = np.minimum(
        np.ceil(trajectory.boundaries / period).astype(np.int64), n_pulses)
    lengths = np.diff(first_pulse, append=n_pulses)

    lines = []
    for k, level in enumerate(sorted(set(trajectory.attenuations.tolist()))):
        pmf = detected_photon_pmf(excitation, emitter, chain, level)
        if len(pmf) == 1:  # no detection at this level
            continue
        segments = trajectory.attenuations == level
        lines.append(_HitLine(first_pulse[segments], lengths[segments],
                              np.cumsum(pmf[1:]), rng_for(seed, "time-tags", "hits", k),
                              rng_for(seed, "time-tags", "counts", k)))

    def blocks():
        for start in range(0, n_pulses, _BLOCK_PULSES):
            taken = [line.take(start, min(start + _BLOCK_PULSES, n_pulses))
                     for line in lines]
            if len(taken) == 1:
                yield taken[0]
                continue
            # the levels' pulses interleave; no two levels share one, so the
            # stable sort, a merge of their sorted runs, gives the one order
            pulses = np.concatenate([p for p, _ in taken] or [np.zeros(0, np.int64)])
            counts = np.concatenate([n for _, n in taken] or [np.zeros(0, np.int64)])
            order = np.argsort(pulses, kind="stable")
            yield pulses[order], counts[order]

    return n_pulses, blocks()


def time_tag_blocks(excitation: ExcitationConfig, emitter: EmitterModel,
                    chain: DetectionChain, duration: float, seed: int) -> TagBlocks:
    """The detected two-channel time-tag stream, in blocks of pulses.

    The detected photons of :func:`detection_blocks` go through the 50/50
    splitter one by one, as in a Hanbury Brown-Twiss setup: each takes one
    uniform draw, in event order, and goes to channel 1 when the draw is
    below 1 - ``splitter_ratio``.  Within a pulse the channel-0 events come
    before the channel-1 events, all at the pulse time.  The splitter draws
    from its own child generator, so the stream is the same whatever the
    block size, and identical seeds give identical streams.  ``n_pulses``
    and the metadata are known on the call.
    """
    n_pulses, detections = detection_blocks(excitation, emitter, chain, duration, seed)
    period = 1.0 / excitation.repetition_rate
    to_ch1 = 1.0 - chain.splitter_ratio
    splitter = rng_for(seed, "time-tags", "splitter")

    def blocks():
        for pulses, counts in detections:
            ends = np.cumsum(counts)
            ch1 = splitter.random(int(ends[-1]) if len(ends) else 0) < to_ch1
            ch1_per_pulse = np.add.reduceat(ch1, ends - counts, dtype=np.int64)
            # each pulse's channel-0 events, then its channel-1 events
            channels = np.arange(len(ch1)) >= np.repeat(ends - ch1_per_pulse, counts)
            yield channels.astype(np.uint8), np.repeat(pulses * period, counts)

    return TagBlocks(duration=duration, blocks=blocks(), seed=seed, metadata={
        "repetition_rate": excitation.repetition_rate,
        "n_pulses": n_pulses,
        "mean_excitons": excitation.mean_excitons,
        "auger_pair_prob": emitter.auger_pair_prob,
    })


@dataclass(frozen=True)
class RateEstimate:
    rate: float       # 1/s
    uncertainty: float  # 1/s, first order in (P_sat, a_pi)


# measurement errors of the saturation power (W) and of a_pi
_SATURATION_POWER_ERROR = 0.43e-6
_A_PI_ERROR = 0.03


def expected_count_rate(excitation: ExcitationConfig, emitter: EmitterModel,
                        chain: DetectionChain) -> RateEstimate:
    """Closed-form detected count rate for an always-bright single-photon emitter.

    rate = rep_rate * (1 - exp(-P/P_sat)) * QY * chain.detection_probability

    where the detection probability is [c_lin * a_pi + c_circ * (1 - a_pi)]
    * R_pm * T * QE_apd.  The rate is about 1.25e5 1/s with the default
    budget.  The uncertainty is first-order in the measurement errors of the
    saturation power (0.43 uW) and of a_pi (0.03).
    """
    x = excitation.mean_excitons
    saturated = 1.0 - np.exp(-x)
    rate = (excitation.repetition_rate * saturated * emitter.quantum_yield
            * chain.detection_probability)

    rel_psat = 0.0
    if saturated > 0:
        d_sat = np.exp(-x) * x * (_SATURATION_POWER_ERROR / excitation.saturation_power)
        rel_psat = d_sat / saturated
    rel_api = ((COLLECTION_LINEAR - COLLECTION_CIRCULAR) * _A_PI_ERROR
               / chain.collection_efficiency)
    err = rate * float(np.hypot(rel_psat, rel_api))
    return RateEstimate(rate=float(rate), uncertainty=err)
