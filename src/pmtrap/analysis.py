"""Measurement pipeline: PSD + Lorentzian damping fits, pulsed g2(0),
count-rate binning with blinking-state classification, saturation fits.

The damping rate enters as a Lorentzian of half-width Gamma/(4 pi) in Hz,
so the fitted width parameter reported here (Gamma/2 pi, the FWHM in Hz)
matches the angular damping rate of the mechanics module after multiplying
by 2 pi; the Langevin round trip pins this convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np
from numpy.fft import rfft, rfftfreq
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    FitError,
    InsufficientDataError,
    NoPeakError,
    UndefinedResultError,
)
from .langevin import SeriesBlocks, TimeSeries
from .photon_emitter import TagBlocks, TimeTagStream

if TYPE_CHECKING:
    from ._threads import Lent

__all__ = [
    "Spectrum",
    "LorentzianFit",
    "G2Result",
    "BlinkHistogram",
    "RateBins",
    "SaturationFit",
    "power_spectral_density",
    "stream_power_spectral_density",
    "fit_lorentzian",
    "g2_zero",
    "blink_analysis",
    "fit_saturation",
]


@dataclass
class Spectrum:
    """One-sided power spectral density on a uniform frequency grid."""

    frequencies: np.ndarray      # Hz, ascending
    densities: np.ndarray        # V^2/Hz (or m^2/Hz)
    resolution_bandwidth: float  # Hz, window ENBW
    averages: int

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.densities = np.asarray(self.densities, dtype=float)
        if self.frequencies.shape != self.densities.shape:
            raise ValueError("frequency and density arrays must align")
        df = np.diff(self.frequencies)
        if len(df) and (np.any(df <= 0) or np.ptp(df) > 1e-6 * df[0]):
            raise ValueError("frequency grid must be uniform and ascending")
        if np.any(self.densities < 0):
            raise ValueError("densities must be >= 0")

    def integral(self) -> float:
        """Total power, sum(PSD) * df; equals the series variance (Parseval)."""
        df = self.frequencies[1] - self.frequencies[0]
        return float(np.sum(self.densities) * df)


# samples' worth of segments windowed and transformed at once by the Welch PSD
_PSD_BLOCK_SAMPLES = 1 << 18


def power_spectral_density(series: TimeSeries, segment_length: int | None = None,
                           overlap: float = 0.5) -> Spectrum:
    """Averaged-periodogram (Welch) PSD estimate of a time series, Hann window.

    The series mean is removed once, globally; with density scaling the
    spectrum then integrates to the series variance (Parseval, ~1%).
    ``segment_length`` defaults to a power of two near len/8, clipped to
    [256, 65536]; segments start every ``segment_length -
    int(segment_length * overlap)`` samples and the series must contain at
    least 4 of them; ``segment_length`` below 1 or ``overlap`` outside
    [0, 1) raise ``ValueError``.  A ``TimeSeries`` is a stream of one block,
    so the provisional mean of ``stream_power_spectral_density`` is the
    series mean, and its staging buffer holds the same runs of segments as
    for any other blocking of the series.
    """
    return stream_power_spectral_density(series, segment_length, overlap)


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of n samples (``[1.0]`` for n = 1)."""
    if n == 1:
        return np.ones(1)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


class _Lane(NamedTuple):
    """The reused buffers of one run of segments."""

    stage: np.ndarray    # the run's samples less m0
    rows: np.ndarray     # its windowed segments, then their |X|^2 and its sum
    spectra: np.ndarray  # their X
    x_run: np.ndarray    # the sum of X over the run


def _welch_run(lane: _Lane, window: np.ndarray, hop: int, count: int,
               size: int) -> tuple[np.ndarray, np.ndarray]:
    """Window and transform the ``count`` segments that ``lane`` stages in
    ``size`` samples; the run's sums of |X|^2 and of X, views into ``lane``."""
    n = len(window)
    work = lane.rows[: count * n].reshape(count, n)
    np.multiply(sliding_window_view(lane.stage[:size], n)[::hop], window, out=work)
    spec = rfft(work, axis=-1, out=lane.spectra[:count])
    power, imag2 = lane.rows[: 2 * spec.size].reshape(2, *spec.shape)  # work is spent
    np.square(spec.real, out=power)
    power += np.square(spec.imag, out=imag2)
    return np.sum(power, axis=0, out=imag2[0]), np.sum(spec, axis=0, out=lane.x_run)


def stream_power_spectral_density(series: SeriesBlocks | TimeSeries,
                                  segment_length: int | None = None,
                                  overlap: float = 0.5,
                                  helper: Lent | None = None) -> Spectrum:
    """``power_spectral_density`` of a series delivered once, block by block.

    Segments are windowed around a provisional mean m0, the first block's
    mean; at the end the sum of |X|^2 is shifted to the series mean m by
    sum |X - dW|^2 = sum |X|^2 - 2d Re(conj(W) sum X) + n_seg d^2 |W|^2,
    d = m - m0, W = rfft(window) (nonzero only at bins 0 and 1).

    The segments are taken in runs of ``_PSD_BLOCK_SAMPLES`` samples' worth
    (at least one segment).  Every sample is copied once, less m0, into a
    reused staging buffer that holds a run's span, (per_run - 1) * hop +
    segment_length samples; when it is full, the run's segments are windowed
    into reused rows, transformed, and their |X|^2 and X summed, and the
    segment_length - hop samples the next run shares are copied to the
    front of the next run's staging buffer.  A block's end only pauses the
    filling, so the runs, and the order of every sum, are the same however
    the series is blocked.  All blocks are consumed before a series too
    short for 4 segments raises ``InsufficientDataError``, so a reader's
    checks run first.

    Without ``helper`` every run is transformed on this thread in one lane
    of buffers.  ``helper``, a thread lent by ``_threads.both``, gives the
    runs two lanes: even runs are transformed here, odd runs are submitted
    to the helper and claimed when the next run has been transformed here,
    or at the end; a run the helper has not started by then is transformed
    here instead.  Each run's sums are added here, in run order, so the
    spectrum is bit-identical with or without a helper.
    """
    n = series.n_samples
    if segment_length is None:
        target = max(n // 8, 2)
        segment_length = int(2 ** np.clip(np.floor(np.log2(target)), 8, 16))
    if segment_length < 1:
        raise ValueError("segment_length must be >= 1")
    if not 0 <= overlap < 1:
        raise ValueError("overlap must be in [0, 1)")
    hop = segment_length - int(segment_length * overlap)
    n_segments = 1 + (n - segment_length) // hop if n >= segment_length else 0
    if n_segments < 4:
        for _ in series.blocks:
            pass
        raise InsufficientDataError(
            f"series too short: need >= 4 segments of {segment_length} samples"
        )

    fs = 1.0 / series.sample_interval
    w = _hann(segment_length)
    per_run = min(max(1, _PSD_BLOCK_SAMPLES // segment_length), n_segments)
    bins = segment_length // 2 + 1
    lanes = [_Lane(np.empty((per_run - 1) * hop + segment_length),
                   np.empty(per_run * (segment_length + 2)),
                   np.empty((per_run, bins), dtype=complex),
                   np.empty(bins, dtype=complex))
             for _ in range(1 if helper is None else 2)]
    psd, x_sum = np.zeros(bins), np.zeros(bins, dtype=complex)

    def add(sums: tuple[np.ndarray, np.ndarray]) -> None:
        np.add(psd, sums[0], out=psd)
        np.add(x_sum, sums[1], out=x_sum)

    lent = None  # the claim of the odd run on the helper
    stage = lanes[0].stage
    total, m0 = 0.0, None
    # runs: runs staged; staged: samples in stage; done: segments in those runs
    runs = staged = done = 0
    for block in series.blocks:
        total += float(np.sum(block))
        if m0 is None and len(block):
            m0 = total / len(block)
        while done < n_segments and len(block):
            count = min(per_run, n_segments - done)
            size = (count - 1) * hop + segment_length
            take = min(size - staged, len(block))
            np.subtract(block[:take], m0, out=stage[staged: staged + take])
            block, staged = block[take:], staged + take
            if staged < size:
                break  # the block is spent before the run is staged
            lane = lanes[runs % len(lanes)]
            if runs % len(lanes):
                lent = helper.submit(_welch_run, lane, w, hop, count, size)
            else:
                sums = _welch_run(lane, w, hop, count, size)
                if lent is not None:
                    add(lent())  # the run before this one
                    lent = None
                add(sums)
            runs, done = runs + 1, done + count
            staged = segment_length - hop  # the next run's first samples, to the front
            stage = lanes[runs % len(lanes)].stage
            stage[:staged] = lane.stage[count * hop: size]
    if lent is not None:
        add(lent())
    d = total / n - m0
    W = rfft(w)
    psd -= 2.0 * d * (W.real * x_sum.real + W.imag * x_sum.imag)
    psd += n_segments * d**2 * (W.real**2 + W.imag**2)
    np.maximum(psd, 0.0, out=psd)  # a sum of squares, whatever the rounding
    psd /= fs * np.sum(w**2) * n_segments
    # one-sided: fold the negative frequencies onto all bins but DC and,
    # for an even segment length, Nyquist
    last = -1 if segment_length % 2 == 0 else None
    psd[1:last] *= 2.0
    enbw = fs * np.sum(w**2) / np.sum(w) ** 2
    return Spectrum(frequencies=rfftfreq(segment_length, d=1.0 / fs),
                    densities=psd, resolution_bandwidth=float(enbw),
                    averages=int(n_segments))


class _LeastSquares(NamedTuple):
    x: np.ndarray       # parameters at the end
    fun: np.ndarray     # residuals at x
    jac: np.ndarray     # Jacobian at x
    nfev: int           # residual evaluations
    success: bool
    message: str


def _least_squares(residuals: Callable, jacobian: Callable, x0, lower, upper,
                   max_nfev: int, xtol: float, ftol: float,
                   gtol: float) -> _LeastSquares:
    """Bounded Levenberg-Marquardt minimum of |residuals(x)|^2 / 2.

    Each step solves (J^T J + lam D^2) dx = -J^T f on the free parameters,
    D holding the largest column norms of J met so far, which makes the
    steps invariant to the parameters' units (More 1978, "The
    Levenberg-Marquardt algorithm: implementation and theory").  A step is
    taken when the cost falls by more than 1e-4 of the reduction the linear
    model predicts, and lam follows that ratio (Nielsen's rule).  A
    parameter on a bound whose gradient points out of the box is held for
    the step; the step is clipped into the box.  Converged when the largest
    cosine between f and a free column of J is <= gtol, when the actual and
    predicted cost reductions are both <= ftol times the cost, or when
    |dx| <= xtol (xtol + |x|); not converged after ``max_nfev`` evaluations.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f = residuals(x)
    nfev = 1
    J = jacobian(x)
    cost = 0.5 * float(f @ f)
    scale = np.zeros(len(x))
    lam, grow = 1e-3, 2.0
    while True:
        norms = np.linalg.norm(J, axis=0)
        scale = np.maximum(scale, norms)
        d2 = np.where(scale > 0, scale, 1.0) ** 2
        g = J.T @ f
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        f_norm = np.sqrt(2.0 * cost)
        cosines = np.abs(g[free]) / np.where(norms[free] > 0, norms[free], np.inf)
        if f_norm == 0 or np.max(cosines, initial=0.0) <= gtol * f_norm:
            return _LeastSquares(x, f, J, nfev, True,
                                 "`gtol` termination condition is satisfied.")
        if nfev >= max_nfev:
            return _LeastSquares(x, f, J, nfev, False, "The maximum number of "
                                 "function evaluations is exceeded.")
        Jf = J[:, free]
        step = np.zeros(len(x))
        step[free] = np.linalg.solve(Jf.T @ Jf + lam * np.diag(d2[free]),
                                     -g[free])
        trial = np.clip(x + step, lower, upper)
        dx = trial - x
        predicted = -float(g @ dx + 0.5 * np.sum((J @ dx) ** 2))
        f_trial = residuals(trial)
        nfev += 1
        cost_trial = 0.5 * float(f_trial @ f_trial)
        if not np.isfinite(cost_trial):
            cost_trial = np.inf
        actual = cost - cost_trial
        ratio = actual / predicted if predicted > 0 else -np.inf
        small_reduction = predicted <= ftol * cost and abs(actual) <= ftol * cost
        if ratio > 1e-4:
            x, f, cost = trial, f_trial, cost_trial
            J = jacobian(x)
            # floored, so that a rank-deficient J^T J stays solvable
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            lam = max(lam, 1e-15)
            grow = 2.0
        else:
            lam *= grow
            grow *= 2.0
        if small_reduction:
            return _LeastSquares(x, f, J, nfev, True,
                                 "`ftol` termination condition is satisfied.")
        if np.linalg.norm(dx) <= xtol * (xtol + np.linalg.norm(x)):
            return _LeastSquares(x, f, J, nfev, True,
                                 "`xtol` termination condition is satisfied.")


@dataclass(frozen=True)
class LorentzianFit:
    """L(f) = amplitude * hw^2 / ((f - center)^2 + hw^2) + background,
    reported as center, FWHM width (= Gamma/2pi in Hz) and its 95% CI."""

    center: float        # Hz
    width: float         # Hz, FWHM = Gamma / 2 pi
    amplitude: float
    background: float
    width_ci95: tuple[float, float]
    n_iterations: int

    @property
    def gamma(self) -> float:
        """Angular damping rate Gamma in rad/s."""
        return 2.0 * np.pi * self.width


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, bit for bit, without the
    ``numpy.ma`` import that ``np.median`` makes.

    An even length averages the two middle values as np.median does, with
    np.mean: their sum starts from +0.0 and is halved afterwards, so
    (a + b + 0.0) / 2.  Two -0.0 then give +0.0, while a sum of -5e-324
    halves (ties to even) to -0.0, which is kept.  An odd length adds 0.0
    to its middle value, which turns -0.0 into +0.0 as well.
    """
    k = len(x) // 2
    if len(x) % 2:
        return np.partition(x, k)[k] + 0.0
    middle = np.partition(x, (k - 1, k))
    return (middle[k - 1] + middle[k] + 0.0) / 2


def _peak_snr(psd: np.ndarray) -> tuple[int, float]:
    """Peak index and SNR in expected-extreme units.

    The noise scale is estimated from the bin-to-bin roughness (robust sigma
    of first differences), which ignores smooth spectral structure; the peak
    excess over the median is divided by the expected maximum of that noise
    over all bins, sqrt(2 ln n), so a featureless noisy spectrum scores ~1
    regardless of length and a real peak scores >> 1.
    """
    background = _median(psd)
    peak = int(np.argmax(psd))
    noise = 1.4826 / np.sqrt(2.0) * _median(np.abs(np.diff(psd)))
    if noise <= 0:
        return peak, np.inf if psd[peak] > background else 0.0
    expected_extreme = noise * np.sqrt(2.0 * np.log(max(len(psd), 2)))
    return peak, float((psd[peak] - background) / expected_extreme)


def _fwhm_guess(f: np.ndarray, y: np.ndarray, peak_idx: int) -> float:
    """FWHM estimate from the count of bins above half maximum.

    Counting all bins above the half level (rather than the contiguous run)
    is robust to single noisy dips; for a unimodal peak on a flat background
    the tails never cross the half level, so the count is unbiased.
    """
    background = float(_median(y))
    half = background + (float(y[peak_idx]) - background) / 2.0
    df = f[1] - f[0]
    return df * max(int(np.count_nonzero(y > half)), 1)


# peak SNR, in multiple-comparison-corrected robust sigmas, below which
# fit_lorentzian reports no peak
_MIN_SNR = 3.0


def fit_lorentzian(spectrum: Spectrum) -> LorentzianFit:
    """Bounded least squares of a Lorentzian peak plus flat background.

    The fit runs on the peak region (center +- 4 estimated FWHM).  There the
    Lorentzian approximates the damped-oscillator spectrum only for damping
    well below the trap frequency (Gamma << Omega); the fitted width is
    biased when they are comparable.  The Levenberg-Marquardt iteration
    (``_least_squares``) takes the analytic Jacobian and runs in normalized
    units for conditioning.  Raises
    NoPeakError when the peak does not stand above the spectrum's own
    fluctuations (``_MIN_SNR``) and FitError on non-convergence (200
    evaluation cap).
    """
    f = spectrum.frequencies
    y = spectrum.densities
    peak_idx, snr = _peak_snr(y)
    if snr < _MIN_SNR:
        raise NoPeakError(f"peak SNR {snr:.2f} below {_MIN_SNR}")

    df = f[1] - f[0]
    center0 = float(f[peak_idx])
    fwhm0 = _fwhm_guess(f, y, peak_idx)

    # restrict to the peak region, excluding the DC bin
    mask = (np.abs(f - center0) <= 4.0 * fwhm0) & (f > 0)
    if mask.sum() >= 8:
        f, y = f[mask], y[mask]
        peak_idx = int(np.argmax(y))

    # normalized units: the amplitude and background of order 1, like the
    # bounds that hold them
    y_scale = float(np.max(y))
    if y_scale <= 0:
        raise NoPeakError("spectrum is identically zero")
    yn = y / y_scale
    background0 = float(np.min(yn))
    amplitude0 = float(yn[peak_idx] - background0)
    hw0 = max(fwhm0 / 2.0, df)

    def residuals(p):
        a, f0, hw, b = p
        d = (f - f0) ** 2 + hw**2
        return a * hw**2 / d + b - yn

    def jacobian(p):
        a, f0, hw, b = p
        d = (f - f0) ** 2 + hw**2
        J = np.empty((len(f), 4))
        J[:, 0] = hw**2 / d
        J[:, 1] = a * hw**2 * 2.0 * (f - f0) / d**2
        J[:, 2] = 2.0 * a * hw * (f - f0) ** 2 / d**2
        J[:, 3] = 1.0
        return J

    lower = [0.0, f[0], df / 10.0, 0.0]
    upper = [2.0, f[-1], f[-1] - f[0], 1.0]
    p0 = np.clip([max(amplitude0, 1e-3), center0, hw0, max(background0, 0.0)],
                 lower, upper)

    result = _least_squares(residuals, jacobian, p0, lower, upper,
                            max_nfev=200, xtol=1e-12, ftol=1e-12, gtol=1e-12)
    if not result.success:
        raise FitError(
            f"Lorentzian fit did not converge in 200 iterations: {result.message}; "
            f"final residual norm {np.linalg.norm(result.fun):.3e}"
        )

    a, f0, hw, b = result.x
    dof = max(len(f) - 4, 1)
    s2 = float(result.fun @ result.fun) / dof
    JTJ = result.jac.T @ result.jac
    try:
        cov = s2 * np.linalg.inv(JTJ)
        hw_sigma = float(np.sqrt(max(cov[2, 2], 0.0)))
    except np.linalg.LinAlgError:
        hw_sigma = float("nan")

    width = 2.0 * hw  # FWHM in Hz
    ci = (width - 1.96 * 2.0 * hw_sigma, width + 1.96 * 2.0 * hw_sigma)
    return LorentzianFit(center=float(f0), width=float(width),
                         amplitude=float(a * y_scale),
                         background=float(b * y_scale), width_ci95=ci,
                         n_iterations=int(result.nfev))


@dataclass
class G2Result:
    """Pulse-lag coincidence analysis of a two-channel stream."""

    g2: float
    error: float
    lags: np.ndarray           # pulse lags, -max..max
    coincidences: np.ndarray   # cross-channel pair counts per lag

    @property
    def zero_lag_counts(self) -> int:
        return int(self.coincidences[len(self.lags) // 2])


# side-peak pulse-lag range of g2_zero, and the bin width of blink_analysis
DEFAULT_MAX_LAG = 50
DEFAULT_BIN_WIDTH = 500e-6
# event pairs expanded at once by g2_zero, or the histogram's length if larger
_G2_BLOCK_PAIRS = 1 << 14


class _PulseLagFold:
    """Pulse-lag coincidence histogram of a time-sorted stream fed in blocks.

    Events go to pulse indices rint((t - t0) / period), t0 the first
    timestamp, and each channel keeps its events' pulse indices, ascending,
    one entry per event: a pulse with k events on a channel appears k
    times, so a pair of pulses counts the product of their events.  Each
    pair of a channel-0 and a channel-1 event at most ``window`` pulses
    apart is counted once, when its later event arrives: the new channel-0
    events against the channel-1 tail and the new channel-1 events, and the
    channel-0 tail against the new channel-1 events.  The tails keep the
    events a later event can still reach, so a pulse split between blocks
    needs no care.  The counts are integers, so the histogram does not
    depend on where the blocks end.
    """

    def __init__(self, pulse_period: float, window: int):
        self.period, self.window = pulse_period, window
        self.t0 = None
        self.coincidences = np.zeros(2 * window + 1, dtype=np.int64)
        self.events = [0, 0]  # per channel
        self.tails = [np.zeros(0, dtype=np.int64)] * 2  # event pulses per channel
        self.last_pulse = 0

    def add(self, channels: np.ndarray, timestamps: np.ndarray) -> None:
        if len(timestamps) == 0:
            return
        if self.t0 is None:
            self.t0 = timestamps[0]
        pulses = np.rint((timestamps - self.t0) / self.period).astype(np.int64)
        on1 = channels.astype(bool)
        new0, new1 = pulses[~on1], pulses[on1]
        self.events[0] += len(new0)
        self.events[1] += len(new1)
        tail0, tail1 = self.tails
        all1 = np.concatenate((tail1, new1))
        self._pairs(new0, all1)
        self._pairs(tail0, new1)
        # no later event comes before the last pulse
        self.last_pulse = int(pulses[-1])
        keep = self.last_pulse - self.window
        all0 = np.concatenate((tail0, new0))
        self.tails = [events[np.searchsorted(events, keep):] for events in (all0, all1)]

    def _pairs(self, idx0: np.ndarray, idx1: np.ndarray) -> None:
        """Add the lags idx1 - idx0 within the window, one per pair of events."""
        window = self.window
        first = np.searchsorted(idx1, idx0 - window, side="left")
        n_pairs = np.searchsorted(idx1, idx0 + window, side="right") - first
        ends = np.cumsum(n_pairs)  # pairs up to each channel-0 event, inclusive
        budget = max(_G2_BLOCK_PAIRS, len(self.coincidences))
        a = 0
        while a < len(idx0):
            before = ends[a] - n_pairs[a]
            b = max(a + 1, int(np.searchsorted(ends, before + budget, side="right")))
            reps = n_pairs[a:b]
            pair_start = ends[a:b] - reps - before  # first pair of each channel-0 event
            # channel-1 position of each pair: window start plus rank in the window
            j1 = np.arange(int(ends[b - 1] - before)) + np.repeat(
                first[a:b] - pair_start, reps)
            lag = idx1[j1] - np.repeat(idx0[a:b] - window, reps)
            self.coincidences += np.bincount(lag, minlength=len(self.coincidences))
            a = b


def g2_zero(stream: TimeTagStream | TagBlocks, pulse_period: float,
            max_lag: int = DEFAULT_MAX_LAG, rates: RateBins | None = None) -> G2Result:
    """Normalized zero-delay correlation from pulse-lag coincidences.

    Events are assigned to pulse indices.  Every pair of a channel-0 event
    and a channel-1 event at most ``max_lag`` pulses apart is listed once
    (two ``searchsorted`` calls bound each channel-0 event's window,
    ``np.repeat`` expands it) and an unweighted ``np.bincount`` histograms
    the pair lags, so a pair of pulses counts the product of their events,
    in runs of about ``_G2_BLOCK_PAIRS`` pairs, or of 2 max_lag + 1 (the
    histogram's length) if that is more, so that neither the pairs nor the
    histogram dominate a run.  The stream is consumed in one pass of its
    blocks (``_PulseLagFold``) that also feeds ``rates``, if given, so that one
    read serves ``blink_analysis`` too; the histogram is the one of the
    collected stream.  A ``max_lag`` beyond the stream's pulse span
    raises InsufficientDataError: those lags can hold no pair and would only
    dilute the side-peak mean.  g2(0) is the zero-lag count over the mean
    side-peak count at lags 1..max_lag.  The error is Poissonian,
    g2 * sqrt(1/N0 + 1/N_side); when N0 = 0 the one-count scale
    1/mean(N_side) is reported instead.  Every block is consumed before a
    statistic is found undefined, so a reader's checks run first.
    Invariant under uniform time shifts and channel swap.
    """
    if pulse_period <= 0:
        raise ValueError("pulse_period must be > 0")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    # no pulse span exceeds the window's, so neither need the histogram
    fold = _PulseLagFold(pulse_period, int(min(
        max_lag, np.rint(stream.duration / pulse_period))))
    for channels, timestamps in stream.blocks:
        fold.add(channels, timestamps)
        if rates is not None:
            rates.add(timestamps)
    coincidences = fold.coincidences
    n0, n1 = fold.events
    if n0 == 0 or n1 == 0:
        raise UndefinedResultError("both channels must contain events")
    if n0 + n1 < 1e4:
        warnings.warn("fewer than 1e4 events; g2 estimate will be noisy",
                      stacklevel=2)
    span = fold.last_pulse
    if max_lag > span:
        raise InsufficientDataError(
            f"max_lag {max_lag} exceeds the stream's span of {span} pulses")

    lags = np.arange(-max_lag, max_lag + 1)
    zero = int(coincidences[max_lag])
    side = np.concatenate([coincidences[:max_lag], coincidences[max_lag + 1:]])
    side_mean = float(np.mean(side))
    if side_mean <= 0:
        raise UndefinedResultError("no side-peak coincidences; cannot normalize")
    g2 = zero / side_mean
    if zero > 0:
        error = g2 * float(np.sqrt(1.0 / zero + 1.0 / np.sum(side)))
    else:
        error = 1.0 / side_mean  # one-count scale upper bound
    return G2Result(g2=float(g2), error=float(error), lags=lags,
                    coincidences=coincidences)


@dataclass
class BlinkHistogram:
    """Count-rate histogram with blinking-state classification."""

    bin_width: float               # s
    count_values: np.ndarray       # counts-per-bin axis of the histogram
    occurrences: np.ndarray        # number of bins at each count value
    classification: str            # grey_state_peak | exponential_burst | two_state
    grey_mean_rate: float | None   # Hz, Gaussian-fitted local maximum
    grey_rms_width: float | None   # Hz
    peak_rates: np.ndarray = field(default_factory=lambda: np.array([]))
    burst_fit_r2: float | None = None


def _gaussian_peak_fit(counts: np.ndarray, hist: np.ndarray, peak: int):
    """Gaussian fit around a histogram peak; returns (mean, sigma) in counts.

    Unbounded ``_least_squares`` with an analytic Jacobian, at most 2000
    evaluations; on failure the peak position and the Poisson width
    sqrt(peak) stand in for the fit.
    """
    sigma0 = max(np.sqrt(max(counts[peak], 1.0)), 1.0)
    lo = max(peak - int(4 * sigma0), 0)
    hi = min(peak + int(4 * sigma0) + 1, len(counts))
    xs, ys = counts[lo:hi].astype(float), hist[lo:hi].astype(float)

    def residuals(p):
        a, mu, s = p
        return a * np.exp(-((xs - mu) ** 2) / (2.0 * s**2)) - ys

    def jacobian(p):
        a, mu, s = p
        e = np.exp(-((xs - mu) ** 2) / (2.0 * s**2))
        J = np.empty((len(xs), 3))
        J[:, 0] = e
        J[:, 1] = a * e * (xs - mu) / s**2
        J[:, 2] = a * e * (xs - mu) ** 2 / s**3
        return J

    unbounded = np.full(3, np.inf)
    with np.errstate(all="ignore"):
        result = _least_squares(
            residuals, jacobian, [hist[peak], counts[peak], sigma0],
            -unbounded, unbounded, max_nfev=2000,
            xtol=1.49012e-8, ftol=1.49012e-8, gtol=0.0)
    if not (result.success and np.all(np.isfinite(result.x))):
        return float(counts[peak]), float(sigma0)
    return float(result.x[1]), float(abs(result.x[2]))


# blink_analysis: a histogram peak counts when its prominence exceeds this
# many Poisson sigmas, and a log-linear decay is a burst signature from this R^2
_PEAK_PROMINENCE_SIGMAS = 3.0
_BURST_MIN_R2 = 0.95


def _peaks(x: np.ndarray) -> tuple[list[int], list[float]]:
    """Local maxima of ``x`` and their prominences.

    A maximum is a sample, or a flat run of equal samples, with a lower
    neighbour on each side; a flat run is reported at its midpoint, rounded
    down, and the end samples never count.  The prominence is the height of
    the maximum above the higher of two minima: the lowest sample reached
    walking left, and walking right, until a higher sample or the end.
    """
    x = x.tolist()
    n = len(x)
    peaks = []
    i = 1
    while i < n - 1:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < n - 1 and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1
    prominences = []
    for p in peaks:
        bases = []
        for step in (-1, 1):
            j, low = p, x[p]
            while 0 <= j < n and x[j] <= x[p]:
                low = min(low, x[j])
                j += step
            bases.append(low)
        prominences.append(x[p] - max(bases))
    return peaks, prominences


def _add_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two histograms that may differ in length."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


class RateBins:
    """How many of the fixed time bins of an acquisition hold each event count.

    Bin k covers [k, k + 1) * ``bin_width``; the ``floor(duration /
    bin_width)`` whole bins count, events after them do not.  Timestamps
    are fed in time order, block by block (``add``): the bins a block
    closes go into the histogram, and the bin it leaves open carries its
    count into the next block.  The counts are integers, so the histogram
    does not depend on where the blocks end.
    """

    def __init__(self, duration: float, bin_width: float = DEFAULT_BIN_WIDTH):
        if bin_width <= 0:
            raise ValueError("bin_width must be > 0")
        self.bin_width = bin_width
        self.n_bins = int(np.floor(duration / bin_width))
        self._closed = np.zeros(0, dtype=np.int64)  # histogram of the closed bins
        self._n_closed = 0
        self._open_bin, self._open_count = 0, 0

    def add(self, timestamps: np.ndarray) -> None:
        bins = np.floor(timestamps / self.bin_width).astype(np.int64)
        bins = bins[: np.searchsorted(bins, self.n_bins)]
        if len(bins) == 0:
            return
        per_bin = np.bincount(bins - self._open_bin)
        per_bin[0] += self._open_count
        self._closed = _add_counts(self._closed, np.bincount(per_bin[:-1]))
        self._n_closed += len(per_bin) - 1
        self._open_bin, self._open_count = int(bins[-1]), int(per_bin[-1])

    def histogram(self) -> np.ndarray:
        """Entry k: the number of bins holding k events, over all n_bins bins."""
        hist = _add_counts(self._closed, np.bincount([self._open_count]))
        hist[0] += self.n_bins - self._n_closed - 1
        return hist


def blink_analysis(stream: TimeTagStream | TagBlocks | RateBins,
                   bin_width: float = DEFAULT_BIN_WIDTH) -> BlinkHistogram:
    """Bin the stream into fixed intervals and classify the rate histogram.

    A stream is binned at ``bin_width``, one block at a time, through
    ``RateBins``; a ``RateBins`` already fed (see ``g2_zero``) is taken as
    it is, with its own bin width.
    Classes: ``exponential_burst`` when the histogram decays monotonically
    from its lowest occupied bin (log-linear fit quality recorded),
    ``grey_state_peak`` for a single prominent local maximum at nonzero rate,
    ``two_state`` for two or more.  The grey-state mean rate and rms width
    come from a Gaussian fit to the (lowest nonzero) peak.  Deterministic:
    identical streams give identical classes.  Every block is consumed
    before a stream is found too short, so a reader's checks run first.
    """
    if isinstance(stream, RateBins):
        rates = stream
    else:
        rates = RateBins(stream.duration, bin_width)
        for _, timestamps in stream.blocks:
            rates.add(timestamps)
    bin_width = rates.bin_width
    if rates.n_bins < 1000:
        raise InsufficientDataError(
            f"stream too short: {rates.n_bins} bins < 1000 at {bin_width*1e6:.0f} us"
        )

    hist = rates.histogram()
    counts = np.arange(len(hist))

    # light smoothing for mode/peak finding only; fits use the raw histogram
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0
    smooth = np.convolve(hist, kernel, mode="same") if len(hist) >= 3 else hist.astype(float)

    occupied = np.nonzero(hist > 0)[0]
    mode = int(np.argmax(smooth))
    # the zero-count bin conflates fully dark intervals; fit the decay above it
    fit_start = max(mode, 1)
    fit_idx = occupied[(occupied >= fit_start) & (hist[occupied] >= 5)]
    burst_r2 = None
    if len(fit_idx) >= 3:
        lx, ly = fit_idx.astype(float), np.log(hist[fit_idx].astype(float))
        slope, intercept = np.polyfit(lx, ly, 1)
        pred = slope * lx + intercept
        ss_tot = float(np.sum((ly - ly.mean()) ** 2))
        burst_r2 = float(1.0 - np.sum((ly - pred) ** 2) / ss_tot) if ss_tot > 0 else 0.0
        if slope >= 0:
            burst_r2 = 0.0

    grey_mean = grey_rms = None
    grey_peak = None
    # burst signature: the histogram decays from its lowest occupied bins
    # (Poisson smear of the dark level puts the mode within a couple of
    # counts of the minimum) and the decay is log-linear
    decaying_from_lowest = mode <= occupied[0] + 2
    if decaying_from_lowest and burst_r2 is not None and burst_r2 >= _BURST_MIN_R2:
        classification = "exponential_burst"
        peak_rates = np.array([])
    else:
        keep = [p for p, prom in zip(*_peaks(smooth))
                if p >= 1
                and prom > _PEAK_PROMINENCE_SIGMAS * np.sqrt(max(smooth[p], 1.0))]
        peak_rates = np.array([counts[p] / bin_width for p in keep])
        if len(keep) >= 2:
            classification = "two_state"
            grey_peak = min(keep)  # lower-rate state
        elif len(keep) == 1:
            classification = "grey_state_peak"
            grey_peak = keep[0]
        else:
            # monotone but not cleanly exponential; still burst-like
            classification = "exponential_burst"

    if grey_peak is not None:
        mu, sigma = _gaussian_peak_fit(counts, hist, grey_peak)
        grey_mean = mu / bin_width
        grey_rms = sigma / bin_width

    return BlinkHistogram(bin_width=bin_width, count_values=counts,
                          occurrences=hist, classification=classification,
                          grey_mean_rate=grey_mean, grey_rms_width=grey_rms,
                          peak_rates=peak_rates, burst_fit_r2=burst_r2)


@dataclass(frozen=True)
class SaturationFit:
    saturation_power: float
    saturation_power_error: float
    amplitude: float
    spans_saturation: bool


def fit_saturation(powers, rates) -> SaturationFit:
    """Least squares of rate = C * (1 - exp(-P/P_sat)) with analytic Jacobian.

    Needs at least 4 points; warns (ill-conditioned) when the powers do not
    span the fitted saturation power.
    """
    P = np.asarray(powers, dtype=float)
    y = np.asarray(rates, dtype=float)
    if P.shape != y.shape or len(P) < 4:
        raise InsufficientDataError("need >= 4 (power, rate) points")
    if np.any(P < 0):
        raise ValueError("powers must be >= 0")

    c0 = float(np.max(y))
    psat0 = float(_median(P[P > 0])) if np.any(P > 0) else 1.0

    def residuals(p):
        c, ps = p
        return c * (1.0 - np.exp(-P / ps)) - y

    def jacobian(p):
        c, ps = p
        e = np.exp(-P / ps)
        J = np.empty((len(P), 2))
        J[:, 0] = 1.0 - e
        J[:, 1] = -c * e * P / ps**2
        return J

    result = _least_squares(residuals, jacobian,
                            [max(c0, 1e-12), max(psat0, 1e-18)],
                            [0.0, 1e-300], [np.inf, np.inf], max_nfev=200,
                            xtol=1e-14, ftol=1e-14, gtol=1e-14)
    if not result.success:
        raise FitError(f"saturation fit failed: {result.message}")

    c, psat = result.x
    dof = max(len(P) - 2, 1)
    s2 = float(result.fun @ result.fun) / dof
    try:
        cov = s2 * np.linalg.inv(result.jac.T @ result.jac)
        psat_err = float(np.sqrt(max(cov[1, 1], 0.0)))
    except np.linalg.LinAlgError:
        psat_err = float("nan")

    spans = bool(P.min() < psat < P.max())
    if not spans:
        warnings.warn(
            f"data do not span the fitted P_sat = {psat:.3g}; "
            "estimate is ill-conditioned", stacklevel=2,
        )
    return SaturationFit(saturation_power=float(psat),
                         saturation_power_error=psat_err,
                         amplitude=float(c), spans_saturation=spans)
