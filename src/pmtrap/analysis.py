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

import numpy as np
from scipy import fft, optimize

from .errors import (
    FitError,
    InsufficientDataError,
    NoPeakError,
    UndefinedResultError,
)
from .langevin import TimeSeries
from .photon_emitter import TimeTagStream

__all__ = [
    "Spectrum",
    "LorentzianFit",
    "G2Result",
    "BlinkHistogram",
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
_PSD_BLOCK_SAMPLES = 1 << 20


def _periodogram_sum(segments: np.ndarray, mean: float,
                     window: np.ndarray) -> np.ndarray:
    """Sum over the rows of |rfft((segment - mean) * window)|^2.

    A function of its own so that its temporaries are freed on return,
    before the caller builds the next block.
    """
    block = segments - mean
    block *= window
    spec = fft.rfft(block, axis=-1)
    del block
    power = spec.real**2
    power += spec.imag**2
    return power.sum(axis=0)


def power_spectral_density(series: TimeSeries, segment_length: int | None = None,
                           overlap: float = 0.5) -> Spectrum:
    """Averaged-periodogram (Welch) PSD estimate of a time series, Hann window.

    The series mean is removed once, globally; with density scaling the
    spectrum then integrates to the series variance (Parseval, ~1%).
    ``segment_length`` defaults to a power of two near len/8, clipped to
    [256, 65536]; segments start every ``segment_length -
    int(segment_length * overlap)`` samples and the series must contain at
    least 4 of them.  The periodograms are summed over blocks of about
    2^20 samples' worth of segments, so the working memory stays fixed
    however long the series is; the sum is scaled once at the end.
    """
    x = series.samples
    return _welch(lambda start, stop: x[start:stop], lambda: np.mean(x), len(x),
                  series.sample_interval, segment_length, overlap)


def stream_power_spectral_density(source, segment_length: int | None = None,
                                  overlap: float = 0.5) -> Spectrum:
    """``power_spectral_density`` of a series read range by range.

    ``source`` has ``n_samples``, ``sample_interval``, ``read(start, stop)``
    (samples [start, stop), used before the next read) and ``mean()``, as
    ``io_formats.TimeSeriesReader`` does.  Each block of segments is read
    as the one sample range it covers, so only that range is held; the
    segments and the order of the sums are those of the in-memory estimate.
    The mean comes from ``source.mean()``, which may differ from a
    whole-array mean in the last digit.
    """
    return _welch(source.read, source.mean, source.n_samples,
                  source.sample_interval, segment_length, overlap)


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of n samples (``[1.0]`` for n = 1)."""
    if n == 1:
        return np.ones(1)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


def _welch(read, series_mean, n: int, sample_interval: float,
           segment_length: int | None, overlap: float) -> Spectrum:
    """Welch PSD of n samples given by ``read(start, stop)``.

    ``series_mean()`` is called once, after the arguments are checked.
    """
    if segment_length is None:
        target = max(n // 8, 2)
        segment_length = int(2 ** np.clip(np.floor(np.log2(target)), 8, 16))
    if not 0 <= overlap < 1:
        raise ValueError("overlap must be in [0, 1)")
    hop = segment_length - int(segment_length * overlap)
    n_segments = 1 + (n - segment_length) // hop if n >= segment_length else 0
    if n_segments < 4:
        raise InsufficientDataError(
            f"series too short: need >= 4 segments of {segment_length} samples"
        )

    fs = 1.0 / sample_interval
    w = _hann(segment_length)
    mean = series_mean()
    per_block = max(1, _PSD_BLOCK_SAMPLES // segment_length)
    psd = np.zeros(segment_length // 2 + 1)
    for first in range(0, n_segments, per_block):
        count = min(per_block, n_segments - first)
        x = read(first * hop, (first + count - 1) * hop + segment_length)
        segments = np.lib.stride_tricks.sliding_window_view(x, segment_length)[::hop]
        psd += _periodogram_sum(segments, mean, w)
    psd /= fs * np.sum(w**2) * n_segments
    # one-sided: fold the negative frequencies onto all bins but DC and,
    # for an even segment length, Nyquist
    last = -1 if segment_length % 2 == 0 else None
    psd[1:last] *= 2.0
    enbw = fs * np.sum(w**2) / np.sum(w) ** 2
    return Spectrum(frequencies=fft.rfftfreq(segment_length, d=1.0 / fs),
                    densities=psd, resolution_bandwidth=float(enbw),
                    averages=int(n_segments))


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


def _peak_snr(psd: np.ndarray) -> tuple[int, float]:
    """Peak index and SNR in expected-extreme units.

    The noise scale is estimated from the bin-to-bin roughness (robust sigma
    of first differences), which ignores smooth spectral structure; the peak
    excess over the median is divided by the expected maximum of that noise
    over all bins, sqrt(2 ln n), so a featureless noisy spectrum scores ~1
    regardless of length and a real peak scores >> 1.
    """
    background = np.median(psd)
    peak = int(np.argmax(psd))
    noise = 1.4826 / np.sqrt(2.0) * np.median(np.abs(np.diff(psd)))
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
    background = float(np.median(y))
    half = background + (float(y[peak_idx]) - background) / 2.0
    df = f[1] - f[0]
    return df * max(int(np.count_nonzero(y > half)), 1)


# peak SNR, in multiple-comparison-corrected robust sigmas, below which
# fit_lorentzian reports no peak
_MIN_SNR = 3.0


def fit_lorentzian(spectrum: Spectrum) -> LorentzianFit:
    """Trust-region least squares of a Lorentzian peak plus flat background.

    The fit runs on the peak region (center +- 4 estimated FWHM), where the
    Lorentzian approximation of the damped-oscillator spectrum holds; the
    Jacobian is analytic and the fit is performed in normalized units for
    conditioning.  Raises NoPeakError when the peak does not stand above the
    spectrum's own fluctuations (``_MIN_SNR``) and FitError on
    non-convergence (200 iteration cap).
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

    # normalized units: TRF misbehaves when parameters sit ~1e-10 from a bound
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

    result = optimize.least_squares(
        residuals, p0, jac=jacobian, bounds=(lower, upper),
        method="trf", x_scale="jac", max_nfev=200,
        xtol=1e-12, ftol=1e-12, gtol=1e-12,
    )
    if not result.success:
        raise FitError(
            f"Lorentzian fit did not converge in 200 iterations: {result.message}; "
            f"final residual norm {np.linalg.norm(result.fun):.3e}"
        )

    a, f0, hw, b = result.x
    dof = max(len(f) - 4, 1)
    s2 = 2.0 * result.cost / dof
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


# pulse-lag slots (channel-0 pulses x lags) expanded at once by g2_zero
_G2_BLOCK_SLOTS = 1 << 22


def _pulse_counts(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, counts = np.unique(indices, return_counts=True)
    return uniq, counts.astype(np.int64)


def g2_zero(stream: TimeTagStream, pulse_period: float,
            max_lag: int = 50) -> G2Result:
    """Normalized zero-delay correlation from pulse-lag coincidences.

    Events are assigned to pulse indices and counted per pulse and channel.
    Every pair of a channel-0 pulse and a channel-1 pulse at most ``max_lag``
    pulses apart is listed once (two ``searchsorted`` calls bound each
    channel-0 pulse's window, ``np.repeat`` expands it) and ``np.bincount``
    histograms the pair lags weighted by the product of the two counts, in
    blocks of about 2**22 pulse-lag slots; the histogram itself holds
    2 max_lag + 1 counts.  A ``max_lag`` beyond the stream's pulse span
    raises InsufficientDataError: those lags can hold no pair and would only
    dilute the side-peak mean.  g2(0) is the zero-lag count over the mean
    side-peak count at lags 1..max_lag.  The error is Poissonian,
    g2 * sqrt(1/N0 + 1/N_side); when N0 = 0 the one-count scale
    1/mean(N_side) is reported instead.
    Invariant under uniform time shifts and channel swap.
    """
    if pulse_period <= 0:
        raise ValueError("pulse_period must be > 0")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    n0, n1 = stream.counts_per_channel()
    if n0 == 0 or n1 == 0:
        raise UndefinedResultError("both channels must contain events")
    if len(stream) < 1e4:
        warnings.warn("fewer than 1e4 events; g2 estimate will be noisy",
                      stacklevel=2)

    t0 = stream.timestamps[0]
    pulses = np.rint((stream.timestamps - t0) / pulse_period).astype(np.int64)
    span = int(pulses[-1] - pulses[0])
    if max_lag > span:
        raise InsufficientDataError(
            f"max_lag {max_lag} exceeds the stream's span of {span} pulses")
    idx0, cnt0 = _pulse_counts(pulses[stream.channels == 0])
    idx1, cnt1 = _pulse_counts(pulses[stream.channels == 1])

    lags = np.arange(-max_lag, max_lag + 1)
    first = np.searchsorted(idx1, idx0 - max_lag, side="left")
    n_pairs = np.searchsorted(idx1, idx0 + max_lag, side="right") - first
    coincidences = np.zeros(len(lags), dtype=np.int64)
    block = max(1, _G2_BLOCK_SLOTS // len(lags))
    for a in range(0, len(idx0), block):
        b = a + block
        reps = n_pairs[a:b]
        pair_start = np.cumsum(reps) - reps  # first pair of each channel-0 pulse
        # channel-1 position of each pair: window start plus rank in the window
        j1 = np.arange(int(reps.sum())) + np.repeat(first[a:b] - pair_start, reps)
        lag = idx1[j1] - np.repeat(idx0[a:b] - max_lag, reps)
        coincidences += np.bincount(
            lag, weights=np.repeat(cnt0[a:b], reps) * cnt1[j1],
            minlength=len(lags)).astype(np.int64)

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
    """Gaussian fit around a histogram peak; returns (mean, sigma) in counts."""
    sigma0 = max(np.sqrt(max(counts[peak], 1.0)), 1.0)
    lo = max(peak - int(4 * sigma0), 0)
    hi = min(peak + int(4 * sigma0) + 1, len(counts))
    xs, ys = counts[lo:hi].astype(float), hist[lo:hi].astype(float)

    def model(x, a, mu, s):
        return a * np.exp(-((x - mu) ** 2) / (2.0 * s**2))

    try:
        popt, _ = optimize.curve_fit(
            model, xs, ys, p0=[hist[peak], counts[peak], sigma0],
            maxfev=2000,
        )
        return float(popt[1]), float(abs(popt[2]))
    except (RuntimeError, ValueError):
        return float(counts[peak]), float(sigma0)


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


def blink_analysis(stream: TimeTagStream, bin_width: float = 500e-6) -> BlinkHistogram:
    """Bin the stream into fixed intervals and classify the rate histogram.

    Classes: ``exponential_burst`` when the histogram decays monotonically
    from its lowest occupied bin (log-linear fit quality recorded),
    ``grey_state_peak`` for a single prominent local maximum at nonzero rate,
    ``two_state`` for two or more.  The grey-state mean rate and rms width
    come from a Gaussian fit to the (lowest nonzero) peak.  Deterministic:
    identical streams give identical classes.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    n_bins = int(np.floor(stream.duration / bin_width))
    if n_bins < 1000:
        raise InsufficientDataError(
            f"stream too short: {n_bins} bins < 1000 at {bin_width*1e6:.0f} us"
        )

    bins = np.floor(stream.timestamps / bin_width).astype(np.int64)
    bins = bins[bins < n_bins]
    per_bin = np.bincount(bins, minlength=n_bins)
    max_count = int(per_bin.max())
    hist = np.bincount(per_bin, minlength=max_count + 1)
    counts = np.arange(max_count + 1)

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
    psat0 = float(np.median(P[P > 0])) if np.any(P > 0) else 1.0

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

    result = optimize.least_squares(
        residuals, [max(c0, 1e-12), max(psat0, 1e-18)],
        jac=jacobian, bounds=([0.0, 1e-300], [np.inf, np.inf]),
        method="trf", x_scale="jac", max_nfev=200,
        xtol=1e-14, ftol=1e-14, gtol=1e-14,
    )
    if not result.success:
        raise FitError(f"saturation fit failed: {result.message}")

    c, psat = result.x
    dof = max(len(P) - 2, 1)
    s2 = 2.0 * result.cost / dof
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
