"""Dipole radiation patterns collimated by a deep parabolic mirror.

The mirror maps the emission direction (polar angle theta, azimuth phi) of a
dipole sitting at the focus onto a collimated ray at radius R in the output
aperture, with R measured in units of the focal length:

    theta = 2 * atan(R / 2)

On that aperture, an on-axis linear dipole produces the radial profile

    I_pi(R) = R^2 / (R^2/4 + 1)^4

and a circular dipole (or the incoherent average of the two in-plane linear
dipoles) produces

    I_sigma(R) = (R^4/16 + 1) / (R^2/4 + 1)^4.

This module synthesizes aperture images for arbitrary dipole orientations,
projects them onto linear polarization states, gives the collection
efficiencies over the mirror's solid angle in closed form, azimuthally
averages images into radial profiles, and fits the linear/circular mixture
fraction to profiles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.optimize import nnls

from . import constants as const
from .errors import FitError, InsufficientDataError, InvalidGeometryError

__all__ = [
    "MirrorGeometry",
    "DipoleMix",
    "ApertureImage",
    "RadialProfile",
    "DipoleFitResult",
    "AsymmetryResult",
    "LINEAR_ON_AXIS",
    "CIRCULAR",
    "theta_from_R",
    "intensity_linear",
    "intensity_circular",
    "general_dipole_image",
    "mix_image",
    "polarized_projection",
    "collection_efficiency",
    "azimuthal_average",
    "fit_dipole_fraction",
    "asymmetry_metric",
]

# Dipole orientation sentinels; an orientation is either one of these or a
# 3-vector of unit length.
LINEAR_ON_AXIS = "linear_on_axis"
CIRCULAR = "circular"

# Default synthesis grid: 256 x 256 pixels covering R in [-5, 5]^2 (units of
# focal length).  Pixel centers sit at half-integer offsets so the grid is
# exactly fourfold (D4) symmetric about the optical axis.
DEFAULT_N_PIXELS = 256
DEFAULT_HALF_EXTENT = 5.0

# Asymmetry classification thresholds (overridable per call)
SYMMETRY_SCORE_MAX = 0.02
ASYMMETRY_SCORE_MIN = 0.1


@dataclass(frozen=True)
class MirrorGeometry:
    """Deep parabolic mirror: focal length, aperture, vertex bore, reflectivity.

    Lengths in meters.  The rim half-angle 2*atan(a/2f) must exceed 90 deg,
    i.e. the mirror must be deeper than a hemisphere.
    """

    focal_length: float = 2.1e-3
    aperture_radius: float = 10e-3
    bore_radius: float = 0.75e-3
    reflectivity: float = const.MIRROR_REFLECTIVITY

    def __post_init__(self):
        if self.focal_length <= 0:
            raise InvalidGeometryError("focal_length must be > 0")
        if not 0 < self.bore_radius < self.aperture_radius:
            raise InvalidGeometryError(
                "require 0 < bore_radius < aperture_radius, got "
                f"{self.bore_radius} vs {self.aperture_radius}"
            )
        if not 0 < self.reflectivity <= 1:
            raise InvalidGeometryError("reflectivity must be in (0, 1]")
        if not np.pi / 2 < self.rim_angle < np.pi:
            raise InvalidGeometryError(
                "rim half-angle must lie in (90, 180) deg; got "
                f"{np.degrees(self.rim_angle):.1f} deg"
            )

    @property
    def rim_radius_f(self) -> float:
        """Aperture radius in units of the focal length."""
        return self.aperture_radius / self.focal_length

    @property
    def bore_radius_f(self) -> float:
        """Bore radius in units of the focal length."""
        return self.bore_radius / self.focal_length

    @property
    def rim_angle(self) -> float:
        """Polar angle of the aperture rim (rad)."""
        return float(theta_from_R(self.rim_radius_f))

    @property
    def bore_angle(self) -> float:
        """Polar angle subtended by the vertex bore (rad)."""
        return float(theta_from_R(self.bore_radius_f))


@dataclass(frozen=True)
class DipoleMix:
    """Incoherent linear/circular dipole mixture.

    ``a_pi`` is the linear-dipole intensity fraction I0_pi/(I0_pi+I0_sigma).
    """

    a_pi: float
    i0_pi: float = float("nan")
    i0_sigma: float = float("nan")

    def __post_init__(self):
        if not 0.0 <= self.a_pi <= 1.0:
            raise ValueError(f"a_pi must be in [0, 1], got {self.a_pi}")
        if np.isnan(self.i0_pi):
            object.__setattr__(self, "i0_pi", self.a_pi)
            object.__setattr__(self, "i0_sigma", 1.0 - self.a_pi)
        else:
            if self.i0_pi < 0 or self.i0_sigma < 0:
                raise ValueError("amplitudes must be non-negative")
            total = self.i0_pi + self.i0_sigma
            if total > 0 and abs(self.a_pi - self.i0_pi / total) > 1e-9:
                raise ValueError("a_pi inconsistent with amplitudes")

    @classmethod
    def from_amplitudes(cls, i0_pi: float, i0_sigma: float) -> "DipoleMix":
        total = i0_pi + i0_sigma
        if total <= 0:
            raise ValueError("at least one amplitude must be positive")
        return cls(a_pi=i0_pi / total, i0_pi=i0_pi, i0_sigma=i0_sigma)


@dataclass
class ApertureImage:
    """Pixelized intensity in the mirror output aperture.

    ``pixels[row, col]`` with row -> y, col -> x; ``pixel_pitch`` in units of
    the focal length; ``center`` is the optical-axis position in (col, row)
    pixel coordinates.  ``channel`` is one of total/vertical/horizontal.
    """

    pixels: np.ndarray
    pixel_pitch: float
    channel: str = "total"
    center: tuple[float, float] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be a 2-D array")
        if self.channel not in ("total", "vertical", "horizontal"):
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.pixel_pitch <= 0:
            raise ValueError("pixel_pitch must be > 0")
        if np.any(self.pixels < 0):
            raise ValueError("intensities must be non-negative")
        if not np.all(np.isfinite(self.pixels)):
            raise ValueError("intensities must be finite")
        if self.center is None:
            ny, nx = self.pixels.shape
            self.center = ((nx - 1) / 2.0, (ny - 1) / 2.0)

    def pixel_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) of every pixel center in units of focal length."""
        ny, nx = self.pixels.shape
        cx, cy = self.center
        x = (np.arange(nx) - cx) * self.pixel_pitch
        y = (np.arange(ny) - cy) * self.pixel_pitch
        return np.meshgrid(x, y)

    def radius_grid(self) -> np.ndarray:
        x, y = self.pixel_coordinates()
        return np.hypot(x, y)


@dataclass
class RadialProfile:
    """Azimuthally averaged intensity versus aperture radius (units of f)."""

    radii: np.ndarray
    intensities: np.ndarray
    counts: np.ndarray | None = None
    variances: np.ndarray | None = None

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.radii.shape != self.intensities.shape:
            raise ValueError("radii and intensities must have matching shapes")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if not np.all(np.isfinite(self.intensities)):
            raise ValueError("intensities must be finite")


def theta_from_R(R):
    """Polar emission angle (rad) mapped to aperture radius R (units of f).

    theta = 2 * atan(R/2); monotone, theta(0) = 0, theta -> pi as R -> inf.
    """
    R = np.asarray(R, dtype=float)
    if np.any(R < 0):
        raise ValueError("R must be non-negative")
    return 2.0 * np.arctan(R / 2.0)


def intensity_linear(R):
    """Aperture intensity of an on-axis linear dipole, unit amplitude."""
    R = np.asarray(R, dtype=float)
    if np.any(R < 0):
        raise ValueError("R must be non-negative")
    return R**2 / (R**2 / 4.0 + 1.0) ** 4


def intensity_circular(R):
    """Aperture intensity of a circular dipole, unit amplitude (max 1 at R=0)."""
    R = np.asarray(R, dtype=float)
    if np.any(R < 0):
        raise ValueError("R must be non-negative")
    return (R**4 / 16.0 + 1.0) / (R**2 / 4.0 + 1.0) ** 4


def _image_grid(n_pixels: int, half_extent: float):
    pitch = 2.0 * half_extent / n_pixels
    c = (n_pixels - 1) / 2.0
    coords = (np.arange(n_pixels) - c) * pitch
    x, y = np.meshgrid(coords, coords)
    return x, y, pitch, c


def _clip_mask(R: np.ndarray, geometry: MirrorGeometry) -> np.ndarray:
    return (R >= geometry.bore_radius_f) & (R <= geometry.rim_radius_f)


def general_dipole_image(
    orientation,
    geometry: MirrorGeometry | None = None,
    n_pixels: int = DEFAULT_N_PIXELS,
    half_extent: float = DEFAULT_HALF_EXTENT,
) -> ApertureImage:
    """Total-intensity aperture image of a dipole with arbitrary orientation.

    Pixel intensity is (1 - |d.k|^2) / (R^2/4 + 1)^2 with k the emission
    direction mapped from the pixel via theta = 2*atan(R/2), so an on-axis
    dipole reduces exactly to ``intensity_linear`` and the circular case to
    ``intensity_circular``.  Pixels inside the vertex bore or beyond the
    aperture rim are zeroed.

    Parameters
    ----------
    orientation : array_like of shape (3,), or LINEAR_ON_AXIS / CIRCULAR
        Dipole axis unit vector (|d| = 1 within 1e-12).  CIRCULAR denotes the
        incoherent equal-weight mix of the two in-plane linear dipoles.
    geometry : MirrorGeometry, optional
        Defaults to the reference mirror.  Sets the bore/rim clip radii.
    n_pixels, half_extent : grid specification; pixel centers are placed
        symmetrically about the axis.

    Returns
    -------
    ApertureImage with channel "total".  ``metadata["bore_resolved"]`` is
    False (with a warning) when the pixel pitch is too coarse to resolve the
    bore hole.
    """
    if geometry is None:
        geometry = MirrorGeometry()
    x, y, pitch, c = _image_grid(n_pixels, half_extent)
    R = np.hypot(x, y)
    theta = 2.0 * np.arctan(R / 2.0)
    envelope = 1.0 / (R**2 / 4.0 + 1.0) ** 2

    if isinstance(orientation, str):
        if orientation == LINEAR_ON_AXIS:
            pattern = np.sin(theta) ** 2
        elif orientation == CIRCULAR:
            pattern = (1.0 + np.cos(theta) ** 2) / 2.0
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
    else:
        d = np.asarray(orientation, dtype=float)
        if d.shape != (3,):
            raise ValueError("orientation must be a 3-vector or a named case")
        if abs(np.dot(d, d) - 1.0) > 1e-12:
            raise ValueError("orientation must be a unit vector (|d|=1 within 1e-12)")
        sin_t = np.sin(theta)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_phi = np.where(R > 0, x / R, 1.0)
            sin_phi = np.where(R > 0, y / R, 0.0)
        kx = sin_t * cos_phi
        ky = sin_t * sin_phi
        kz = np.cos(theta)
        pattern = 1.0 - (d[0] * kx + d[1] * ky + d[2] * kz) ** 2

    pixels = pattern * envelope
    pixels[~_clip_mask(R, geometry)] = 0.0

    metadata = {
        "bore_radius_f": geometry.bore_radius_f,
        "rim_radius_f": geometry.rim_radius_f,
        "bore_resolved": bool(geometry.bore_radius_f >= 2.0 * pitch),
    }
    if not metadata["bore_resolved"]:
        warnings.warn(
            f"pixel pitch {pitch:.3g} f too coarse to resolve the bore hole "
            f"(R_bore = {geometry.bore_radius_f:.3g} f)",
            stacklevel=2,
        )
    return ApertureImage(pixels=pixels, pixel_pitch=pitch, channel="total",
                         center=(c, c), metadata=metadata)


def mix_image(
    mix: DipoleMix,
    geometry: MirrorGeometry | None = None,
    n_pixels: int = DEFAULT_N_PIXELS,
    half_extent: float = DEFAULT_HALF_EXTENT,
) -> ApertureImage:
    """Aperture image of an on-axis incoherent linear/circular mixture."""
    lin = general_dipole_image(LINEAR_ON_AXIS, geometry, n_pixels, half_extent)
    cir = general_dipole_image(CIRCULAR, geometry, n_pixels, half_extent)
    pixels = mix.a_pi * lin.pixels + (1.0 - mix.a_pi) * cir.pixels
    return ApertureImage(pixels=pixels, pixel_pitch=lin.pixel_pitch,
                         channel="total", center=lin.center,
                         metadata=dict(lin.metadata))


def polarized_projection(image: ApertureImage, mix: DipoleMix, axis: str) -> ApertureImage:
    """Project a total-channel mixture image onto a linear polarizer axis.

    The collimated field of an on-axis linear dipole is radially polarized, so
    its intensity picks up |r_hat . u_hat|^2 (giving extinction lines
    perpendicular to the polarizer axis); the circular component is treated as
    azimuthally unpolarized and splits 50/50.  Vertical and horizontal outputs
    sum to the input exactly.
    """
    if image.channel != "total":
        raise ValueError("projection expects the total channel")
    if axis not in ("vertical", "horizontal"):
        raise ValueError(f"axis must be vertical or horizontal, got {axis!r}")

    x, y = image.pixel_coordinates()
    R2 = x**2 + y**2
    # |r_hat . y_hat|^2 = sin^2(phi), |r_hat . x_hat|^2 = cos^2(phi)
    with np.errstate(invalid="ignore", divide="ignore"):
        proj = np.where(R2 > 0, (y**2 if axis == "vertical" else x**2) / R2, 0.5)

    R = np.sqrt(R2)
    i_pi = mix.a_pi * intensity_linear(R)
    i_sigma = (1.0 - mix.a_pi) * intensity_circular(R)
    total_shape = i_pi + i_sigma
    with np.errstate(invalid="ignore", divide="ignore"):
        lin_frac = np.where(total_shape > 0, i_pi / total_shape, 0.0)

    pixels = image.pixels * (lin_frac * proj + (1.0 - lin_frac) * 0.5)
    return ApertureImage(pixels=pixels, pixel_pitch=image.pixel_pitch,
                         channel=axis, center=image.center,
                         metadata=dict(image.metadata))


def collection_efficiency(kind: str, geometry: MirrorGeometry | None = None) -> float:
    """Fraction of total dipole emission collected between bore and rim.

    The dipole pattern integrated over theta in [theta_bore, theta_rim], in
    closed form with c_i = cos(theta_i) at the bore and the rim:

        linear:   (3/4) [(c0 - c1) - (c0^3 - c1^3)/3]
        circular: (3/8) [(c0 - c1) + (c0^3 - c1^3)/3]

    With the reference geometry this gives 0.94 for a linear and 0.76 for a
    circular dipole.
    """
    if geometry is None:
        geometry = MirrorGeometry()
    c0, c1 = np.cos(geometry.bore_angle), np.cos(geometry.rim_angle)
    cubes = (c0**3 - c1**3) / 3.0
    if kind == "linear":
        return float(0.75 * ((c0 - c1) - cubes))
    if kind == "circular":
        return float(0.375 * ((c0 - c1) + cubes))
    raise ValueError(f"kind must be 'linear' or 'circular', got {kind!r}")


def azimuthal_average(image: ApertureImage) -> RadialProfile:
    """Mean intensity per annular bin, one pixel pitch wide, around the center.

    Empty bins are omitted.  Per-bin pixel counts and intensity variances
    are recorded on the profile.
    """
    ny, nx = image.pixels.shape
    cx, cy = image.center
    if not (-0.5 <= cx <= nx - 0.5 and -0.5 <= cy <= ny - 0.5):
        raise ValueError(f"center {image.center} lies off the pixel grid")
    bin_width = image.pixel_pitch

    R = image.radius_grid().ravel()
    I = image.pixels.ravel()
    idx = np.floor(R / bin_width).astype(np.int64)
    n_bins = int(idx.max()) + 1
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=I, minlength=n_bins)
    sq_sums = np.bincount(idx, weights=I * I, minlength=n_bins)

    occupied = counts > 0
    means = np.zeros(n_bins)
    means[occupied] = sums[occupied] / counts[occupied]
    variances = np.zeros(n_bins)
    variances[occupied] = np.maximum(
        sq_sums[occupied] / counts[occupied] - means[occupied] ** 2, 0.0
    )
    centers = (np.arange(n_bins) + 0.5) * bin_width
    return RadialProfile(
        radii=centers[occupied],
        intensities=means[occupied],
        counts=counts[occupied],
        variances=variances[occupied],
    )


@dataclass(frozen=True)
class DipoleFitResult:
    """Linear/circular mixture fit to a radial profile."""

    mix: DipoleMix
    a_pi_std_error: float
    residual_norm: float

    @property
    def a_pi(self) -> float:
        return self.mix.a_pi


def fit_dipole_fraction(profile: RadialProfile) -> DipoleFitResult:
    """Non-negative least squares of I0_pi*I_pi(R) + I0_sigma*I_sigma(R).

    The two shapes separate only when the profile spans both the inner lobe
    (R < 1) and the tail (R > 1.5); at least 8 samples covering both regions
    are required.  The a_pi standard error is propagated from the
    (unconstrained) linear-fit covariance.
    """
    R = profile.radii
    y = profile.intensities
    if len(R) < 8 or not (np.any(R < 1.0) and np.any(R > 1.5)):
        raise InsufficientDataError(
            "need >= 8 radial samples spanning R < 1 and R > 1.5"
        )
    if not np.any(y > 0):
        raise FitError("degenerate profile: all intensities are zero")

    A = np.column_stack([intensity_linear(R), intensity_circular(R)])
    coeffs, residual = nnls(A, y)
    i0_pi, i0_sigma = coeffs
    total = i0_pi + i0_sigma
    if total <= 0:
        raise FitError("fit collapsed to zero amplitudes")
    a_pi = i0_pi / total

    # Covariance of the unconstrained linear problem, propagated to a_pi
    dof = max(len(y) - 2, 1)
    sigma2 = residual**2 / dof
    try:
        cov = sigma2 * linalg.inv(A.T @ A)
        grad = np.array([i0_sigma, -i0_pi]) / total**2
        var_a = float(grad @ cov @ grad)
        a_err = float(np.sqrt(max(var_a, 0.0)))
    except linalg.LinAlgError:
        a_err = float("nan")

    mix = DipoleMix.from_amplitudes(i0_pi, i0_sigma) if total > 0 else DipoleMix(0.0)
    return DipoleFitResult(mix=mix, a_pi_std_error=a_err, residual_norm=float(residual))


@dataclass(frozen=True)
class AsymmetryResult:
    score: float
    classification: str  # symmetric | asymmetric | inconclusive


def asymmetry_metric(
    image: ApertureImage,
    symmetric_below: float = SYMMETRY_SCORE_MAX,
    asymmetric_above: float = ASYMMETRY_SCORE_MIN,
) -> AsymmetryResult:
    """Azimuthal-asymmetry score of a centered aperture image.

    Per radial annulus (width = pixel pitch) the energy in azimuthal Fourier
    components m = 1..3 is computed relative to the m = 0 power and
    averaged over annuli weighted by their total intensity.  The trigonometric
    moments are evaluated from pixel coordinates, so on the fourfold-symmetric
    pixel grid they cancel exactly (to rounding) for any radially symmetric
    image.  m = 4 is excluded: the square pixel lattice itself carries an m = 4
    moment even for symmetric images.

    Classification: symmetric below ``symmetric_below``, asymmetric above
    ``asymmetric_above``, inconclusive in between.
    """
    ny, nx = image.pixels.shape
    cx, cy = image.center
    # The exact-cancellation argument needs the center on the grid's symmetry
    # point; require it within a small tolerance of the geometric center.
    if abs(cx - (nx - 1) / 2) > 1e-9 or abs(cy - (ny - 1) / 2) > 1e-9:
        raise ValueError("asymmetry metric requires a centered image")

    x, y = image.pixel_coordinates()
    R = np.hypot(x, y).ravel()
    I = image.pixels.ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(R > 0, x.ravel() / R, 0.0)
        s1 = np.where(R > 0, y.ravel() / R, 0.0)
    # exact multiple-angle forms built from (cos, sin) of each pixel
    c2, s2 = c1 * c1 - s1 * s1, 2.0 * c1 * s1
    harmonics = ((c1, s1), (c2, s2), (c2 * c1 - s2 * s1, s2 * c1 + c2 * s1))

    bin_width = image.pixel_pitch
    idx = np.floor(R / bin_width).astype(np.int64)
    n_bins = int(idx.max()) + 1
    counts = np.bincount(idx, minlength=n_bins).astype(float)
    sums = np.bincount(idx, weights=I, minlength=n_bins)

    occupied = counts > 0
    means = np.zeros(n_bins)
    means[occupied] = sums[occupied] / counts[occupied]

    # ring energy in m>=1 harmonics: sum over m of 2*|c_m|^2 with
    # c_m = mean(I * exp(i m phi)) over the ring
    energy = np.zeros(n_bins)
    for cm, sm in harmonics:
        re = np.bincount(idx, weights=I * cm, minlength=n_bins)
        im = np.bincount(idx, weights=I * sm, minlength=n_bins)
        re[occupied] /= counts[occupied]
        im[occupied] /= counts[occupied]
        energy += 2.0 * (re**2 + im**2)

    usable = occupied & (means > 0)
    if not np.any(usable):
        return AsymmetryResult(score=0.0, classification="inconclusive")
    ring_score = energy[usable] / means[usable] ** 2
    weights = counts[usable] * means[usable]
    score = float(np.sum(weights * ring_score) / np.sum(weights))

    if score < symmetric_below:
        cls = "symmetric"
    elif score > asymmetric_above:
        cls = "asymmetric"
    else:
        cls = "inconclusive"
    return AsymmetryResult(score=score, classification=cls)
