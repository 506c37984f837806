"""Optical-trap mechanics of rods and rod clusters in the Rayleigh regime.

Model chain: a CdS rod of volume V has scalar polarizability
alpha = eps0 * V * (n^2 - 1); the trap depth is U0 = alpha/2 * E_max^2 with
E_max^2 = kappa * P, where the field factor kappa stands in for the focal
field calibration and is fixed so a single bare rod escapes (U0 = kB*T) at
P_min = 41 mW.  A cluster of N parallel rods scales the polarizability and
mass by N and presents the drag cross-section of N shell-padded rod discs,
r_z = (d/2 + shell) * sqrt(N).  Gas damping follows the slip-corrected Stokes
rate

    Gamma = 6*pi*eta*r/m * 0.619/(0.619 + Kn) * (1 + c_K),
    c_K = 0.31*Kn / (0.785 + 1.152*Kn + Kn^2),   Kn = Lambda/r.

With axial trap width w_z, k_z = 2*U0/w_z^2 and Omega = sqrt(k_z/m).
``cluster_physics`` alone composes this chain, in plain floats (rates in
rad/s).  kappa and T are passed in; only ``TrapParams`` resolves the
calibrated kappa (``field_factor=None``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import constants as const
from .errors import InsufficientDataError

__all__ = [
    "RodGeometry",
    "MaterialParams",
    "GasParams",
    "TrapParams",
    "ClusterSample",
    "ClusterPhysics",
    "PowerLawFit",
    "polarizability",
    "calibrated_field_factor",
    "trap_depth",
    "min_power",
    "rods_from_pmin",
    "effective_radius",
    "cluster_mass",
    "damping_rate",
    "cluster_damping_rate",
    "cluster_physics",
    "gamma_pmin_exponent",
]


@dataclass(frozen=True)
class RodGeometry:
    """Single-rod geometry (meters)."""

    length: float = 35e-9
    diameter: float = 7e-9
    shell_thickness: float = 1.6e-9  # alkyl chains padding the drag cross-section

    def __post_init__(self):
        for name in ("length", "diameter", "shell_thickness"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def volume(self) -> float:
        """Bare rod volume (no alkyl shell)."""
        return np.pi * (self.diameter / 2.0) ** 2 * self.length

    @property
    def padded_radius(self) -> float:
        """Rod radius including the alkyl shell, used for drag."""
        return self.diameter / 2.0 + self.shell_thickness


@dataclass(frozen=True)
class MaterialParams:
    refractive_index: float = 2.34  # CdS at the trap wavelength
    density: float = 4826.0         # kg/m^3, bulk CdS

    def __post_init__(self):
        if self.refractive_index <= 1:
            raise ValueError("refractive_index must be > 1")
        if self.density <= 0:
            raise ValueError("density must be > 0")


@dataclass(frozen=True)
class GasParams:
    viscosity: float = 1.82e-5                   # Pa s, air
    mean_free_path: float = 68e-9                # m, air
    temperature: float = 296.0                   # K

    def __post_init__(self):
        for name in ("viscosity", "mean_free_path", "temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class TrapParams:
    """Trap beam parameters; ``field_factor`` maps power to peak squared field."""

    power: float = 0.36                        # W
    field_factor: float | None = None          # V^2 m^-2 W^-1; None -> calibrated

    def __post_init__(self):
        if self.power <= 0:
            raise ValueError("power must be > 0")
        if self.field_factor is None:
            object.__setattr__(self, "field_factor", calibrated_field_factor())
        if self.field_factor <= 0:
            raise ValueError("field_factor must be > 0")


@dataclass(frozen=True)
class ClusterSample:
    """N parallel rods in close packing, aligned along the optical axis."""

    n_rods: int = 64
    rod: RodGeometry = RodGeometry()
    material: MaterialParams = MaterialParams()

    def __post_init__(self):
        if self.n_rods < 1:
            raise ValueError("n_rods must be >= 1")


def polarizability(rod: RodGeometry | None = None,
                   material: MaterialParams | None = None,
                   n_rods: int = 1) -> float:
    """Scalar polarizability alpha = eps0 * V_rod * (n^2 - 1), times n_rods.

    Uses the bare rod volume (the alkyl shell is index-matched to air for
    trapping purposes and enters only the drag cross-section).
    """
    rod = rod or RodGeometry()
    material = material or MaterialParams()
    alpha1 = const.VACUUM_PERMITTIVITY * rod.volume * (material.refractive_index**2 - 1.0)
    return n_rods * alpha1


# Calibration datum of the field factor, not a default: the single-rod escape.
_CALIBRATION_POWER = 0.041  # W
_CALIBRATION_TEMPERATURE = 296.0  # K


def calibrated_field_factor() -> float:
    """Field factor kappa fixed so the reference bare rod has U0 = kB*T at
    the calibration datum above: escape at 41 mW and 296 K, whatever the
    configured gas temperature.

    This is a calibration standing in for the focal-field computation, not a
    first-principles constant; kappa ~ 3.7e15 V^2 m^-2 W^-1.
    """
    return (2.0 * const.BOLTZMANN * _CALIBRATION_TEMPERATURE
            / (polarizability() * _CALIBRATION_POWER))


def trap_depth(alpha: float, trap: TrapParams) -> float:
    """Trap depth U0 = (alpha/2) * kappa * P in joules; linear in power."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return 0.5 * alpha * trap.field_factor * trap.power


def min_power(alpha: float, temperature: float, field_factor: float) -> float:
    """Escape power P_min = 2*kB*T/(alpha*kappa), inverse in alpha.

    The particle is lost when the trap depth falls to kB*T.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return 2.0 * const.BOLTZMANN * temperature / (alpha * field_factor)


def rods_from_pmin(p_min: float) -> float:
    """Cluster size inferred from the escape power: N = 41 mW / P_min.

    Exact inverse of ``min_power`` at the calibration, where a single rod
    escapes at 41 mW, under the volume-additive polarizability model.
    Values below 1 (escape power above the single-rod point) are reported
    as-is with an out-of-model warning.  Note the model is naive: a measured
    escape at 22 mW maps to N ~ 1.9 even where independent evidence may
    demand a larger cluster.
    """
    if p_min <= 0:
        raise ValueError("p_min must be > 0")
    n_est = _CALIBRATION_POWER / p_min
    if n_est < 1.0:
        warnings.warn(
            f"P_min = {p_min:.3g} W exceeds the single-rod escape power; "
            f"inferred N = {n_est:.2f} < 1 is outside the cluster model",
            stacklevel=2,
        )
    return n_est


def effective_radius(cluster: ClusterSample) -> float:
    """Radius of the disc with the cluster's axial (z) drag cross-section.

    For the parallel close-packed bundle viewed along z the cross-section is N
    shell-padded rod discs: r_z = (d/2 + shell) * sqrt(N).
    """
    return cluster.rod.padded_radius * np.sqrt(cluster.n_rods)


def cluster_mass(cluster: ClusterSample) -> float:
    """m = N * density * V_rod (bare rod volume)."""
    return cluster.n_rods * cluster.material.density * cluster.rod.volume


def _slip_factor(knudsen: float) -> float:
    c_k = 0.31 * knudsen / (0.785 + 1.152 * knudsen + knudsen**2)
    return 0.619 / (0.619 + knudsen) * (1.0 + c_k)


def damping_rate(radius: float, mass: float, gas: GasParams) -> float:
    """Slip-corrected Stokes damping rate (rad/s) for cross-section radius and mass.

    Kn -> 0 recovers the continuum Stokes limit 6*pi*eta*r/m.
    """
    if radius <= 0 or mass <= 0:
        raise ValueError("radius and mass must be > 0")
    knudsen = gas.mean_free_path / radius
    return float(6.0 * np.pi * gas.viscosity * radius / mass * _slip_factor(knudsen))


def cluster_damping_rate(cluster: ClusterSample, gas: GasParams,
                         slip_at_single_rod: bool = True) -> float:
    """Axial damping rate Gamma (rad/s) of an N-rod cluster.

    With ``slip_at_single_rod`` (default) the Knudsen slip factor is held at
    its single-rod value, so the rate follows the pure geometric law
    Gamma(N) = Gamma(1)/sqrt(N) of the r/m proportionality; this reproduces
    both the observed sub-MHz cluster damping and the sqrt(P_min) scaling.
    Setting it False re-evaluates the slip factor at Kn(r_z(N)); in the
    free-molecular regime of these particles that nearly cancels the geometric
    scaling and is kept only for comparison.
    """
    if slip_at_single_rod:
        rod = cluster.rod
        single = damping_rate(rod.padded_radius, cluster.material.density * rod.volume, gas)
        return float(single / np.sqrt(cluster.n_rods))
    return damping_rate(effective_radius(cluster), cluster_mass(cluster), gas)


class ClusterPhysics(NamedTuple):
    """Trap physics of one cluster at a given trap and gas."""

    alpha: float                # polarizability, C m^2 / V
    mass: float                 # kg
    gamma: float                # gas damping rate, rad/s
    p_min: float                # escape power, W
    k_z: float                  # axial stiffness 2 U0 / w_z^2, N/m
    omega: float                # axial trap frequency, rad/s


def cluster_physics(cluster: ClusterSample, gas: GasParams, trap: TrapParams,
                    w_z: float) -> ClusterPhysics:
    """Polarizability -> escape power, damping, stiffness and trap frequency.

    ``w_z`` is the axial trap width of k_z = 2 U0 / w_z^2.  Raises
    ValueError unless w_z > 0 and k_z > 0 (the depth can underflow).
    """
    if w_z <= 0:
        raise ValueError("w_z must be > 0")
    alpha = polarizability(cluster.rod, cluster.material, n_rods=cluster.n_rods)
    mass = cluster_mass(cluster)
    k_z = 2.0 * trap_depth(alpha, trap) / w_z**2
    if k_z <= 0:
        raise ValueError("k_z must be > 0")
    return ClusterPhysics(
        alpha=alpha, mass=mass, gamma=cluster_damping_rate(cluster, gas),
        p_min=min_power(alpha, gas.temperature, trap.field_factor),
        k_z=k_z, omega=float(np.sqrt(k_z / mass)))


class PowerLawFit(NamedTuple):
    exponent: float
    std_error: float
    ci95: tuple[float, float]


def _t_quantile(p: float, dof: int) -> float:
    """Quantile at p in [0.5, 1) of Student's t with an integer ``dof`` >= 1.

    Bisects the closed-form P(|T| < t) over theta = arctan(t / sqrt(dof))
    (Abramowitz & Stegun 26.7.3-4): with c = cos(theta), it is
    sin(theta) (1 + c^2/2 + 1*3 c^4/(2*4) + ...) for even ``dof`` and
    (2/pi) (theta + sin(theta) c (1 + 2 c^2/3 + 2*4 c^4/(3*5) + ...)) for
    odd, each sum running to c^(dof - 2) or c^(dof - 3).
    """
    odd = dof % 2

    def central(theta):
        c2 = np.cos(theta) ** 2
        term, total = 1.0, 0.0
        for k in range(dof // 2):
            if k:
                term *= (2 * k - 1 + odd) / (2 * k + odd) * c2
            total += term
        if odd:
            return 2.0 / np.pi * (theta + np.sin(theta) * np.cos(theta) * total)
        return np.sin(theta) * total

    lo, hi = 0.0, np.pi / 2
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return float(np.sqrt(dof) * np.tan(mid))
        lo, hi = (mid, hi) if central(mid) < 2.0 * p - 1.0 else (lo, mid)


def gamma_pmin_exponent(samples: Iterable[tuple[float, float]]) -> PowerLawFit:
    """Least-squares slope of log Gamma_z versus log P_min with standard error.

    Requires at least 5 positive (P_min, Gamma_z) pairs.  The 95% interval
    is the slope -+ t(0.975, n - 2) standard errors.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 5:
        raise InsufficientDataError("need >= 5 (P_min, Gamma_z) samples")
    if np.any(data <= 0):
        raise ValueError("all P_min and Gamma_z values must be positive")

    log_p = np.log(data[:, 0])
    log_g = np.log(data[:, 1])
    A = np.column_stack([log_p, np.ones_like(log_p)])
    coef, res, *_ = np.linalg.lstsq(A, log_g, rcond=None)
    slope = float(coef[0])

    n = len(log_p)
    fitted = A @ coef
    ssr = float(np.sum((log_g - fitted) ** 2))
    dof = max(n - 2, 1)
    sxx = float(np.sum((log_p - log_p.mean()) ** 2))
    stderr = float(np.sqrt(ssr / dof / sxx)) if sxx > 0 else float("inf")
    half = _t_quantile(0.975, dof) * stderr
    return PowerLawFit(exponent=slope, std_error=stderr, ci95=(slope - half, slope + half))
