"""Experiment configuration: YAML schema, validation, run manifests.

The config file is a nested key-value YAML document (comments allowed).  The
domain dataclasses are the single source of the schema: each section is one
dataclass, its keys are the dataclass fields renamed only by the unit suffix
in ``_UNIT_SUFFIX`` (``focal_length`` -> ``focal_length_m``), and its defaults
are the dataclass defaults, with no table of values here.  Every section is
validated by its type's own invariants, and the time step must resolve the
configured cluster's motion (``langevin.check_time_step``); unknown keys are
rejected with field-level diagnostics.  ``field_factor: null`` selects the
calibrated value (a single bare rod escapes at 41 mW and 296 K) and
``auger_pair_prob: null`` the cluster-size law.  Fields in ``_LINKED`` take another section's value:
the detection chain takes the mirror section, so ``mirror.reflectivity`` is
the only reflectivity knob, and the emitter takes ``cluster.n_rods``.

Schema (defaults shown by ``default_config_yaml()``):

    seed                 root RNG seed, 0 <= seed < 2**32; streams derive from it
    output_dir           default dataset directory
    mirror               focal_length_m, aperture_radius_m, bore_radius_m,
                         reflectivity
    rod                  length_m, diameter_m, shell_thickness_m
    material             refractive_index, density_kg_m3
    gas                  viscosity_pa_s, mean_free_path_m, temperature_k
    trap                 power_w, field_factor (null=calibrated)
    cluster              n_rods
    emitter              quantum_yield, auger_pair_prob (null=size law),
                         independent_emitters, grey_level (grey state's
                         emission relative to the bright one; 1 = steady,
                         0 = dark-state bursts), bright_dwell_s, grey_dwell_s
    excitation           repetition_rate_hz, average_power_w,
                         saturation_power_w
    detection            apd_quantum_efficiency, setup_transmission, a_pi,
                         splitter_ratio
    simulation           time_step_s, duration_s, detector_gain_v_per_m,
                         detector_noise_floor, axial_width_m
    acquisition          duration_s (time-tag stream length)
    image                n_pixels, half_extent_f, noise_rms_fraction
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import stat
import time
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, MissingArtifactError
from .io_formats import _finite_number, sha256_file, write_json
from .langevin import SimConfig, TrapStiffness, check_time_step
from .mirror_optics import DEFAULT_HALF_EXTENT, DEFAULT_N_PIXELS, MirrorGeometry
from .photon_emitter import DetectionChain, EmitterModel, ExcitationConfig
from .trap_mechanics import (
    ClusterSample,
    GasParams,
    MaterialParams,
    RodGeometry,
    TrapParams,
    cluster_damping_rate,
    cluster_mass,
    min_power,
    polarizability,
    trap_depth,
)

__all__ = [
    "AcquisitionConfig",
    "ClusterPhysics",
    "ExperimentConfig",
    "ImageConfig",
    "RunManifest",
    "default_config_yaml",
    "load_config",
    "dump_config",
    "parse_config",
    "config_hash",
    "write_manifest",
    "verify_manifest",
]


@dataclass(frozen=True)
class AcquisitionConfig:
    """Length of the simulated time-tag stream."""

    duration: float = 10.0  # s

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


@dataclass(frozen=True)
class ImageConfig:
    """Synthetic aperture images: grid, extent and camera noise."""

    n_pixels: int = DEFAULT_N_PIXELS
    half_extent: float = DEFAULT_HALF_EXTENT  # units of the focal length
    noise_rms_fraction: float = 0.02          # of the noiseless image maximum

    def __post_init__(self):
        if self.n_pixels < 16:
            raise ValueError("n_pixels must be >= 16")
        if self.half_extent <= 0:
            raise ValueError("half_extent must be > 0")
        if not 0 <= self.noise_rms_fraction < 1:
            raise ValueError("noise_rms_fraction must be in [0, 1)")


class ClusterPhysics(typing.NamedTuple):
    """Trap physics of one cluster at the configured trap and gas."""

    alpha: float                # polarizability, C m^2 / V
    mass: float                 # kg
    gamma: float                # gas damping rate, rad/s
    p_min: float                # escape power, W
    stiffness: TrapStiffness
    omega: float                # axial trap frequency, rad/s


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration; fields mirror the YAML sections."""

    mirror: MirrorGeometry
    rod: RodGeometry
    material: MaterialParams
    gas: GasParams
    trap: TrapParams
    cluster: ClusterSample
    emitter: EmitterModel
    excitation: ExcitationConfig
    detection: DetectionChain
    simulation: SimConfig
    acquisition: AcquisitionConfig
    image: ImageConfig
    seed: int = 12345
    output_dir: str = "runs/default"
    raw: dict = field(compare=False, repr=False, default_factory=dict)

    def cluster_physics(self, n_rods: int | None = None,
                        w_z: float | None = None) -> ClusterPhysics:
        """Polarizability -> escape power, damping and stiffness of a cluster.

        ``n_rods`` defaults to the configured cluster and ``w_z`` to
        ``simulation.axial_width``.
        """
        cluster = (self.cluster if n_rods is None
                   else dataclasses.replace(self.cluster, n_rods=n_rods))
        alpha = polarizability(self.rod, self.material, n_rods=cluster.n_rods)
        mass = cluster_mass(cluster)
        stiffness = TrapStiffness.from_trap_depth(
            trap_depth(alpha, self.trap),
            w_z=self.simulation.axial_width if w_z is None else w_z)
        return ClusterPhysics(
            alpha=alpha, mass=mass,
            gamma=cluster_damping_rate(cluster, self.gas).rad_per_s,
            p_min=min_power(alpha, self.gas.temperature, self.trap.field_factor),
            stiffness=stiffness, omega=float(np.sqrt(stiffness.k_z / mass)))


# YAML key = dataclass field name + unit suffix; the only renaming rule.
_UNIT_SUFFIX = {
    "focal_length": "_m", "aperture_radius": "_m", "bore_radius": "_m",
    "length": "_m", "diameter": "_m", "shell_thickness": "_m",
    "mean_free_path": "_m", "axial_width": "_m",
    "density": "_kg_m3", "viscosity": "_pa_s", "temperature": "_k",
    "power": "_w", "average_power": "_w", "saturation_power": "_w",
    "repetition_rate": "_hz", "detector_gain": "_v_per_m",
    "bright_dwell": "_s", "grey_dwell": "_s", "time_step": "_s",
    "duration": "_s",
    "half_extent": "_f",
}

# Fields set from another section instead of a YAML key of their own:
# (section, field) -> (source section or None for the root, attribute or
# None for the whole section).
_LINKED = {
    ("cluster", "rod"): ("rod", None),
    ("cluster", "material"): ("material", None),
    ("emitter", "n_rods"): ("cluster", "n_rods"),
    ("detection", "mirror"): ("mirror", None),
    ("simulation", "seed"): (None, "seed"),
}


class _Leaf(typing.NamedTuple):
    field: str
    type: object
    default: object


def _leaves(section: str | None, cls) -> dict:
    """YAML key -> leaf for the configurable fields of one dataclass."""
    hints = typing.get_type_hints(cls)
    leaves = {}
    for f in dataclasses.fields(cls):
        if (section, f.name) in _LINKED or f.name in _SECTIONS or f.name == "raw":
            continue
        leaves[f.name + _UNIT_SUFFIX.get(f.name, "")] = _Leaf(
            f.name, hints[f.name], f.default)
    return leaves


_SECTIONS = {name: tp for name, tp in typing.get_type_hints(ExperimentConfig).items()
             if dataclasses.is_dataclass(tp)}
_ROOT = _leaves(None, ExperimentConfig)
_SCHEMA = {name: _leaves(name, cls) for name, cls in _SECTIONS.items()}


def _defaults() -> dict:
    defaults = {key: leaf.default for key, leaf in _ROOT.items()}
    for name, leaves in _SCHEMA.items():
        defaults[name] = {key: leaf.default for key, leaf in leaves.items()}
    return defaults


def default_config_yaml() -> str:
    """The documented default configuration, serialized to YAML."""
    return yaml.safe_dump(_defaults(), sort_keys=True, default_flow_style=False)


def _check_unknown(section: str, data: dict, allowed, errors: list) -> None:
    for key in data:
        if key not in allowed:
            errors.append(f"{section}: unknown key {key!r}")


def _typed(where: str, leaf: _Leaf, value, errors: list):
    """Check a YAML value against its field type; ints pass as floats.

    Numbers must be finite, bool leaves take only YAML booleans and str
    leaves only strings.
    """
    if leaf.type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{where} must be an integer")
        elif not _finite_number(value):
            errors.append(f"{where} must be a finite number")
        return value
    if leaf.type in (float, float | None):
        if value is None and leaf.type is not float:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{where} must be a number")
        elif not _finite_number(value):
            errors.append(f"{where} must be a finite number")
        else:
            return float(value)
        return value
    if leaf.type is bool and not isinstance(value, bool):
        errors.append(f"{where} must be true or false")
    if leaf.type is str and not isinstance(value, str):
        errors.append(f"{where} must be a string")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig.

    Collects one diagnostic per offending field before raising ConfigError.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping", ["root: not a mapping"])
    errors: list[str] = []
    canonical = _defaults()
    _check_unknown("root", raw, set(canonical), errors)
    for name in _ROOT:
        canonical[name] = raw.get(name, canonical[name])
    for name in _SECTIONS:
        value = raw.get(name)
        if value is None:
            continue
        if not isinstance(value, dict):
            errors.append(f"{name}: expected a mapping")
            continue
        _check_unknown(name, value, set(_SCHEMA[name]), errors)
        canonical[name].update({k: v for k, v in value.items() if k in _SCHEMA[name]})

    root = types.SimpleNamespace(**{
        leaf.field: _typed(f"{key}:", leaf, canonical[key], errors)
        for key, leaf in _ROOT.items()})
    # seeding takes the root seed modulo 2**32: a wider one would alias
    if (type(root.seed) is int and _finite_number(root.seed)
            and not 0 <= root.seed < 2**32):
        errors.append("seed: must be in [0, 2**32)")
    built = {}
    for name, cls in _SECTIONS.items():
        built[name] = None
        n_errors = len(errors)
        values = {leaf.field: _typed(f"{name}: {key}", leaf, canonical[name][key], errors)
                  for key, leaf in _SCHEMA[name].items()}
        linked = _linked(name, built, root)
        if linked is None or len(errors) > n_errors:
            continue  # already diagnosed here or in a source section
        try:
            built[name] = cls(**values, **linked)
        except (ValueError, TypeError) as exc:
            errors.append(f"{name}: {_keyed(name, str(exc))}")

    if not errors:  # across sections: a time step that resolves the cluster's motion
        config = ExperimentConfig(**built, **vars(root), raw=canonical)
        section = "cluster"  # whose physics fails if k_z or the mass underflows
        try:
            physics = config.cluster_physics()
            section = "simulation"
            check_time_step(config.simulation.time_step, physics.gamma, physics.omega)
        except ValueError as exc:
            errors.append(f"{section}: {_keyed(section, str(exc))}")
    if errors:
        raise ConfigError(f"{len(errors)} config error(s)", errors)
    return config


def _keyed(name: str, message: str) -> str:
    """``message`` of section ``name``'s dataclass, its field names as YAML keys.

    Whole words only: ``power`` becomes ``power_w``, but ``powers`` stays.
    """
    keys = {leaf.field: key for key, leaf in _SCHEMA[name].items()}
    return re.sub(r"\w+", lambda word: keys.get(word[0], word[0]), message)


def _linked(name: str, built: dict, root) -> dict | None:
    """The linked fields of section ``name``; None if a source section failed."""
    values = {}
    for (section, fname), (source, attr) in _LINKED.items():
        if section == name:
            obj = root if source is None else built[source]
            if obj is None:
                return None
            values[fname] = obj if attr is None else getattr(obj, attr)
    return values


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}",
                          [f"path: {path} does not exist"])
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}",
                          [f"yaml: {exc}"])
    if raw is None:
        raw = {}
    return parse_config(raw)


def dump_config(config: ExperimentConfig) -> str:
    """Serialize back to YAML; parse(dump(parse(x))) == parse(x)."""
    return yaml.safe_dump(config.raw, sort_keys=True, default_flow_style=False)


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.raw, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    toolkit_version: str
    seed: int
    artifacts: dict          # name -> {"sha256": ..., "bytes": ...}
    wall_clock_utc: str
    elapsed_s: float


def write_manifest(directory, config: ExperimentConfig, digests,
                   elapsed_s: float) -> RunManifest:
    """Write manifest.json (the completion marker) over written artifacts.

    ``digests`` maps each artifact name to the sha256 its writer returned,
    so no artifact is read again; only its size is taken from the file.
    """
    directory = Path(directory)
    artifacts = {}
    for name, sha256 in digests.items():
        path = directory / name
        if not path.exists():
            raise MissingArtifactError(f"cannot manifest missing artifact {name}")
        artifacts[name] = {"sha256": sha256, "bytes": path.stat().st_size}
    manifest = RunManifest(
        config_hash=config_hash(config), toolkit_version=__version__,
        seed=config.seed, artifacts=artifacts,
        wall_clock_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        elapsed_s=elapsed_s)
    write_json(directory / "manifest.json", dataclasses.asdict(manifest))
    return manifest


def _artifact_path(directory: Path, name: str) -> Path:
    """``directory / name`` if ``name`` is a plain file name of a regular file there.

    A name with a path separator, ``.``, ``..`` or a symbolic link could
    point outside the dataset, and a device or FIFO could be read forever.
    """
    if name in ("", ".", "..") or {os.sep, os.altsep, "\0"} & set(name):
        raise MissingArtifactError(
            f"manifest.json corrupt: artifact {name!r} is not a plain file name")
    path = directory / name
    try:
        mode = path.lstat().st_mode
    except FileNotFoundError:
        raise MissingArtifactError(f"artifact missing: {name}")
    if not stat.S_ISREG(mode):
        raise MissingArtifactError(f"artifact is not a regular file: {name}")
    return path


def verify_manifest(directory, parsed=()) -> dict:
    """Check manifest presence and shape; returns the manifest.

    The manifest must be a JSON object whose ``artifacts`` mapping gives each
    artifact a ``sha256`` string and lists every name in ``parsed``.  Each
    artifact name must be a plain file name of a regular file in
    ``directory``.  Only the artifacts not in ``parsed`` are hashed here:
    the caller's ``io_formats`` readers hash those as they parse them.
    """
    directory = Path(directory)
    path = directory / "manifest.json"
    if not path.exists():
        raise MissingArtifactError(f"manifest.json missing in {directory}")
    try:
        manifest = json.loads(path.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise MissingArtifactError(f"manifest.json corrupt: {exc}")
    artifacts = manifest.get("artifacts") if isinstance(manifest, dict) else None
    if not isinstance(artifacts, dict):
        raise MissingArtifactError("manifest.json corrupt: no artifacts mapping")
    for name in parsed:
        if name not in artifacts:
            raise MissingArtifactError(f"manifest.json does not list {name}")
    for name, entry in artifacts.items():
        if not (isinstance(entry, dict) and isinstance(entry.get("sha256"), str)):
            raise MissingArtifactError(f"manifest.json corrupt: no sha256 for {name}")
        artifact = _artifact_path(directory, name)
        if name not in parsed and sha256_file(artifact) != entry["sha256"]:
            raise MissingArtifactError(f"artifact checksum mismatch: {name}")
    return manifest
