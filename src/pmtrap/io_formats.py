"""Dataset file formats.

- Aperture images: CSV matrix plus a JSON metadata sidecar (pixel pitch in
  units of focal length, center, channel).
- Radial profiles: two-column CSV (R, intensity), optional counts column.
- Time series: little-endian binary float64 array behind an embedded JSON
  header (sample interval, units, seed); CSV export for small runs.
- Time tags: binary record stream (u8 channel, little-endian f64 timestamp in
  seconds) behind an embedded JSON header (duration, seed, configs); CSV
  export for interoperability.

Binary container layout: 4-byte magic, u32 little-endian header length,
UTF-8 JSON header, raw payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError
from .langevin import TimeSeries
from .mirror_optics import ApertureImage, RadialProfile
from .photon_emitter import TimeTagStream

__all__ = [
    "write_image_csv", "read_image_csv",
    "write_profile_csv", "read_profile_csv",
    "write_time_series", "read_time_series", "export_time_series_csv",
    "write_time_tags", "read_time_tags", "export_time_tags_csv",
    "read_time_tags_csv",
    "sha256_file",
]

_SERIES_MAGIC = b"PMS1"
_TAGS_MAGIC = b"PMT1"
_SERIES_DTYPE = np.dtype("<f8")
_TAG_DTYPE = np.dtype([("channel", "u1"), ("time", "<f8")])


def _sidecar(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".json")


def _json_header(blob: bytes, path: Path, required: tuple[str, ...]) -> dict:
    """Decode a UTF-8 JSON mapping holding the ``required`` keys.

    Anything else marks a corrupt artifact.
    """
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MissingArtifactError(f"artifact corrupt (bad header): {path}: {exc}")
    if not isinstance(header, dict):
        raise MissingArtifactError(f"artifact corrupt (header not a mapping): {path}")
    missing = [key for key in required if key not in header]
    if missing:
        raise MissingArtifactError(
            f"artifact corrupt (header lacks {', '.join(missing)}): {path}")
    return header


def write_image_csv(path, image: ApertureImage) -> None:
    path = Path(path)
    np.savetxt(path, image.pixels, delimiter=",", fmt="%.17g")
    meta = {
        "pixel_pitch_f": image.pixel_pitch,
        "center_px": list(image.center),
        "channel": image.channel,
        "shape": list(image.pixels.shape),
        "metadata": image.metadata,
    }
    _sidecar(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def read_image_csv(path) -> ApertureImage:
    path = Path(path)
    sidecar = _sidecar(path)
    if not path.exists() or not sidecar.exists():
        raise MissingArtifactError(f"image artifact incomplete: {path}")
    meta = _json_header(sidecar.read_bytes(), sidecar,
                        ("pixel_pitch_f", "channel", "center_px"))
    try:
        pixels = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise MissingArtifactError(f"artifact corrupt (pixels): {path}: {exc}")
    return ApertureImage(pixels=pixels, pixel_pitch=meta["pixel_pitch_f"],
                         channel=meta["channel"],
                         center=tuple(meta["center_px"]),
                         metadata=meta.get("metadata", {}))


def write_profile_csv(path, profile: RadialProfile) -> None:
    path = Path(path)
    cols = [profile.radii, profile.intensities]
    header = "radius_f,intensity"
    if profile.counts is not None:
        cols.append(profile.counts)
        header += ",n_pixels"
    np.savetxt(path, np.column_stack(cols), delimiter=",", fmt="%.17g",
               header=header, comments="")


def read_profile_csv(path) -> RadialProfile:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"profile artifact missing: {path}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    counts = data[:, 2] if data.shape[1] > 2 else None
    return RadialProfile(radii=data[:, 0], intensities=data[:, 1], counts=counts)


def _write_container(path: Path, magic: bytes, header: dict,
                     payload: np.ndarray) -> None:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(memoryview(payload))


def _read_container(path: Path, magic: bytes, required: tuple[str, ...],
                    count_key: str, dtype: np.dtype) -> tuple[dict, np.ndarray]:
    """Header and payload of a container whose ``count_key`` records follow.

    Only the magic and the header are read before the payload size is
    checked against the record count; the payload is then read once,
    straight into the returned array.
    """
    if not path.exists():
        raise MissingArtifactError(f"artifact missing: {path}")
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8 or head[:4] != magic:
            raise MissingArtifactError(f"artifact corrupt (bad magic): {path}")
        (n,) = struct.unpack("<I", head[4:8])
        blob = fh.read(n)
        if len(blob) < n:
            raise MissingArtifactError(f"artifact truncated: {path}")
        header = _json_header(blob, path, required)
        count = header[count_key]
        if type(count) is not int or count < 0:
            raise MissingArtifactError(
                f"artifact corrupt (header {count_key} is not a count): {path}")
        payload_bytes = os.fstat(fh.fileno()).st_size - (8 + n)
        if payload_bytes != count * dtype.itemsize:
            raise MissingArtifactError(
                f"artifact truncated (payload holds {payload_bytes} bytes, "
                f"header {count_key} needs {count * dtype.itemsize}): {path}")
        return header, np.fromfile(fh, dtype=dtype, count=count)


def write_time_series(path, series: TimeSeries) -> None:
    header = {
        "sample_interval_s": series.sample_interval,
        "units": series.units,
        "seed": series.seed,
        "n_samples": len(series.samples),
    }
    payload = np.ascontiguousarray(series.samples, dtype=_SERIES_DTYPE)
    _write_container(Path(path), _SERIES_MAGIC, header, payload)


def read_time_series(path) -> TimeSeries:
    header, samples = _read_container(Path(path), _SERIES_MAGIC,
                                      ("n_samples", "sample_interval_s"),
                                      "n_samples", _SERIES_DTYPE)
    return TimeSeries(sample_interval=header["sample_interval_s"],
                      samples=samples, units=header.get("units", ""),
                      seed=header.get("seed"))


def write_time_tags(path, stream: TimeTagStream, configs: dict | None = None) -> None:
    header = {
        "duration_s": stream.duration,
        "seed": stream.seed,
        "n_events": len(stream),
        "configs": configs or {},
        "metadata": stream.metadata,
    }
    records = np.empty(len(stream), dtype=_TAG_DTYPE)
    records["channel"] = stream.channels
    records["time"] = stream.timestamps
    _write_container(Path(path), _TAGS_MAGIC, header, records)


def read_time_tags(path) -> TimeTagStream:
    header, records = _read_container(Path(path), _TAGS_MAGIC,
                                      ("n_events", "duration_s"),
                                      "n_events", _TAG_DTYPE)
    return TimeTagStream(channels=records["channel"].copy(),
                         timestamps=records["time"].copy(),
                         duration=header["duration_s"],
                         seed=header.get("seed"),
                         metadata=header.get("metadata", {}))


def export_time_tags_csv(path, stream: TimeTagStream) -> None:
    with open(path, "w") as fh:
        fh.write("channel,timestamp_s\n")
        for ch, t in zip(stream.channels, stream.timestamps):
            fh.write(f"{int(ch)},{float(t)!r}\n")


def export_time_series_csv(path, series: TimeSeries) -> None:
    """Two-column CSV alternative for small runs."""
    t = np.arange(len(series.samples)) * series.sample_interval
    np.savetxt(path, np.column_stack([t, series.samples]), delimiter=",",
               fmt="%.17g", header=f"time_s,signal_{series.units}", comments="")


def read_time_tags_csv(path, duration: float | None = None) -> TimeTagStream:
    """Import externally produced channel/timestamp CSV data."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"time-tag CSV missing: {path}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    channels = data[:, 0].astype(np.uint8)
    timestamps = data[:, 1]
    order = np.argsort(timestamps, kind="stable")
    if duration is None:
        duration = float(timestamps.max()) if len(timestamps) else 0.0
    return TimeTagStream(channels=channels[order], timestamps=timestamps[order],
                         duration=duration)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
