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

The writers of dataset artifacts return the sha256 of the bytes they wrote,
so a manifest needs no second read.  ``write_time_series`` takes a
``TimeSeries`` or ``SeriesBlocks`` and writes the header (the sample count
is known up front) and then each block as it arrives, so a trace never has
to exist whole.  Container payloads are read in blocks of ``_BLOCK_RECORDS``
records into bounded buffers: ``TimeSeriesReader`` serves sample ranges of
a time series through one reused buffer, and ``read_time_tags`` fills the
channel and timestamp arrays directly.  Payload values that the models
cannot have produced (non-finite samples or timestamps, channels other than
0 and 1, unsorted or out-of-window tags), and header or sidecar values of
the wrong type or range, raise ``MissingArtifactError`` like any other
corrupt artifact.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError
from .langevin import SeriesBlocks, TimeSeries
from .mirror_optics import ApertureImage, RadialProfile
from .photon_emitter import TimeTagStream

__all__ = [
    "write_image_csv", "read_image_csv",
    "write_profile_csv", "read_profile_csv",
    "write_time_series", "read_time_series", "TimeSeriesReader",
    "export_time_series_csv",
    "write_time_tags", "read_time_tags", "export_time_tags_csv",
    "read_time_tags_csv",
    "sha256_file",
]

_SERIES_MAGIC = b"PMS1"
_TAGS_MAGIC = b"PMT1"
_SERIES_DTYPE = np.dtype("<f8")
_TAG_DTYPE = np.dtype([("channel", "u1"), ("time", "<f8")])
# records per block of container payload reads and writes
_BLOCK_RECORDS = 1 << 20


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


def _finite_number(value) -> bool:
    """Whether a decoded JSON value is a finite number (not a bool)."""
    return type(value) in (int, float) and -np.inf < value < np.inf


def _write_bytes(path: Path, data: bytes) -> str:
    """Write ``data`` to ``path``; returns its sha256."""
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_image_csv(path, image: ApertureImage) -> tuple[str, str]:
    """Pixels as CSV plus the JSON sidecar; returns the sha256 of each."""
    path = Path(path)
    pixels = io.BytesIO()
    np.savetxt(pixels, image.pixels, delimiter=",", fmt="%.17g")
    meta = {
        "pixel_pitch_f": image.pixel_pitch,
        "center_px": list(image.center),
        "channel": image.channel,
        "shape": list(image.pixels.shape),
        "metadata": image.metadata,
    }
    sidecar = (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return (_write_bytes(path, pixels.getvalue()),
            _write_bytes(_sidecar(path), sidecar))


def read_image_csv(path) -> ApertureImage:
    path = Path(path)
    sidecar = _sidecar(path)
    if not path.exists() or not sidecar.exists():
        raise MissingArtifactError(f"image artifact incomplete: {path}")
    meta = _json_header(sidecar.read_bytes(), sidecar,
                        ("pixel_pitch_f", "channel", "center_px"))
    center, metadata = meta["center_px"], meta.get("metadata", {})
    if not _finite_number(meta["pixel_pitch_f"]):
        raise MissingArtifactError(f"artifact corrupt (header pixel_pitch_f): {sidecar}")
    if not (isinstance(center, list) and len(center) == 2
            and all(map(_finite_number, center))):
        raise MissingArtifactError(
            f"artifact corrupt (header center_px is not two numbers): {sidecar}")
    if not isinstance(metadata, dict) or not all(
            _finite_number(metadata[key]) for key in ("bore_radius_f", "rim_radius_f")
            if key in metadata):
        raise MissingArtifactError(f"artifact corrupt (header metadata): {sidecar}")
    try:
        pixels = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise MissingArtifactError(f"artifact corrupt (pixels): {path}: {exc}")
    try:
        return ApertureImage(pixels=pixels, pixel_pitch=meta["pixel_pitch_f"],
                             channel=meta["channel"], center=tuple(center),
                             metadata=metadata)
    except (ValueError, TypeError) as exc:
        raise MissingArtifactError(f"artifact corrupt ({exc}): {path}")


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


def _write_container(path: Path, magic: bytes, header: dict, blocks,
                     payload_bytes: int) -> str:
    """Write the header, then each payload block as it arrives.

    Returns the sha256 of the bytes written.  ``payload_bytes`` is what the
    header promises; blocks that sum to anything else raise ValueError.
    """
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    written = 0
    with open(path, "wb") as fh:
        for chunk in (magic, struct.pack("<I", len(blob)), blob):
            fh.write(chunk)
            digest.update(chunk)
        for block in blocks:
            fh.write(block)
            digest.update(block)
            written += block.nbytes
            del block
    if written != payload_bytes:
        raise ValueError(f"{path}: payload of {written} bytes, header promised "
                         f"{payload_bytes}")
    return digest.hexdigest()


def _read_header(fh, path: Path, magic: bytes, required: tuple[str, ...],
                 count_key: str, dtype: np.dtype) -> tuple[dict, int]:
    """Header and record count of an open container, positioned at the payload.

    Only the magic and the header are read; the payload size is checked
    against the ``count_key`` records the header announces.
    """
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
    return header, count


def _read_into(fh, out: np.ndarray, path: Path) -> np.ndarray:
    """Fill ``out`` with the next payload bytes of ``fh``."""
    if fh.readinto(out) != out.nbytes:
        raise MissingArtifactError(f"artifact truncated: {path}")
    return out


def _open(path: Path):
    if not path.exists():
        raise MissingArtifactError(f"artifact missing: {path}")
    return open(path, "rb")


def write_time_series(path, series: TimeSeries | SeriesBlocks) -> str:
    """Write a time-series container block by block; returns its sha256.

    A ``TimeSeries`` is written as views of its samples, through the same
    path as the blocks of a ``SeriesBlocks``.
    """
    if isinstance(series, TimeSeries):
        series = series.as_blocks()
    header = {
        "sample_interval_s": series.sample_interval,
        "units": series.units,
        "seed": series.seed,
        "n_samples": series.n_samples,
    }
    blocks = (np.ascontiguousarray(block, dtype=_SERIES_DTYPE)
              for block in series.blocks)
    return _write_container(Path(path), _SERIES_MAGIC, header, blocks,
                            series.n_samples * _SERIES_DTYPE.itemsize)


class TimeSeriesReader:
    """A time-series container open for reads of sample ranges.

    The magic, the header and the payload size are checked on opening.
    Each ``read`` fills one reused buffer, which it returns and which stays
    valid until the next read, so memory is bounded by the longest range
    read, however long the series.  A range holding a non-finite sample
    raises ``MissingArtifactError``.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = _open(self.path)
        try:
            header, self.n_samples = _read_header(
                self._fh, self.path, _SERIES_MAGIC,
                ("n_samples", "sample_interval_s"), "n_samples", _SERIES_DTYPE)
            self.sample_interval = header["sample_interval_s"]
            if not (_finite_number(self.sample_interval) and self.sample_interval > 0):
                raise MissingArtifactError(
                    f"artifact corrupt (header sample_interval_s): {self.path}")
        except BaseException:
            self._fh.close()
            raise
        self.units = header.get("units", "")
        self.seed = header.get("seed")
        self._payload_offset = self._fh.tell()
        self._buffer = np.empty(0, dtype=_SERIES_DTYPE)

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop), checked finite."""
        if len(self._buffer) < stop - start:
            self._buffer = np.empty(stop - start, dtype=_SERIES_DTYPE)
        samples = self._buffer[: stop - start]
        self._fh.seek(self._payload_offset + start * _SERIES_DTYPE.itemsize)
        _read_into(self._fh, samples, self.path)
        if not np.isfinite(samples).all():
            raise MissingArtifactError(
                f"artifact corrupt (non-finite sample in [{start}, {stop})): "
                f"{self.path}")
        return samples

    def mean(self) -> float:
        """Sample mean, summed over blocks of ``_BLOCK_RECORDS`` samples."""
        total = 0.0
        for start in range(0, self.n_samples, _BLOCK_RECORDS):
            total += float(np.sum(self.read(
                start, min(start + _BLOCK_RECORDS, self.n_samples))))
        return total / self.n_samples

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TimeSeriesReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_time_series(path) -> TimeSeries:
    """The whole time series in memory, read once through ``TimeSeriesReader``."""
    with TimeSeriesReader(path) as reader:
        samples = reader.read(0, reader.n_samples)
    return TimeSeries(sample_interval=reader.sample_interval, samples=samples,
                      units=reader.units, seed=reader.seed)


def write_time_tags(path, stream: TimeTagStream, configs: dict | None = None) -> str:
    """Write a time-tag container, packing records block by block; returns its sha256."""
    header = {
        "duration_s": stream.duration,
        "seed": stream.seed,
        "n_events": len(stream),
        "configs": configs or {},
        "metadata": stream.metadata,
    }

    def records():
        buffer = np.empty(min(len(stream), _BLOCK_RECORDS), dtype=_TAG_DTYPE)
        for start in range(0, len(stream), _BLOCK_RECORDS):
            block = buffer[: min(len(stream) - start, _BLOCK_RECORDS)]
            block["channel"] = stream.channels[start: start + len(block)]
            block["time"] = stream.timestamps[start: start + len(block)]
            yield block

    return _write_container(Path(path), _TAGS_MAGIC, header, records(),
                            len(stream) * _TAG_DTYPE.itemsize)


def _unpack_tags(fh, path: Path, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Channels and timestamps of the next ``count`` records of ``fh``.

    Records are read block by block into one buffer, which is freed on
    return, and unpacked straight into the two field arrays.
    """
    channels = np.empty(count, dtype=np.uint8)
    timestamps = np.empty(count, dtype=np.float64)
    buffer = np.empty(min(count, _BLOCK_RECORDS), dtype=_TAG_DTYPE)
    for start in range(0, count, _BLOCK_RECORDS):
        block = _read_into(fh, buffer[: min(count - start, _BLOCK_RECORDS)], path)
        channels[start: start + len(block)] = block["channel"]
        timestamps[start: start + len(block)] = block["time"]
    return channels, timestamps


def read_time_tags(path) -> TimeTagStream:
    """Read a time-tag container.

    A header duration_s that is not a finite number >= 0, header metadata
    that is not a mapping or whose repetition_rate is not a finite number
    > 0, NaN or infinite timestamps, and streams that break a
    ``TimeTagStream`` invariant (channels other than 0 and 1 among them)
    raise ``MissingArtifactError``.
    """
    path = Path(path)
    with _open(path) as fh:
        header, count = _read_header(fh, path, _TAGS_MAGIC,
                                     ("n_events", "duration_s"), "n_events",
                                     _TAG_DTYPE)
        channels, timestamps = _unpack_tags(fh, path, count)
    duration, metadata = header["duration_s"], header.get("metadata", {})
    if not (_finite_number(duration) and duration >= 0):
        raise MissingArtifactError(f"artifact corrupt (header duration_s): {path}")
    rate = metadata.get("repetition_rate", 1.0) if isinstance(metadata, dict) else None
    if not (_finite_number(rate) and rate > 0):
        raise MissingArtifactError(f"artifact corrupt (header metadata): {path}")
    if not np.isfinite(timestamps).all():
        raise MissingArtifactError(f"artifact corrupt (non-finite timestamp): {path}")
    try:
        return TimeTagStream(channels=channels, timestamps=timestamps,
                             duration=duration, seed=header.get("seed"),
                             metadata=metadata)
    except ValueError as exc:
        raise MissingArtifactError(f"artifact corrupt ({exc}): {path}")


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
    # checked before the uint8 cast, which would truncate 0.5 to 0
    if np.any(data[:, 0] != np.round(data[:, 0])):
        raise ValueError(f"time-tag CSV channel is not an integer 0 or 1: {path}")
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
