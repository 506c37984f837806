"""Dataset file formats.

- Aperture images: CSV matrix plus a JSON metadata sidecar (pixel pitch in
  units of focal length, center, channel).
- Radial profiles: two-column CSV (R, intensity), optional counts column.
- Time series: little-endian binary float64 array behind an embedded JSON
  header (sample interval, units, seed).
- Time tags: binary record stream (u8 channel, little-endian f64 timestamp in
  seconds) behind an embedded JSON header (duration, seed, configs); CSV
  export for interoperability.

Binary container layout: 4-byte magic, u32 little-endian header length,
UTF-8 JSON header, raw payload.

The writers of dataset artifacts return the sha256 of the file they wrote.
``write_time_series`` takes a ``TimeSeries`` or ``SeriesBlocks`` and writes
the header (the sample count is known up front) and then each block as it
arrives, hashing as it writes, so a trace never has to exist whole.
``write_time_tags`` takes a ``TimeTagStream`` or ``TagBlocks``, whose event
count is known only at the end: it writes a blank, fixed-width ``n_events``
field, fills it in after the last block and hashes the file in one re-read.
Each reader reads its file once, in order, hashing the bytes it parses, and
raises ``MissingArtifactError`` if given a ``sha256`` they do not match.
Container payloads are read in blocks of ``_BLOCK_RECORDS`` records:
``read_time_series`` and ``read_time_tags`` return the one-pass
``SeriesBlocks`` and ``TagBlocks`` that the writers consume.  Payload values
that the models cannot have produced (non-finite samples or timestamps,
channels other than 0 and 1, unsorted or out-of-window tags, also across
blocks), and header or sidecar values of the wrong type or range, raise
``MissingArtifactError`` like any other corrupt artifact.
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
from .photon_emitter import TagBlocks, TimeTagStream

__all__ = [
    "write_image_csv", "read_image_csv",
    "write_profile_csv",
    "write_time_series", "read_time_series",
    "write_time_tags", "read_time_tags", "export_time_tags_csv",
    "sha256_file",
]

_SERIES_MAGIC = b"PMS1"
_TAGS_MAGIC = b"PMT1"
_SERIES_DTYPE = np.dtype("<f8")
_TAG_DTYPE = np.dtype([("channel", "u1"), ("time", "<f8")])
# records per block of container payload reads and writes
_BLOCK_RECORDS = 1 << 18
# characters of the space-padded n_events field of a time-tag header
_COUNT_WIDTH = 20


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


def _check_digest(digest, sha256: str | None, path: Path) -> None:
    """Raise unless the bytes fed to ``digest`` hash to ``sha256`` (if given)."""
    if sha256 is not None and digest.hexdigest() != sha256:
        raise MissingArtifactError(f"artifact checksum mismatch: {path}")


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


def read_image_csv(path, sha256: str | None = None,
                   sidecar_sha256: str | None = None) -> ApertureImage:
    """Read an image and its sidecar once each; the bytes hashed are parsed."""
    path = Path(path)
    sidecar = _sidecar(path)
    if not path.exists() or not sidecar.exists():
        raise MissingArtifactError(f"image artifact incomplete: {path}")
    raw, meta_raw = path.read_bytes(), sidecar.read_bytes()
    _check_digest(hashlib.sha256(raw), sha256, path)
    _check_digest(hashlib.sha256(meta_raw), sidecar_sha256, sidecar)
    meta = _json_header(meta_raw, sidecar, ("pixel_pitch_f", "channel", "center_px"))
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
        pixels = np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2)
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
                 count_key: str, dtype: np.dtype, digest) -> tuple[dict, int]:
    """Header and record count of an open container, positioned at the payload.

    Only the magic and the header are read (into ``digest``); the payload
    size is checked against the ``count_key`` records the header announces.
    """
    head = fh.read(8)
    if len(head) < 8 or head[:4] != magic:
        raise MissingArtifactError(f"artifact corrupt (bad magic): {path}")
    (n,) = struct.unpack("<I", head[4:8])
    blob = fh.read(n)
    if len(blob) < n:
        raise MissingArtifactError(f"artifact truncated: {path}")
    digest.update(head)
    digest.update(blob)
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


def _payload_blocks(fh, path: Path, count: int, dtype: np.dtype, digest):
    """The next ``count`` records of ``fh``, fed to ``digest``, as blocks of
    ``_BLOCK_RECORDS`` in one reused buffer, each valid until the next."""
    buffer = np.empty(min(count, _BLOCK_RECORDS), dtype=dtype)
    for start in range(0, count, _BLOCK_RECORDS):
        block = buffer[: min(count - start, _BLOCK_RECORDS)]
        if fh.readinto(block) != block.nbytes:
            raise MissingArtifactError(f"artifact truncated: {path}")
        digest.update(block)
        yield block


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


def read_time_series(path, sha256: str | None = None) -> SeriesBlocks:
    """A time-series container as one in-order pass of blocks.

    The magic, the header and the payload size are checked on the call, each
    block is checked finite as it is read and ``sha256`` after the last one;
    a failed check raises ``MissingArtifactError``.
    """
    path = Path(path)

    def read():  # yields the header, then the blocks
        digest = hashlib.sha256()
        with _open(path) as fh:
            header, count = _read_header(fh, path, _SERIES_MAGIC,
                                         ("n_samples", "sample_interval_s"),
                                         "n_samples", _SERIES_DTYPE, digest)
            interval = header["sample_interval_s"]
            if not (_finite_number(interval) and interval > 0):
                raise MissingArtifactError(
                    f"artifact corrupt (header sample_interval_s): {path}")
            yield header, count
            start = 0
            for block in _payload_blocks(fh, path, count, _SERIES_DTYPE, digest):
                if not np.isfinite(block).all():
                    raise MissingArtifactError(
                        f"artifact corrupt (non-finite sample in "
                        f"[{start}, {start + len(block)})): {path}")
                start += len(block)
                yield block
        _check_digest(digest, sha256, path)

    blocks = read()
    header, count = next(blocks)
    return SeriesBlocks(header["sample_interval_s"], count, blocks,
                        header.get("units", ""), header.get("seed"))


def write_time_tags(path, stream: TimeTagStream | TagBlocks,
                    configs: dict | None = None) -> str:
    """Write a time-tag container block by block; returns its sha256.

    A ``TimeTagStream`` is written as one block, through the same path as
    the blocks of a ``TagBlocks``, whose event count is known only when
    they are used up: the header holds ``n_events`` as a JSON number
    space-padded to ``_COUNT_WIDTH`` characters, written over the blank
    field once the last block is, and recorded in ``stream.n_events``.  The
    finished file is then hashed in one re-read of fixed-size chunks.
    """
    if isinstance(stream, TimeTagStream):
        stream = stream.as_blocks()
    header = {
        "duration_s": stream.duration,
        "seed": stream.seed,
        "n_events": 0,
        "configs": configs or {},
        "metadata": stream.metadata,
    }
    # json.dumps escapes non-ASCII, so string offsets are byte offsets; the
    # top-level key sorts after every nested one and before "seed"
    text = json.dumps(header, sort_keys=True)
    field_at = text.rindex('"n_events": 0') + len('"n_events": ')
    blob = (text[:field_at] + " " * _COUNT_WIDTH + text[field_at + 1:]).encode("utf-8")
    path = Path(path)
    count = 0
    with open(path, "wb") as fh:
        fh.write(_TAGS_MAGIC + struct.pack("<I", len(blob)) + blob)
        buffer = np.empty(_BLOCK_RECORDS, dtype=_TAG_DTYPE)
        for channels, timestamps in stream.blocks:
            for start in range(0, len(timestamps), _BLOCK_RECORDS):
                block = buffer[: min(len(timestamps) - start, _BLOCK_RECORDS)]
                block["channel"] = channels[start: start + len(block)]
                block["time"] = timestamps[start: start + len(block)]
                fh.write(block)
            count += len(timestamps)
        fh.seek(8 + field_at)
        fh.write(f"{count:>{_COUNT_WIDTH}d}".encode("ascii"))
    if stream.n_events is not None and count != stream.n_events:
        raise ValueError(f"{path}: {count} events, the stream promised {stream.n_events}")
    stream.n_events = count
    return sha256_file(path)


def read_time_tags(path, sha256: str | None = None) -> TagBlocks:
    """A time-tag container as one in-order pass of blocks; ``len()`` is its
    header ``n_events``.

    The magic, the header and the payload size are checked on the call: a
    duration_s that is not a finite number >= 0, or metadata that is not a
    mapping or whose repetition_rate is not a finite number > 0, raise.
    Each block is checked as it is read (finite timestamps, channels 0 or
    1, timestamps non-decreasing, also across blocks, and within [0,
    duration_s]) and ``sha256`` after the last one; a failed check raises
    ``MissingArtifactError``.  When a block fails and ``sha256`` is given,
    the rest of the payload is hashed first, so that a stale digest is
    reported as one.
    """
    path = Path(path)

    def read():  # yields the header, then the blocks
        digest = hashlib.sha256()
        with _open(path) as fh:
            header, count = _read_header(fh, path, _TAGS_MAGIC,
                                         ("n_events", "duration_s"), "n_events",
                                         _TAG_DTYPE, digest)
            duration, metadata = header["duration_s"], header.get("metadata", {})
            if not (_finite_number(duration) and duration >= 0):
                raise MissingArtifactError(
                    f"artifact corrupt (header duration_s): {path}")
            rate = (metadata.get("repetition_rate", 1.0) if isinstance(metadata, dict)
                    else None)
            if not (_finite_number(rate) and rate > 0):
                raise MissingArtifactError(f"artifact corrupt (header metadata): {path}")
            yield header, count
            previous, start = 0.0, 0
            payload = _payload_blocks(fh, path, count, _TAG_DTYPE, digest)
            for block in payload:
                channels, timestamps = block["channel"].copy(), block["time"].copy()
                defect = TimeTagStream.defect(channels, timestamps, duration,
                                              previous)
                if defect is not None:
                    if sha256 is not None:
                        for _ in payload:
                            pass
                        _check_digest(digest, sha256, path)
                    raise MissingArtifactError(
                        f"artifact corrupt ({defect}, in records "
                        f"[{start}, {start + len(block)})): {path}")
                previous, start = timestamps[-1], start + len(block)
                yield channels, timestamps
        _check_digest(digest, sha256, path)

    blocks = read()
    header, count = next(blocks)
    return TagBlocks(duration=header["duration_s"], blocks=blocks,
                     seed=header.get("seed"), metadata=header.get("metadata", {}),
                     n_events=count)


def export_time_tags_csv(path, stream: TimeTagStream | TagBlocks) -> None:
    """``channel,timestamp_s`` rows, the timestamps as Python float reprs.

    Each run of up to ``_BLOCK_RECORDS`` events is written with one ``%``
    format.
    """
    if isinstance(stream, TimeTagStream):
        stream = stream.as_blocks()
    with open(path, "w") as fh:
        fh.write("channel,timestamp_s\n")
        for channels, timestamps in stream.blocks:
            for start in range(0, len(timestamps), _BLOCK_RECORDS):
                stop = start + _BLOCK_RECORDS
                rows = [None] * (2 * len(timestamps[start:stop]))
                rows[0::2] = channels[start:stop].tolist()
                rows[1::2] = timestamps[start:stop].tolist()
                fh.write("%d,%r\n" * (len(rows) // 2) % tuple(rows))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
