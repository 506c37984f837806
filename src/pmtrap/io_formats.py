"""Dataset file formats.

- Aperture images: row-major little-endian float64 pixels behind an embedded
  JSON header (pixel pitch in units of focal length, center, channel, shape,
  metadata).
- Time series: little-endian binary float64 array behind an embedded JSON
  header (sample interval, units, seed).
- Time tags: binary record stream (u8 channel, little-endian f64 timestamp in
  seconds) behind an embedded JSON header (duration, seed, configs); CSV
  export for interoperability.

Binary container layout: 4-byte magic, u32 little-endian header length,
UTF-8 JSON header, raw payload.

The writers of dataset artifacts return the sha256 of the file they wrote.
The container writers and the CSV export read any stream the same way, one
block at a time: a ``TimeSeries`` or ``TimeTagStream`` is a stream of one
block, a ``SeriesBlocks`` or ``TagBlocks`` one of many, and each stream
checks that its blocks hold the count it promised.  ``write_time_series``
writes the header (the sample count is known up front) and then each block
as it arrives, hashing as it writes, so a trace never has to exist whole.
``write_time_tags`` takes a stream whose event count may be known only at
the end: it writes a blank, fixed-width ``n_events`` field, fills it in
after the last block and hashes the file in one re-read.
Each reader reads its file once, in order, hashing the bytes it parses, and
raises ``MissingArtifactError`` if given a ``sha256`` they do not match.
All three readers share one container pass (``_read_container``), which
reads the payload in blocks of ``_BLOCK_RECORDS`` records; ``read_time_series``
and ``read_time_tags`` return the one-pass ``SeriesBlocks`` and ``TagBlocks``
that the writers consume, and ``read_image`` copies the blocks into one
array.  Payload values that the models cannot have produced (non-finite
samples, timestamps or pixels, negative pixels, channels other than 0 and 1,
unsorted or out-of-window tags, also across blocks), and header values of the
wrong type or range, raise ``MissingArtifactError`` like any other corrupt
artifact; a reader given a ``sha256`` that finds a bad block hashes the rest
of the payload first, so that a stale digest is reported as one.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError
from .langevin import SeriesBlocks, TimeSeries
from .mirror_optics import ApertureImage
from .photon_emitter import TagBlocks, TimeTagStream

__all__ = [
    "write_image", "read_image",
    "write_time_series", "read_time_series",
    "write_time_tags", "read_time_tags", "export_time_tags_csv",
    "sha256_file",
]

_IMAGE_MAGIC = b"PMI1"
_SERIES_MAGIC = b"PMS1"
_TAGS_MAGIC = b"PMT1"
_F8_DTYPE = np.dtype("<f8")
_TAG_DTYPE = np.dtype([("channel", "u1"), ("time", "<f8")])
# records per block of container payload reads and writes
_BLOCK_RECORDS = 1 << 18
# characters of the space-padded n_events field of a time-tag header
_COUNT_WIDTH = 20


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


def _check_digest(digest, sha256: str | None, path: Path) -> None:
    """Raise unless the bytes fed to ``digest`` hash to ``sha256`` (if given)."""
    if sha256 is not None and digest.hexdigest() != sha256:
        raise MissingArtifactError(f"artifact checksum mismatch: {path}")


def _write_container(path: Path, magic: bytes, header: dict, blocks) -> str:
    """Write the header, then each payload block as it arrives.

    Returns the sha256 of the bytes written.
    """
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in (magic, struct.pack("<I", len(blob)), blob):
            fh.write(chunk)
            digest.update(chunk)
        for block in blocks:
            fh.write(block)
            digest.update(block)
    return digest.hexdigest()


def _read_container(path: Path, magic: bytes, count_key: str,
                    required: tuple[str, ...], dtype: np.dtype, sha256: str | None):
    """Yields the header and its ``count_key`` record count, then the payload
    as blocks of ``_BLOCK_RECORDS`` records in one reused buffer, each valid
    until the next.

    The magic, the header (which must hold ``count_key`` and ``required``)
    and the payload size are checked before the first yield.  Every byte
    read is hashed, and the hash checked against ``sha256`` after the last
    block; a failed check raises ``MissingArtifactError``.
    """
    if not path.exists():
        raise MissingArtifactError(f"artifact missing: {path}")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8 or head[:4] != magic:
            raise MissingArtifactError(f"artifact corrupt (bad magic): {path}")
        (n,) = struct.unpack("<I", head[4:8])
        blob = fh.read(n)
        if len(blob) < n:
            raise MissingArtifactError(f"artifact truncated: {path}")
        digest.update(head)
        digest.update(blob)
        header = _json_header(blob, path, (count_key, *required))
        count = header[count_key]
        if type(count) is not int or count < 0:
            raise MissingArtifactError(
                f"artifact corrupt (header {count_key} is not a count): {path}")
        payload_bytes = os.fstat(fh.fileno()).st_size - (8 + n)
        if payload_bytes != count * dtype.itemsize:
            raise MissingArtifactError(
                f"artifact truncated (payload holds {payload_bytes} bytes, "
                f"header {count_key} needs {count * dtype.itemsize}): {path}")
        yield header, count
        buffer = np.empty(min(count, _BLOCK_RECORDS), dtype=dtype)
        for start in range(0, count, _BLOCK_RECORDS):
            block = buffer[: min(count - start, _BLOCK_RECORDS)]
            if fh.readinto(block) != block.nbytes:
                raise MissingArtifactError(f"artifact truncated: {path}")
            digest.update(block)
            yield block
    _check_digest(digest, sha256, path)


def write_image(path, image: ApertureImage) -> str:
    """Write an image container, pixels row-major; returns its sha256."""
    header = {
        "pixel_pitch_f": image.pixel_pitch,
        "center_px": list(image.center),
        "channel": image.channel,
        "shape": list(image.pixels.shape),
        "metadata": image.metadata,
        "n_pixels": image.pixels.size,
    }
    pixels = np.ascontiguousarray(image.pixels, dtype=_F8_DTYPE)
    return _write_container(Path(path), _IMAGE_MAGIC, header, [pixels])


def read_image(path, sha256: str | None = None) -> ApertureImage:
    """An image container, read and hashed once, its blocks copied into one
    array.

    ``sha256`` is checked first; then the header (a finite pixel_pitch_f > 0,
    a known channel, center_px as two finite numbers, a metadata mapping
    whose bore and rim radii are finite numbers, and a shape of two positive
    ints whose product is n_pixels) and the pixels (finite and >= 0).  A
    failed check raises ``MissingArtifactError``.
    """
    path = Path(path)
    records = _read_container(path, _IMAGE_MAGIC, "n_pixels",
                              ("pixel_pitch_f", "channel", "center_px", "shape"),
                              _F8_DTYPE, sha256)
    header, count = next(records)
    pixels, start = np.empty(count, dtype=_F8_DTYPE), 0
    for block in records:
        pixels[start: start + len(block)] = block
        start += len(block)
    shape, center = header["shape"], header["center_px"]
    metadata = header.get("metadata", {})
    if not _finite_number(header["pixel_pitch_f"]):
        raise MissingArtifactError(f"artifact corrupt (header pixel_pitch_f): {path}")
    if not (isinstance(center, list) and len(center) == 2
            and all(map(_finite_number, center))):
        raise MissingArtifactError(
            f"artifact corrupt (header center_px is not two numbers): {path}")
    if not isinstance(metadata, dict) or not all(
            _finite_number(metadata[key]) for key in ("bore_radius_f", "rim_radius_f")
            if key in metadata):
        raise MissingArtifactError(f"artifact corrupt (header metadata): {path}")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n > 0 for n in shape)
            and shape[0] * shape[1] == count):
        raise MissingArtifactError(
            f"artifact corrupt (header shape is not two positive counts "
            f"of n_pixels): {path}")
    try:
        return ApertureImage(pixels=pixels.reshape(shape),
                             pixel_pitch=header["pixel_pitch_f"],
                             channel=header["channel"], center=tuple(center),
                             metadata=metadata)
    except (ValueError, TypeError) as exc:
        raise MissingArtifactError(f"artifact corrupt ({exc}): {path}")


def write_time_series(path, series: TimeSeries | SeriesBlocks) -> str:
    """Write a time-series container block by block; returns its sha256."""
    header = {
        "sample_interval_s": series.sample_interval,
        "units": series.units,
        "seed": series.seed,
        "n_samples": series.n_samples,
    }
    blocks = (np.ascontiguousarray(block, dtype=_F8_DTYPE)
              for block in series.blocks)
    return _write_container(Path(path), _SERIES_MAGIC, header, blocks)


def read_time_series(path, sha256: str | None = None) -> SeriesBlocks:
    """A time-series container as one in-order pass of blocks.

    The magic, the header and the payload size are checked on the call, each
    block is checked finite as it is read and ``sha256`` after the last one;
    a failed check raises ``MissingArtifactError``.  When a block fails and
    ``sha256`` is given, the rest of the payload is hashed first, so that a
    stale digest is reported as one.
    """
    path = Path(path)
    records = _read_container(path, _SERIES_MAGIC, "n_samples", ("sample_interval_s",),
                              _F8_DTYPE, sha256)
    header, count = next(records)
    interval = header["sample_interval_s"]
    if not (_finite_number(interval) and interval > 0):
        raise MissingArtifactError(
            f"artifact corrupt (header sample_interval_s): {path}")

    def blocks():
        start, finite = 0, np.empty(min(count, _BLOCK_RECORDS), dtype=bool)
        for block in records:
            if not np.isfinite(block, out=finite[: len(block)]).all():
                if sha256 is not None:
                    for _ in records:
                        pass
                raise MissingArtifactError(
                    f"artifact corrupt (non-finite sample in "
                    f"[{start}, {start + len(block)})): {path}")
            start += len(block)
            yield block

    return SeriesBlocks(interval, count, blocks(), header.get("units", ""),
                        header.get("seed"))


def write_time_tags(path, stream: TimeTagStream | TagBlocks,
                    configs: dict | None = None) -> str:
    """Write a time-tag container block by block; returns its sha256.

    The event count of a ``TagBlocks`` may be known only when its blocks
    are used up: the header holds ``n_events`` as a JSON number space-padded
    to ``_COUNT_WIDTH`` characters, written over the blank field once the
    last block is.  The finished file is then hashed in one re-read of
    fixed-size chunks.
    """
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
    with open(path, "wb") as fh:
        fh.write(_TAGS_MAGIC + struct.pack("<I", len(blob)) + blob)
        buffer = np.empty(_BLOCK_RECORDS, dtype=_TAG_DTYPE)
        for channels, timestamps in stream.blocks:
            for start in range(0, len(timestamps), _BLOCK_RECORDS):
                block = buffer[: min(len(timestamps) - start, _BLOCK_RECORDS)]
                block["channel"] = channels[start: start + len(block)]
                block["time"] = timestamps[start: start + len(block)]
                fh.write(block)
        fh.seek(8 + field_at)
        fh.write(f"{stream.n_events:>{_COUNT_WIDTH}d}".encode("ascii"))
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
    records = _read_container(path, _TAGS_MAGIC, "n_events", ("duration_s",),
                              _TAG_DTYPE, sha256)
    header, count = next(records)
    duration, metadata = header["duration_s"], header.get("metadata", {})
    if not (_finite_number(duration) and duration >= 0):
        raise MissingArtifactError(f"artifact corrupt (header duration_s): {path}")
    rate = metadata.get("repetition_rate", 1.0) if isinstance(metadata, dict) else None
    if not (_finite_number(rate) and rate > 0):
        raise MissingArtifactError(f"artifact corrupt (header metadata): {path}")

    def blocks():
        previous, start = 0.0, 0
        for block in records:
            channels, timestamps = block["channel"].copy(), block["time"].copy()
            defect = TimeTagStream.defect(channels, timestamps, duration, previous)
            if defect is not None:
                if sha256 is not None:
                    for _ in records:
                        pass
                raise MissingArtifactError(
                    f"artifact corrupt ({defect}, in records "
                    f"[{start}, {start + len(block)})): {path}")
            previous, start = timestamps[-1], start + len(block)
            yield channels, timestamps

    return TagBlocks(duration=duration, blocks=blocks(), seed=header.get("seed"),
                     metadata=metadata, n_events=count)


def export_time_tags_csv(path, stream: TimeTagStream | TagBlocks) -> None:
    """``channel,timestamp_s`` rows, the timestamps as Python float reprs.

    Each run of up to ``_BLOCK_RECORDS`` events is written with one ``%``
    format.
    """
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
