"""Dataset and output file formats: every file the package writes.

- Aperture images: row-major little-endian float64 pixels behind an embedded
  JSON header (pixel pitch in units of focal length, channel, shape,
  metadata).  The optical axis is the grid's centre, so the header holds
  no position for it.
- Time series: little-endian binary float64 array behind an embedded JSON
  header (sample interval, units, seed).
- Time tags: binary record stream (u8 channel, little-endian f64 timestamp in
  seconds) behind an embedded JSON header (duration, seed, metadata); CSV
  export for interoperability.

Binary container layout: 4-byte magic, u32 little-endian header length,
UTF-8 JSON header, payload records, then a u64 little-endian trailer, the
bitwise complement of the record count.  The count comes last because a
stream may learn it only at its end; the complement keeps a cut file from
ending in a valid trailer (the eight bytes before a cut of a series or an
image read as a NaN, never as a count, and those of a tag stream start with
a channel, 0 or 1, the low byte of no complemented count below 254).

Each writer hands its records, block by block, to ``_write_container``,
which writes, counts and hashes them as they arrive and returns the sha256
of the file; nothing is read back.  A ``TimeSeries`` or ``TimeTagStream``
is a stream of one block, a ``SeriesBlocks`` or ``TagBlocks`` one of many,
and each checks that its blocks hold the count it promised.  Each reader
reads its file once, in order, through ``_read_container``: the magic, the
header and the file size on the call, then one pass over blocks of
``_BLOCK_RECORDS`` records that applies the reader's block check and checks
``sha256``.  ``read_time_series`` and ``read_time_tags`` return that pass as
``SeriesBlocks`` and ``TagBlocks``; ``read_image`` copies it into one array.
Payload values that the models cannot have produced (non-finite samples,
timestamps or pixels, negative pixels, channels other than 0 and 1, unsorted
or out-of-window tags, also across blocks), and header values of the wrong
type or range, raise ``MissingArtifactError`` like any other corrupt
artifact.

Text outputs: ``write_csv`` writes each table (``analyze``'s four and each
``reproduce`` target's, which ``reproduce.run_target`` writes) and
``write_json`` ``results.json``, ``manifest.json`` and each target's summary.
A table is one ``%`` per cell, except a float64 table in ``"%.18e"``
(``spectrum.csv``): an exact vectorized kernel writes the same bytes, and
falls back to ``%`` for a cell near a rounding tie, or for the whole table
if a cell is non-finite, negative or of a 3-digit exponent.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
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
    "write_csv", "write_json", "sha256_file",
]

_IMAGE_MAGIC = b"PMI2"
_SERIES_MAGIC = b"PMS2"
_TAGS_MAGIC = b"PMT2"
_F8_DTYPE = np.dtype("<f8")
_TAG_DTYPE = np.dtype([("channel", "u1"), ("time", "<f8")])
# records per block of container payload reads and writes
_BLOCK_RECORDS = 1 << 18
# the trailer holds count ^ _NOT_COUNT
_NOT_COUNT = (1 << 64) - 1
# the most pulses, and microseconds, a tag stream may span (read_time_tags)
_MAX_SPAN = 2.0**53


def _json_header(blob: bytes, path: Path, required: tuple[str, ...]) -> dict:
    """Decode a UTF-8 JSON mapping holding the ``required`` keys.

    Anything else marks a corrupt artifact.
    """
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MissingArtifactError(f"artifact corrupt (bad header): {path}: {exc}")
    if not isinstance(header, dict):
        raise MissingArtifactError(f"artifact corrupt (header not a mapping): {path}")
    missing = [key for key in required if key not in header]
    if missing:
        raise MissingArtifactError(
            f"artifact corrupt (header lacks {', '.join(missing)}): {path}")
    return header


def _finite_number(value) -> bool:
    """Whether a header or config value is a finite number, not a bool; an
    int beyond the float range is not."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _write_container(path: Path, magic: bytes, header: dict, blocks) -> str:
    """Write the header, then each block of records as it arrives, then the
    trailer of their count.

    Each block is a contiguous array of records.  Returns the sha256 of the
    bytes written.
    """
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    head = magic + struct.pack("<I", len(blob)) + blob
    digest, count = hashlib.sha256(head), 0
    with open(path, "wb") as fh:
        fh.write(head)
        for block in blocks:
            fh.write(block)
            digest.update(block)
            count += block.size
        trailer = struct.pack("<Q", count ^ _NOT_COUNT)
        fh.write(trailer)
    digest.update(trailer)
    return digest.hexdigest()


def _read_container(path: Path, magic: bytes, required: tuple[str, ...],
                    dtype: np.dtype, sha256: str | None):
    """Open a container: returns its header, its record count and
    ``blocks(check)``, the one pass over its payload.

    The magic, the header (which must hold ``required``) and the file size,
    which must be the header's and the trailer's plus the trailer count's
    records, are checked on the call.  ``blocks`` yields the payload as
    blocks of ``_BLOCK_RECORDS`` records in one reused buffer, each valid
    until the next; ``check`` gives the defect of a block, or None.  Every
    byte is hashed, and the hash checked against ``sha256`` after the
    trailer; a block with a defect has the rest of the file hashed first,
    so that a stale digest is reported as one.  A failed check raises
    ``MissingArtifactError``.
    """
    if not path.exists():
        raise MissingArtifactError(f"artifact missing: {path}")

    def records():
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(8)
            if len(head) < 8 or head[:4] != magic:
                raise MissingArtifactError(f"artifact corrupt (bad magic): {path}")
            (n,) = struct.unpack("<I", head[4:])
            payload_bytes = size - (8 + n + 8)
            if payload_bytes < 0:
                raise MissingArtifactError(
                    f"artifact truncated (header of {n} bytes): {path}")
            blob = fh.read(n)
            header = _json_header(blob, path, required)
            fh.seek(size - 8)
            trailer = fh.read(8)
            count = struct.unpack("<Q", trailer)[0] ^ _NOT_COUNT
            if payload_bytes != count * dtype.itemsize:
                raise MissingArtifactError(
                    f"artifact truncated (payload holds {payload_bytes} bytes, "
                    f"trailer count needs {count * dtype.itemsize}): {path}")
            fh.seek(8 + n)
            digest = hashlib.sha256(head + blob)
            yield header, count
            buffer = np.empty(min(count, _BLOCK_RECORDS), dtype=dtype)
            for start in range(0, count, _BLOCK_RECORDS):
                block = buffer[: min(count - start, _BLOCK_RECORDS)]
                if fh.readinto(block) != block.nbytes:
                    raise MissingArtifactError(f"artifact truncated: {path}")
                digest.update(block)
                yield block
            digest.update(trailer)
        if sha256 is not None and digest.hexdigest() != sha256:
            raise MissingArtifactError(f"artifact checksum mismatch: {path}")

    # started, so that the file is closed when the pass is, used up or not
    payload = records()
    header, count = next(payload)

    def blocks(check):
        start = 0
        for block in payload:
            defect = check(block)
            if defect is not None:
                if sha256 is not None:
                    for _ in payload:
                        pass
                raise MissingArtifactError(
                    f"artifact corrupt ({defect}, in records "
                    f"[{start}, {start + len(block)})): {path}")
            start += len(block)
            yield block

    return header, count, blocks


def write_image(path, image: ApertureImage) -> str:
    """Write an image container, pixels row-major; returns its sha256."""
    header = {
        "pixel_pitch_f": image.pixel_pitch,
        "channel": image.channel,
        "shape": list(image.pixels.shape),
        "metadata": image.metadata,
    }
    pixels = np.ascontiguousarray(image.pixels, dtype=_F8_DTYPE)
    return _write_container(Path(path), _IMAGE_MAGIC, header, [pixels])


def read_image(path, sha256: str | None = None) -> ApertureImage:
    """An image container, read and hashed once, its blocks copied into one
    array.

    ``sha256`` is checked first; then the header (a finite pixel_pitch_f > 0,
    a known channel, a metadata mapping whose bore and rim radii are finite
    numbers, and a shape of two positive ints whose product is the pixel
    count) and the pixels (finite and >= 0).
    A failed check raises ``MissingArtifactError``.
    """
    path = Path(path)
    header, count, blocks = _read_container(
        path, _IMAGE_MAGIC, ("pixel_pitch_f", "channel", "shape"),
        _F8_DTYPE, sha256)
    pixels, start = np.empty(count, dtype=_F8_DTYPE), 0
    for block in blocks(lambda block: None):  # ApertureImage checks the pixels
        pixels[start: start + len(block)] = block
        start += len(block)
    shape, metadata = header["shape"], header.get("metadata", {})
    if not _finite_number(header["pixel_pitch_f"]):
        raise MissingArtifactError(f"artifact corrupt (header pixel_pitch_f): {path}")
    if not isinstance(metadata, dict) or not all(
            _finite_number(metadata[key]) for key in ("bore_radius_f", "rim_radius_f")
            if key in metadata):
        raise MissingArtifactError(f"artifact corrupt (header metadata): {path}")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n > 0 for n in shape)
            and shape[0] * shape[1] == count):
        raise MissingArtifactError(
            f"artifact corrupt (header shape is not two positive counts "
            f"of the {count} pixels): {path}")
    try:
        return ApertureImage(pixels=pixels.reshape(shape),
                             pixel_pitch=header["pixel_pitch_f"],
                             channel=header["channel"], metadata=metadata)
    except (ValueError, TypeError) as exc:
        raise MissingArtifactError(f"artifact corrupt ({exc}): {path}")


def write_time_series(path, series: TimeSeries | SeriesBlocks) -> str:
    """Write a time-series container block by block; returns its sha256."""
    header = {
        "sample_interval_s": series.sample_interval,
        "units": series.units,
        "seed": series.seed,
    }
    blocks = (np.ascontiguousarray(block, dtype=_F8_DTYPE)
              for block in series.blocks)
    return _write_container(Path(path), _SERIES_MAGIC, header, blocks)


def read_time_series(path, sha256: str | None = None) -> SeriesBlocks:
    """A time-series container as one in-order pass of blocks.

    The magic, the header (a sample_interval_s > 0 whose reciprocal, the
    sampling rate, is finite) and the file size are checked on the call,
    each block is checked finite as it is read and ``sha256`` after the last
    one; a failed check raises ``MissingArtifactError``.
    """
    path = Path(path)
    header, count, blocks = _read_container(path, _SERIES_MAGIC, ("sample_interval_s",),
                                            _F8_DTYPE, sha256)
    interval = header["sample_interval_s"]
    if not (_finite_number(interval) and interval > 0
            and math.isfinite(1.0 / interval)):
        raise MissingArtifactError(
            f"artifact corrupt (header sample_interval_s): {path}")
    finite = np.empty(min(count, _BLOCK_RECORDS), dtype=bool)
    return SeriesBlocks(interval, count, blocks(
        lambda block: None if np.isfinite(block, out=finite[: len(block)]).all()
        else "non-finite sample"), header.get("units", ""), header.get("seed"))


def write_time_tags(path, stream: TimeTagStream | TagBlocks) -> str:
    """Write a time-tag container block by block; returns its sha256.

    The event count of a ``TagBlocks`` may be known only when its blocks are
    used up; it goes in the trailer, after the last record.
    """
    header = {
        "duration_s": stream.duration,
        "seed": stream.seed,
        "metadata": stream.metadata,
    }

    def records():
        buffer = np.empty(_BLOCK_RECORDS, dtype=_TAG_DTYPE)
        for channels, timestamps in stream.blocks:
            for start in range(0, len(timestamps), _BLOCK_RECORDS):
                block = buffer[: min(len(timestamps) - start, _BLOCK_RECORDS)]
                block["channel"] = channels[start: start + len(block)]
                block["time"] = timestamps[start: start + len(block)]
                yield block

    return _write_container(Path(path), _TAGS_MAGIC, header, records())


def read_time_tags(path, sha256: str | None = None) -> TagBlocks:
    """A time-tag container as one in-order pass of blocks; ``len()`` is its
    trailer's record count.

    The magic, the header and the file size are checked on the call: a
    duration_s that is not a finite number >= 0, metadata that is not a
    mapping or whose repetition_rate is not a finite number > 0, or a
    stream that spans more than 2**53 pulses (duration_s * repetition_rate)
    or 2**53 microseconds, raise: the pulse indices of ``g2_zero`` and the
    bin indices of ``RateBins`` (bins 1 us or wider) must fit int64.
    Each block is checked as it is read (finite timestamps, channels 0 or
    1, timestamps non-decreasing, also across blocks, and within [0,
    duration_s]) and ``sha256`` after the last one; a failed check raises
    ``MissingArtifactError``.  The blocks are views of the reader's buffer.
    """
    path = Path(path)
    header, count, blocks = _read_container(path, _TAGS_MAGIC, ("duration_s",),
                                            _TAG_DTYPE, sha256)
    duration, metadata = header["duration_s"], header.get("metadata", {})
    if not (_finite_number(duration) and duration >= 0):
        raise MissingArtifactError(f"artifact corrupt (header duration_s): {path}")
    rate = metadata.get("repetition_rate", 1.0) if isinstance(metadata, dict) else None
    if not (_finite_number(rate) and rate > 0):
        raise MissingArtifactError(f"artifact corrupt (header metadata): {path}")
    if not max(duration * rate, duration * 1e6) <= _MAX_SPAN:
        raise MissingArtifactError(f"artifact corrupt (header: the stream spans more "
                                   f"than 2**53 pulses or microseconds): {path}")
    previous = 0.0  # the timestamp before the block

    def defect(block):
        nonlocal previous
        found = TimeTagStream.defect(block["channel"], block["time"], duration, previous)
        previous = block["time"][-1]
        return found

    return TagBlocks(duration=duration, seed=header.get("seed"), metadata=metadata,
                     n_events=count, blocks=((block["channel"], block["time"])
                                             for block in blocks(defect)))


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


# the powers of ten 10**j, j in [_LOW_POWER, _HIGH_POWER], that scale a
# value in (1e-100, 1e100), of exponent k in [-101, 100], to its 19
# significant digits: j = 18 - k
_LOW_POWER, _HIGH_POWER = -82, 119
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
# a digit product whose low part lies this near a half goes to ``%``; the
# double-double product is off by less than 1e-12
_TIE_MARGIN = 1e-9
# one "%.18e" cell and its separator: "d.dddddddddddddddddde+xx,"
_E18_CELL = np.dtype({"names": ["head", "middle", "tail", "sep"],
                      "formats": ["<u8", "<u8", "<u8", "u1"],
                      "offsets": [0, 8, 16, 24], "itemsize": 25})


@functools.cache
def _e18_tables() -> tuple[np.ndarray, ...]:
    """The read-only tables of ``_format_e18``, built on first use.

    ``high[j] + low[j]`` is 10**(j + _LOW_POWER) to about 2**-106: CPython
    rounds int -> float and int / int correctly, so ``high`` is the nearest
    double and ``low`` the nearest double to the remainder.  ``four[v]``
    holds the four ASCII digits of v < 10**4 in its low bytes, first digit
    first, and ``four_up`` them shifted to the high half; ``lead[v]`` is
    "d.dd" for v < 10**3; ``exponent[k + 99]`` is "e+kk" in the high half.
    """
    high, low = [], []
    for j in range(_LOW_POWER, _HIGH_POWER + 1):
        if j >= 0:
            hi = float(10**j)
            lo = float(10**j - int(hi))
        else:
            den = 10**-j
            hi = 1 / den
            num, twos = hi.as_integer_ratio()
            lo = (twos - num * den) / (twos * den)
        high.append(hi)
        low.append(lo)
    v = np.arange(10**4, dtype=np.uint64)
    four = sum((v // 10**(3 - i) % 10 + ord("0")) << np.uint64(8 * i) for i in range(4))
    first = four[:1000]
    lead = ((first >> np.uint64(8)) & np.uint64(0xFF)) | np.uint64(ord(".") << 8) \
        | (first & np.uint64(0xFFFF0000))
    k = np.arange(-99, 100)
    exponent = (np.uint64(ord("e"))
                | np.where(k < 0, np.uint64(ord("-") << 8), np.uint64(ord("+") << 8))
                | (four[np.abs(k)] >> np.uint64(16) << np.uint64(16))) << np.uint64(32)
    tables = (np.array(high), np.array(low), four, four << np.uint64(32), lead, exponent)
    for table in tables:
        table.setflags(write=False)
    return tables


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as two halves of at most 26 bits each that sum to it exactly."""
    high = _VELTKAMP * a
    high -= high - a
    return high, a - high


def _scaled(x: np.ndarray, k: np.ndarray, high: np.ndarray, low: np.ndarray):
    """x * 10**(18 - k) as the sum of a rounded product and its low part.

    The product by ``high`` is split exactly (Dekker); the low part adds its
    error and the product by ``low``.
    """
    power = 18 - _LOW_POWER - k
    ph, pl = high[power], low[power]
    product = x * ph
    xh, xl = _veltkamp(x)
    bh, bl = _veltkamp(ph)
    error = xh * bh
    error -= product
    error += xh * bl
    error += xl * bh
    error += xl * bl
    error += x * pl
    return product, error


def _divmod(a: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
    """``a // d`` and ``a % d`` for a >= 0: numpy divides by a scalar fast in
    ``//`` but not in ``%`` or ``np.divmod``."""
    quotient = a // d
    return quotient, a - quotient * d


def _format_e18(rows: np.ndarray) -> np.ndarray | None:
    """The bytes ``%`` writes for a 2-d float64 table in ``"%.18e"``, one
    line per row, or None if a cell lies outside the fixed-width domain:
    non-finite, negative (-0.0 included) or a 3-digit exponent.

    A cell x > 0 of exponent k prints the 19 digits of the integer nearest
    x * 10**(18 - k), ties to even.  k is taken as floor(log10 x); the
    integer is the product's rounded part plus the floor of its low part,
    and the low part's fraction rounds it.  A cell whose fraction lies
    within ``_TIE_MARGIN`` of a half (exact ties occur), or whose integer
    falls outside [1e18, 1e19) (k one off, as near a power of ten), is
    formatted with ``%``.
    """
    x = rows.ravel()
    if not np.isfinite(x).all() or np.signbit(x).any():
        return None
    zero = x == 0
    if not (zero | ((x > 1e-100) & (x < 1e100))).all():
        return None
    high, low, four, four_up, lead, exponent = _e18_tables()
    scaled = x + zero  # a zero cell is scaled as 1.0, then given digits 0
    k = np.log10(scaled)
    k = np.floor(k, out=k).astype(np.int64)
    product, error = _scaled(scaled, k, high, low)
    whole = np.floor(error)
    past_half = error - whole - 0.5
    # a product of a k one too small reaches 1e20, past uint64; capped at
    # 1.8e19, its integer still lies past 10**19
    digits = np.minimum(product, 1.8e19).astype(np.uint64)
    digits += whole.astype(np.int64).view(np.uint64)
    slow = (digits < 10**18) | (np.abs(past_half) < _TIE_MARGIN)
    digits += past_half > 0
    # no double rounds up to 10**19 (a carry into the exponent): only the
    # product of a k one too small gets there
    slow |= digits >= 10**19
    # a zero cell prints digits and exponent 0; a slow one is rewritten below
    blank = zero | slow
    digits[blank] = 0
    k[blank] = 0
    if k.min() < -99 or k.max() > 99:
        return None
    k += 99
    # 19 digits: the first three, then four groups of four
    first, rest = _divmod(digits, np.uint64(10**16))
    upper, lower = _divmod(rest.view(np.int64), 10**8)
    g1, g2 = _divmod(upper, 10**4)
    g3, g4 = _divmod(lower, 10**4)
    cells = np.empty(x.size, dtype=_E18_CELL)
    cells["head"] = lead[first.view(np.int64)] | four_up[g1]
    cells["middle"] = four[g2] | four_up[g3]
    cells["tail"] = four[g4] | exponent[k]
    cells["sep"].reshape(rows.shape)[:] = np.frombuffer(
        b"," * (rows.shape[1] - 1) + b"\n", np.uint8)
    text = cells.view(np.uint8).reshape(x.size, _E18_CELL.itemsize)
    for i in np.flatnonzero(slow):
        cell = ("%.18e" % x[i]).encode()
        if len(cell) != _E18_CELL.itemsize - 1:
            return None
        text[i, :-1] = np.frombuffer(cell, np.uint8)
    return cells.view(np.uint8)


def write_csv(path, header: str, rows, fmt: str) -> None:
    """``header``, then the rows of a 2-d array or a list of equal-length
    tuples, formatted with one ``%`` of ``fmt`` per cell over the whole
    table.  numpy scalars become Python ones: ``"%s"`` writes a float's repr.

    A non-empty 2-d float64 array in ``"%.18e"`` (``analyze``'s
    ``spectrum.csv``) goes through ``_format_e18``, which writes the same
    bytes; ``%`` formats the table if a cell lies outside its domain.
    """
    if (fmt == "%.18e" and isinstance(rows, np.ndarray) and rows.ndim == 2
            and rows.dtype == np.float64 and rows.size):
        text = _format_e18(rows)
        if text is not None:
            with open(path, "wb") as fh:
                fh.write((header + "\n").encode())
                fh.write(text)
            return
    cells = (rows.ravel().tolist() if isinstance(rows, np.ndarray) else
             [cell.item() if isinstance(cell, np.generic) else cell
              for row in rows for cell in row])
    line = ",".join([fmt] * (len(rows[0]) if len(rows) else 0)) + "\n"
    Path(path).write_text(header + "\n" + line * len(rows) % tuple(cells))


def write_json(path, obj) -> None:
    """``obj`` as JSON with sorted keys, indented by two, and a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
