import dataclasses
import hashlib
import json
import math
import shutil
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pmtrap import analysis
from pmtrap import io_formats as io
from pmtrap import langevin as lv
from pmtrap import mirror_optics as mo
from pmtrap.cli import simulate_dataset
from pmtrap.config import (
    ExperimentConfig,
    config_hash,
    default_config_yaml,
    dump_config,
    load_config,
    parse_config,
    verify_manifest,
    write_manifest,
)
from pmtrap.errors import ConfigError, MissingArtifactError
from pmtrap.langevin import TimeSeries
from pmtrap.photon_emitter import TagBlocks, TimeTagStream
from pmtrap.seeding import rng_for


# header corruptions: first byte not UTF-8, first byte not JSON, a valid JSON
# mapping without the keys the reader needs
CORRUPT_HEADERS = [lambda blob: b"\xff" + blob[1:], lambda blob: b"X" + blob[1:],
                   lambda blob: b"{}"]
CORRUPT_IDS = ["non_utf8", "non_json", "empty_mapping"]


class TestImageIO:
    def test_round_trip(self, tmp_path):
        img = mo.general_dipole_image(np.array([0.0, 0.0, 1.0]))
        path = tmp_path / "img.img"
        back = io.read_image(path, io.write_image(path, img))
        assert np.array_equal(back.pixels, img.pixels)
        assert back.pixel_pitch == img.pixel_pitch
        assert back.channel == img.channel
        assert back.metadata == img.metadata

    @pytest.mark.parametrize("block", [7, 9])
    def test_round_trip_across_blocks(self, tmp_path, monkeypatch, block):
        # 45 pixels: several reader blocks, the last one partial (7) or full (9)
        monkeypatch.setattr(io, "_BLOCK_RECORDS", block)
        img = mo.ApertureImage(pixels=np.arange(45.0).reshape(5, 9) / 7,
                               pixel_pitch=0.1, channel="vertical")
        path = tmp_path / "img.img"
        back = io.read_image(path, io.write_image(path, img))
        assert back.pixels.tobytes() == img.pixels.tobytes()
        assert back.pixels.shape == (5, 9)

    def test_corrupt_pixels(self, tmp_path):
        img = mo.general_dipole_image(np.array([0.0, 0.0, 1.0]), n_pixels=64)
        path = tmp_path / "img.img"
        io.write_image(path, img)
        raw = path.read_bytes()  # the last pixel, then the trailer
        path.write_bytes(raw[:-16] + struct.pack("<d", np.inf) + raw[-8:])
        with pytest.raises(MissingArtifactError, match="finite"):
            io.read_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError, match="missing"):
            io.read_image(tmp_path / "img.img")


def _replace_header(path, corrupt) -> None:
    raw = path.read_bytes()  # magic, u32 length, JSON header, payload, trailer
    (n,) = struct.unpack("<I", raw[4:8])
    header = corrupt(raw[8: 8 + n])
    path.write_bytes(raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + n:])


def _write_two_records(kind, path) -> None:
    """A container of ``kind`` whose payload holds two records."""
    if kind == "time_series":
        io.write_time_series(path, TimeSeries(sample_interval=1e-6,
                                              samples=np.arange(2.0)))
    elif kind == "time_tags":
        io.write_time_tags(path, TimeTagStream(channels=[0, 1],
                                               timestamps=[0.1, 0.2], duration=1.0))
    else:
        io.write_image(path, mo.ApertureImage(pixels=[[0.0, 1.0]], pixel_pitch=0.1))


@pytest.mark.parametrize("corrupt", CORRUPT_HEADERS, ids=CORRUPT_IDS)
@pytest.mark.parametrize("kind", ["time_series", "time_tags", "image"])
def test_corrupt_container_header(tmp_path, kind, corrupt):
    path = tmp_path / "artifact.bin"
    _write_two_records(kind, path)
    _replace_header(path, corrupt)
    with pytest.raises(MissingArtifactError, match="header"):
        getattr(io, f"read_{kind}")(path)


@pytest.mark.parametrize("kind, magic, record", [("time_series", b"PMS2", 8),
                                                 ("time_tags", b"PMT2", 9),
                                                 ("image", b"PMI2", 8)])
def test_container_layout(tmp_path, kind, magic, record):
    # magic, u32 header length, a header that holds no record count, the
    # records, then the complement of their count as a u64
    path = tmp_path / "artifact.bin"
    _write_two_records(kind, path)
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[4:8])
    assert raw[:4] == magic
    assert not {"n_samples", "n_events", "n_pixels"} & set(json.loads(raw[8: 8 + n]))
    assert len(raw) == 8 + n + 2 * record + 8
    assert raw[-8:] == struct.pack("<Q", 2**64 - 1 - 2)


# the records a reader of each kind returns
RECORDS = {"time_series": lambda back: back.collect().samples.size,
           "time_tags": lambda back: len(back.collect()),
           "image": lambda back: back.pixels.size}


@pytest.mark.parametrize("count", ["2", 2.0, True, -1, None],
                         ids=["string", "float", "boolean", "negative", "null"])
@pytest.mark.parametrize("kind, key", [("time_series", "n_samples"),
                                       ("time_tags", "n_events"),
                                       ("image", "n_pixels")])
def test_container_count_not_a_count(tmp_path, kind, key, count):
    # the record count is the trailer's: a header key that held it in the
    # earlier layout is not read, whatever its value
    path = tmp_path / "artifact.bin"
    _write_two_records(kind, path)
    _replace_header(path, lambda blob: json.dumps(
        {**json.loads(blob), key: count}).encode())
    assert RECORDS[kind](getattr(io, f"read_{kind}")(path)) == 2


@pytest.mark.parametrize("count", [0, 1, 3, 2**64 - 1],
                         ids=["zero", "one_short", "one_more", "largest"])
@pytest.mark.parametrize("kind", ["time_series", "time_tags", "image"])
def test_container_trailer_count_mismatch(tmp_path, kind, count):
    # the reader sizes the payload from the trailer, so it must count the
    # two records the file holds
    path = tmp_path / "artifact.bin"
    _write_two_records(kind, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + struct.pack("<Q", count ^ (2**64 - 1)))
    with pytest.raises(MissingArtifactError, match="trailer count"):
        getattr(io, f"read_{kind}")(path)


@pytest.mark.parametrize("kind", ["time_series", "time_tags", "image"])
def test_header_length_beyond_the_file(tmp_path, kind):
    # a u32 header length past the end of the file is rejected before the
    # header is read, so nothing near its 4 GiB is allocated
    path = tmp_path / "artifact.bin"
    _write_two_records(kind, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 0xFFFFFFF0) + raw[8:])
    tracemalloc.start()
    try:
        with pytest.raises(MissingArtifactError, match="truncated"):
            getattr(io, f"read_{kind}")(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("kind, key, value", [
    ("time_series", "sample_interval_s", "1e-6"),
    ("time_series", "sample_interval_s", 0.0),
    ("time_series", "sample_interval_s", None),
    ("time_tags", "duration_s", "1.0"),
    ("time_tags", "duration_s", None),
    ("time_tags", "duration_s", float("nan")),
    ("time_tags", "duration_s", -1.0),
    ("image", "shape", [1, 3]),
    ("image", "shape", [2]),
    ("image", "shape", [1.0, 2]),
    ("image", "shape", [-1, -2]),
    ("image", "shape", "1x2"),
], ids=["interval_string", "interval_zero", "interval_null", "duration_string",
        "duration_null", "duration_nan", "duration_negative", "shape_mismatch",
        "shape_rank_1", "shape_float", "shape_negative", "shape_string"])
def test_container_header_value_rejected(tmp_path, kind, key, value):
    path = tmp_path / "artifact.bin"
    _write_two_records(kind, path)
    _replace_header(path, lambda blob: json.dumps(
        {**json.loads(blob), key: value}).encode())
    with pytest.raises(MissingArtifactError, match="corrupt"):
        getattr(io, f"read_{kind}")(path)


class TestTimeSeriesIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        series = TimeSeries(sample_interval=4e-9,
                            samples=rng.normal(0, 1e-9, 10000),
                            units="m", seed=7)
        path = tmp_path / "z.ts"
        io.write_time_series(path, series)
        back = io.read_time_series(path).collect()
        assert np.array_equal(back.samples, series.samples)
        assert back.sample_interval == series.sample_interval
        assert back.units == "m" and back.seed == 7

    def test_truncation_detected(self, tmp_path):
        series = TimeSeries(sample_interval=1e-6, samples=np.arange(100.0))
        path = tmp_path / "z.ts"
        io.write_time_series(path, series)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(MissingArtifactError):
            io.read_time_series(path)

    def test_trailing_bytes_detected(self, tmp_path):
        series = TimeSeries(sample_interval=1e-6, samples=np.arange(100.0))
        path = tmp_path / "z.ts"
        io.write_time_series(path, series)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(MissingArtifactError, match="payload"):
            io.read_time_series(path)

    def test_read_memory_bounded(self, tmp_path):
        # 2^23 samples (64 MiB): the payload is read once, into the samples
        path = tmp_path / "long.ts"
        io.write_time_series(path, TimeSeries(sample_interval=1e-9,
                                              samples=np.zeros(2**23)))
        tracemalloc.start()
        try:
            back = io.read_time_series(path).collect()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            path.unlink()
        assert len(back.samples) == 2**23
        assert peak < back.samples.nbytes + 16 * 2**20


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, monkeypatch, bad):
        samples = np.arange(100.0)
        path = tmp_path / "z.ts"
        io.write_time_series(path, TimeSeries(sample_interval=1e-6, samples=samples))
        raw = bytearray(path.read_bytes())
        raw[-8 * 38: -8 * 37] = struct.pack("<d", bad)  # sample 63, before the trailer
        path.write_bytes(bytes(raw))
        with pytest.raises(MissingArtifactError, match="non-finite"):
            io.read_time_series(path).collect()
        # the blocks before the bad sample are served, the block holding it is not
        monkeypatch.setattr(io, "_BLOCK_RECORDS", 60)
        blocks = io.read_time_series(path).blocks
        assert np.array_equal(next(blocks), samples[:60])
        with pytest.raises(MissingArtifactError, match="non-finite"):
            next(blocks)

    def test_stale_digest_outranks_a_defect(self, tmp_path, monkeypatch):
        # a block that breaks an invariant still has the rest of the file
        # hashed, so a digest that does not match is what gets reported
        path = tmp_path / "z.ts"
        digest = io.write_time_series(path, TimeSeries(sample_interval=1e-6,
                                                       samples=np.arange(100.0)))
        raw = bytearray(path.read_bytes())
        raw[-8 * 98: -8 * 97] = struct.pack("<d", np.nan)  # sample 3
        path.write_bytes(bytes(raw))
        monkeypatch.setattr(io, "_BLOCK_RECORDS", 60)
        with pytest.raises(MissingArtifactError, match="checksum mismatch"):
            io.read_time_series(path, digest).collect()
        with pytest.raises(MissingArtifactError, match="non-finite"):
            io.read_time_series(path).collect()

    @pytest.fixture(scope="class")
    def psd_root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("streamed_psd")

    @pytest.mark.parametrize("block", [1 << 20, 4096, 1000])
    @settings(max_examples=100, deadline=None)
    @given(read_block=st.integers(1, 5000), segment_length=st.integers(8, 4096),
           n_segments=st.integers(4, 12),
           overlap=st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.9]),
           offset=st.floats(-10.0, 10.0), sigma=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    @example(read_block=1 << 20, segment_length=1024, n_segments=58, overlap=0.5,
             offset=3.0, sigma=1.0, seed=5)
    @example(read_block=4096, segment_length=1024, n_segments=58, overlap=0.5,
             offset=3.0, sigma=1.0, seed=5)
    @example(read_block=1000, segment_length=1024, n_segments=58, overlap=0.5,
             offset=3.0, sigma=1.0, seed=5)
    @example(read_block=7, segment_length=1024, n_segments=12, overlap=0.9,
             offset=3.0, sigma=1.0, seed=5)
    def test_streamed_psd_matches_in_memory(self, psd_root, block,
                                            read_block, segment_length, n_segments,
                                            overlap, offset, sigma, seed):
        # ``block`` sets the Welch chunk of both paths, ``read_block`` the
        # reader's blocks, from single samples to more than a segment.  When
        # a chunk of few segments advances by less than the samples the next
        # chunk shares (overlap above 0.5), those are moved over themselves.
        # The one pass windows around the first block's mean and shifts the
        # sums to the series mean at the end; the shift reaches bins 0 and 1
        # only, where the mean's summation order already moves a two-pass
        # estimate by up to ~1e-9 when |mean| >> sigma
        hop = segment_length - int(segment_length * overlap)
        n = (n_segments - 1) * hop + segment_length + seed % hop
        series = TimeSeries(sample_interval=1e-6, samples=np.random.default_rng(
            seed).normal(offset, sigma, n))
        path = psd_root / "z.ts"
        path.unlink(missing_ok=True)  # a new file each example, see _replace_file
        io.write_time_series(path, series)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_PSD_BLOCK_SAMPLES", block)
            patch.setattr(io, "_BLOCK_RECORDS", read_block)
            whole = analysis.stream_power_spectral_density(series, segment_length, overlap)
            streamed = analysis.stream_power_spectral_density(
                io.read_time_series(path), segment_length, overlap)
        assert np.array_equal(streamed.frequencies, whole.frequencies)
        assert streamed.averages == whole.averages == n_segments
        np.testing.assert_allclose(streamed.densities[2:], whole.densities[2:],
                                   rtol=1e-12)
        np.testing.assert_allclose(streamed.densities[:2], whole.densities[:2],
                                   rtol=1e-8)

    def test_reader_memory_bounded(self, tmp_path):
        # a pass over 2^23 samples (64 MiB) holds one reused block buffer
        path = tmp_path / "long.ts"
        io.write_time_series(path, TimeSeries(sample_interval=1e-9,
                                              samples=np.ones(2**23)))
        tracemalloc.start()
        try:
            total = sum(float(np.sum(block))
                        for block in io.read_time_series(path).blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            path.unlink()
        assert total == 2**23
        assert peak < 10 * 2**20


class TestWriterDigests:
    """Each artifact writer returns the sha256 of the file it wrote."""

    @pytest.mark.parametrize("block", [1 << 20, 7])
    def test_time_series(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(lv, "_BLOCK_SAMPLES", block)
        series = TimeSeries(sample_interval=1e-6, samples=np.arange(100.0))
        path = tmp_path / "z.ts"
        assert io.write_time_series(path, series) == io.sha256_file(path)
        views = lv.SeriesBlocks(1e-6, 100, (series.samples[i: i + block]
                                            for i in range(0, 100, block)))
        assert io.write_time_series(path, views) == io.sha256_file(path)

    def test_time_series_block_count_must_match(self, tmp_path):
        blocks = lv.SeriesBlocks(sample_interval=1e-6, n_samples=10,
                                 blocks=iter([np.zeros(4)]))
        with pytest.raises(ValueError, match="promised"):
            io.write_time_series(tmp_path / "z.ts", blocks)

    @pytest.mark.parametrize("block", [1 << 20, 7])
    def test_time_tags(self, tmp_path, monkeypatch, block):
        # hashed as it is written, not read back
        def reread(path):
            raise AssertionError(f"{path} read back")

        monkeypatch.setattr(io, "_BLOCK_RECORDS", block)
        monkeypatch.setattr(io, "sha256_file", reread)
        stream = TimeTagStream(channels=np.arange(100) % 2,
                               timestamps=np.linspace(0.0, 1.0, 100), duration=1.0)
        path = tmp_path / "tags.bin"
        digest = io.write_time_tags(path, stream)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_image(self, tmp_path):
        image = mo.ApertureImage(pixels=np.arange(12.0).reshape(3, 4) / 7,
                                 pixel_pitch=0.1, channel="total")
        path = tmp_path / "image.img"
        assert io.write_image(path, image) == io.sha256_file(path)


def _power_of_ten(k: int) -> float:
    """The double nearest 10**k (int -> float and int / int round correctly)."""
    return float(10**k) if k >= 0 else 1 / 10**-k


def _stepped(value: float, steps: int) -> float:
    """``value`` moved ``steps`` doubles up (or down, if negative)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# "%.18e" cells: exact ties of the 19th digit (k/64 in [1e13, 1e15)) and
# their neighbours, powers of ten and theirs (across the 1e+-99/1e+-100
# edge of the two-digit exponents; the doubles just below a power are the
# nearest any double comes to rounding up into the next exponent), then
# any double
E18_TIES = st.builds(_stepped, st.integers(64 * 10**13, 64 * 10**15 - 1).map(
    lambda m: m / 64), st.integers(-1, 1))
E18_POWERS = st.builds(_stepped, st.integers(-101, 101).map(_power_of_ten),
                       st.integers(-2, 2))
E18_CELLS = st.one_of(
    st.just(0.0), E18_TIES, E18_POWERS,
    st.floats(min_value=1e-99, max_value=9.9e99),
    st.integers(0, 2**53).map(float),
    st.builds(math.ldexp, st.integers(1, 2**20), st.integers(-60, 60)))
E18_ANY = st.one_of(
    E18_CELLS, st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    E18_CELLS.map(lambda x: -x))


def _percent_e18(header: str, rows: np.ndarray) -> bytes:
    """The table as one ``%`` of ``"%.18e"`` per cell writes it."""
    line = ",".join(["%.18e"] * rows.shape[1]) + "\n"
    return (header + "\n" + line * len(rows) % tuple(rows.ravel().tolist())).encode()


class TestCsvWriter:
    """``write_csv`` writes a float64 table in ``"%.18e"`` through an exact
    vectorized kernel: the bytes of one ``%`` per cell, whatever the cells."""

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv") / "table.csv"

    @settings(max_examples=300, deadline=None)
    @given(rows=st.one_of(
        arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
               elements=E18_CELLS),
        arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
               elements=E18_ANY)))
    @example(rows=np.array([[30855461794682.953125, 0.0]]))
    @example(rows=np.array([[1e-99], [9.999999999999999e-100]]))
    @example(rows=np.array([[1.0], [5e-100]]))
    @example(rows=np.array([[_stepped(1e100, -1), -0.0, 5e-324]]))
    def test_e18_equals_percent(self, csv_path, rows):
        io.write_csv(csv_path, "a,b", rows, "%.18e")
        assert csv_path.read_bytes() == _percent_e18("a,b", rows)

    @pytest.mark.parametrize("off", [-1, 1])
    def test_e18_exponent_estimate_off_by_one(self, tmp_path, monkeypatch, off):
        # the kernel takes floor(log10 x) as a cell's exponent; near a power
        # of ten that estimate is one too large, and a log10 that rounded
        # below an integer would make it one too small: such a cell goes to
        # %, here every cell, products up to 1e20 included (off the
        # 1e+-99 edge, where a 3-digit k would send the whole table to %)
        cells = np.concatenate([10.0 ** np.linspace(-97.9, 97.9, 1999), [0.0]])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + off)
        rows = cells.reshape(-1, 2)
        path = tmp_path / "spectrum.csv"
        with np.errstate(invalid="raise"):  # no product overflows its cast
            io.write_csv(path, "f,p", rows, "%.18e")
        monkeypatch.undo()
        assert path.read_bytes() == _percent_e18("f,p", rows)

    @pytest.mark.parametrize("last", [None, -0.0, math.nan, 1e-100])
    def test_e18_large_table(self, tmp_path, last):
        # 9000 cells, about a seventh of spectrum.csv's; one cell outside
        # the kernel's domain, the table's last, sends the whole table to %
        rng = np.random.default_rng(5)
        cells = np.concatenate([
            10.0 ** rng.uniform(-99, 99, 4000),
            rng.integers(64 * 10**13, 64 * 10**15, 4000) / 64,
            rng.integers(0, 2**53, 999).astype(float), [0.0]])
        rng.shuffle(cells)
        if last is not None:
            cells[-1] = last
        rows = cells.reshape(-1, 3)
        path = tmp_path / "spectrum.csv"
        io.write_csv(path, "f,p,q", rows, "%.18e")
        assert path.read_bytes() == _percent_e18("f,p,q", rows)


class TestStreamCounts:
    """A one-pass stream whose blocks hold fewer or more records than it
    promised (4096) raises, whichever consumer uses it up."""

    SERIES = {
        "collect": lambda stream, path: stream.collect(),
        "psd": lambda stream, path: analysis.stream_power_spectral_density(stream),
        "write": lambda stream, path: io.write_time_series(path, stream),
    }
    TAGS = {
        "collect": lambda stream, path: stream.collect(),
        "g2_zero": lambda stream, path: analysis.g2_zero(stream, 1e-3),
        "write": lambda stream, path: io.write_time_tags(path, stream),
    }

    @staticmethod
    def _thirds(n: int):
        edges = [0, n // 3, 2 * n // 3, n]
        return zip(edges[:-1], edges[1:])

    @pytest.mark.parametrize("held", [1024, 4097, 8192])
    @pytest.mark.parametrize("consume", sorted(SERIES))
    def test_series(self, tmp_path, consume, held):
        samples = np.random.default_rng(0).normal(size=held)
        stream = lv.SeriesBlocks(1e-6, 4096, iter(
            [samples[a:b] for a, b in self._thirds(held)]))
        with pytest.raises(ValueError, match="promised"):
            self.SERIES[consume](stream, tmp_path / "z.ts")

    @pytest.mark.filterwarnings("ignore:fewer than 1e4 events")
    @pytest.mark.parametrize("held", [1024, 4097, 8192])
    @pytest.mark.parametrize("consume", sorted(TAGS))
    def test_tags(self, tmp_path, consume, held):
        times = np.linspace(0.0, 1.0, held)
        channels = (np.arange(held) % 2).astype(np.uint8)
        stream = TagBlocks(duration=1.0, n_events=4096, blocks=iter(
            [(channels[a:b], times[a:b]) for a, b in self._thirds(held)]))
        with pytest.raises(ValueError, match="promised"):
            self.TAGS[consume](stream, tmp_path / "tags.bin")


class TestTimeTagIO:
    def _stream(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0, 1.0, 5000))
        ch = rng.integers(0, 2, 5000).astype(np.uint8)
        return TimeTagStream(channels=ch, timestamps=t, duration=1.0, seed=3)

    def test_round_trip(self, tmp_path):
        stream = self._stream()
        path = tmp_path / "tags.bin"
        io.write_time_tags(path, stream)
        back = io.read_time_tags(path).collect()
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert np.array_equal(back.channels, stream.channels)
        assert back.duration == stream.duration and back.seed == 3

    def test_header_without_configs(self, tmp_path):
        path = tmp_path / "tags.bin"
        io.write_time_tags(path, self._stream())
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[4:8])
        assert set(json.loads(raw[8: 8 + n])) == {"duration_s", "seed", "metadata"}

    def test_older_header_with_configs_reads_back(self, tmp_path):
        # files written before the write-only configs key was dropped
        stream = self._stream()
        path = tmp_path / "tags.bin"
        io.write_time_tags(path, stream)
        _replace_header(path, lambda blob: json.dumps(
            dict(json.loads(blob), configs={"a_pi": 0.31, "n_rods": 64}),
            sort_keys=True).encode())
        back = io.read_time_tags(path, io.sha256_file(path)).collect()
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert np.array_equal(back.channels, stream.channels)
        assert (back.duration, back.seed, back.metadata) == (
            stream.duration, stream.seed, stream.metadata)

    @pytest.mark.parametrize("block", [1, 7, 4999, 5000])
    def test_round_trip_in_blocks(self, tmp_path, monkeypatch, block):
        stream = self._stream()
        path = tmp_path / "tags.bin"
        io.write_time_tags(path, stream)
        whole = path.read_bytes()
        monkeypatch.setattr(io, "_BLOCK_RECORDS", block)
        io.write_time_tags(path, stream)
        assert path.read_bytes() == whole
        back = io.read_time_tags(path).collect()
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert np.array_equal(back.channels, stream.channels)

    def test_read_memory_bounded(self, tmp_path):
        # 2^22 events: the payload goes block by block into the two field
        # arrays, with no record array of the whole stream
        n = 2**22
        path = tmp_path / "long.bin"
        io.write_time_tags(path, TimeTagStream(channels=np.zeros(n, np.uint8),
                                               timestamps=np.linspace(0, 1, n),
                                               duration=1.0))
        tracemalloc.start()
        try:
            back = io.read_time_tags(path).collect()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            path.unlink()
        assert len(back) == n
        assert peak < back.channels.nbytes + back.timestamps.nbytes + 12 * 2**20

    @pytest.mark.parametrize("field, index, value", [
        ("time", 3, np.nan), ("time", 4999, np.inf), ("channel", 3, 2),
        ("time", 3, 0.0), ("time", 0, -1.0), ("time", 4999, 2.0),
    ], ids=["nan", "inf", "channel_2", "unsorted", "negative", "after_window"])
    def test_corrupt_payload_rejected(self, tmp_path, field, index, value):
        stream = self._stream()
        path = tmp_path / "tags.bin"
        io.write_time_tags(path, stream)
        raw = bytearray(path.read_bytes())
        offset = len(raw) - 8 - 9 * len(stream) + 9 * index
        if field == "channel":
            raw[offset] = value
        else:
            raw[offset + 1: offset + 9] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(MissingArtifactError, match="corrupt"):
            io.read_time_tags(path).collect()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "tags.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(MissingArtifactError):
            io.read_time_tags(path)

    def test_csv_export(self, tmp_path):
        stream = self._stream()
        path = tmp_path / "tags.csv"
        io.export_time_tags_csv(path, stream)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "channel,timestamp_s"
        assert len(lines) == len(stream) + 1
        ch, t = lines[1].split(",")
        assert int(ch) == int(stream.channels[0])
        assert float(t) == stream.timestamps[0]


    @pytest.mark.parametrize("block", [1 << 18, 7])
    def test_csv_export_bytes(self, tmp_path, monkeypatch, block):
        # one % format per block writes what a per-event loop writes, for a
        # stream and for the blocks of a reader
        monkeypatch.setattr(io, "_BLOCK_RECORDS", block)
        stream = self._stream()
        oracle = "channel,timestamp_s\n" + "".join(
            f"{int(c)},{float(t)!r}\n" for c, t in zip(stream.channels, stream.timestamps))
        io.export_time_tags_csv(tmp_path / "a.csv", stream)
        io.write_time_tags(tmp_path / "tags.bin", stream)
        io.export_time_tags_csv(tmp_path / "b.csv",
                                io.read_time_tags(tmp_path / "tags.bin"))
        assert (tmp_path / "a.csv").read_text() == oracle
        assert (tmp_path / "b.csv").read_text() == oracle

    def test_blocks_write_the_stream_bytes(self, tmp_path):
        # a generator's blocks, count unknown up front, give the bytes of the
        # collected stream; the count goes in the trailer
        stream = self._stream()
        io.write_time_tags(tmp_path / "whole.bin", stream)
        edges = [0, 1, 1, 2400, 5000]
        tags = TagBlocks(duration=stream.duration, seed=stream.seed, blocks=iter(
            [(stream.channels[a:b], stream.timestamps[a:b])
             for a, b in zip(edges[:-1], edges[1:])]))
        digest = io.write_time_tags(tmp_path / "blocks.bin", tags)
        raw = (tmp_path / "blocks.bin").read_bytes()
        assert raw == (tmp_path / "whole.bin").read_bytes()
        assert digest == hashlib.sha256(raw).hexdigest()
        assert tags.n_events == len(stream)
        assert raw[-8:] == struct.pack("<Q", (2**64 - 1) ^ 5000)
        assert len(io.read_time_tags(tmp_path / "blocks.bin")) == 5000

    def test_blocks_that_break_their_count_raise(self, tmp_path):
        tags = TagBlocks(duration=1.0, n_events=3,
                         blocks=iter([(np.zeros(2, np.uint8), np.zeros(2))]))
        with pytest.raises(ValueError, match="promised"):
            io.write_time_tags(tmp_path / "tags.bin", tags)

    def test_stale_digest_outranks_a_defect(self, tmp_path):
        # a block that breaks an invariant still has the rest of the file
        # hashed, so a digest that does not match is what gets reported
        stream = self._stream()
        digest = io.write_time_tags(tmp_path / "tags.bin", stream)
        raw = bytearray((tmp_path / "tags.bin").read_bytes())
        raw[len(raw) - 8 - 9 * len(stream)] = 2  # first channel byte
        (tmp_path / "tags.bin").write_bytes(bytes(raw))
        with pytest.raises(MissingArtifactError, match="checksum mismatch"):
            io.read_time_tags(tmp_path / "tags.bin", digest).collect()
        with pytest.raises(MissingArtifactError, match="channels must be 0 or 1"):
            io.read_time_tags(tmp_path / "tags.bin").collect()

    @pytest.mark.filterwarnings("ignore:fewer than 1e4 events")
    def test_consumers_of_reader_blocks(self, tmp_path, monkeypatch):
        # the blocks are views of one reused 7-record buffer: the histograms
        # over them, and a collect that does not know the count, are those of
        # the stream in memory
        stream = self._stream()
        path = tmp_path / "tags.bin"
        io.write_time_tags(path, stream)
        monkeypatch.setattr(io, "_BLOCK_RECORDS", 7)
        rates, whole_rates = analysis.RateBins(1.0, 1e-3), analysis.RateBins(1.0, 1e-3)
        g2 = analysis.g2_zero(io.read_time_tags(path), 1e-4, rates=rates)
        whole = analysis.g2_zero(stream, 1e-4, rates=whole_rates)
        assert np.array_equal(g2.coincidences, whole.coincidences)
        assert np.array_equal(rates.histogram(), whole_rates.histogram())
        back = TagBlocks(duration=1.0, blocks=io.read_time_tags(path).blocks).collect()
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert np.array_equal(back.channels, stream.channels)


def _replace_file(path, data: bytes) -> None:
    # a new file: truncating one in place can force a data flush (ext4's
    # auto_da_alloc), tens of ms per example
    path.unlink()
    path.write_bytes(data)


class TestReaderByteFlips:
    """One flipped byte in a small artifact: the reader either parses the
    file or raises ``MissingArtifactError``, never another exception, and
    given the file's digest it always raises."""

    # flipped file -> reader(root, digests by name, possibly none)
    READERS = {
        "series.ts": lambda root, sha: io.read_time_series(
            root / "series.ts", sha.get("series.ts")).collect(),
        "tags.bin": lambda root, sha: io.read_time_tags(root / "tags.bin",
                                                         sha.get("tags.bin")).collect(),
        "image.img": lambda root, sha: io.read_image(root / "image.img",
                                                      sha.get("image.img")),
    }

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("flips")
        io.write_time_series(root / "series.ts", TimeSeries(
            sample_interval=1e-6, samples=np.random.default_rng(0).normal(size=100)))
        io.write_time_tags(root / "tags.bin", TimeTagStream(
            channels=[0, 1, 1, 0, 1], timestamps=[0.1, 0.2, 0.2, 0.5, 0.9],
            duration=1.0, seed=4, metadata={"repetition_rate": 1e6}))
        io.write_image(root / "image.img", mo.general_dipole_image(
            np.array([0.0, 0.0, 1.0]), n_pixels=8, half_extent=0.5))
        return root, {name: (root / name).read_bytes() for name in self.READERS}

    @staticmethod
    def _flip(root, pristine, data) -> str:
        """Write one artifact with one byte flipped; returns its name."""
        name = data.draw(st.sampled_from(sorted(pristine)), label="artifact")
        raw = bytearray(pristine[name])
        raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] ^= data.draw(
            st.integers(1, 255), label="xor")
        _replace_file(root / name, bytes(raw))
        return name

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_parses_or_raises_missing_artifact(self, artifacts, data):
        root, pristine = artifacts
        name = self._flip(root, pristine, data)
        try:
            self.READERS[name](root, {})
        except MissingArtifactError:
            pass
        finally:
            _replace_file(root / name, pristine[name])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_stale_digest_raises_missing_artifact(self, artifacts, data):
        root, pristine = artifacts
        digests = {name: hashlib.sha256(raw).hexdigest()
                   for name, raw in pristine.items()}
        name = self._flip(root, pristine, data)
        try:
            with pytest.raises(MissingArtifactError):
                self.READERS[name](root, digests)
        finally:
            _replace_file(root / name, pristine[name])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestCutOrExtended:
    """A container cut short anywhere, or extended by 1-16 bytes, raises
    ``MissingArtifactError`` from its reader, with no digest to check."""

    READERS = {
        "time_series": lambda path: io.read_time_series(path).collect(),
        "time_tags": lambda path: io.read_time_tags(path).collect(),
        "image": io.read_image,
    }

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cut")

    @staticmethod
    def _write(kind, path, data) -> bytes:
        """A small container of ``kind`` with drawn records; returns its bytes."""
        if kind == "time_series":
            io.write_time_series(path, TimeSeries(sample_interval=1e-6, samples=data.draw(
                st.lists(FINITE, max_size=40), label="samples")))
        elif kind == "time_tags":
            times = sorted(data.draw(st.lists(st.floats(0.0, 1.0), max_size=40),
                                     label="timestamps"))
            io.write_time_tags(path, TimeTagStream(channels=data.draw(st.lists(
                st.integers(0, 1), min_size=len(times), max_size=len(times)),
                label="channels"), timestamps=times, duration=1.0))
        else:
            rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
            io.write_image(path, mo.ApertureImage(pixel_pitch=0.1, pixels=data.draw(
                st.lists(st.lists(st.floats(0.0, 1e300), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows), label="pixels")))
        return path.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(READERS)), cut=st.booleans())
    def test_cut_or_extended_raises(self, root, data, kind, cut):
        path = root / "artifact.bin"
        path.unlink(missing_ok=True)  # a new file each example, see _replace_file
        raw = self._write(kind, path, data)
        if cut:
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="end")]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=16), label="extension")
        _replace_file(path, raw)
        with pytest.raises(MissingArtifactError):
            self.READERS[kind](path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_every_cut_of_zero_records_raises(self, tmp_path, kind):
        # zero records end every cut in zero bytes, which as a plain count
        # would make the cut just after the header an empty container
        path = tmp_path / "artifact.bin"
        if kind == "time_series":
            io.write_time_series(path, TimeSeries(sample_interval=1e-6,
                                                  samples=np.zeros(3)))
        elif kind == "time_tags":
            io.write_time_tags(path, TimeTagStream(channels=[0, 0, 0],
                                                   timestamps=np.zeros(3), duration=1.0))
        else:
            io.write_image(path, mo.ApertureImage(pixels=np.zeros((1, 3)),
                                                  pixel_pitch=0.1))
        raw = path.read_bytes()
        for end in range(len(raw)):
            _replace_file(path, raw[:end])
            with pytest.raises(MissingArtifactError):
                self.READERS[kind](path)


class TestRoundTrips:
    """Each writer's file reads back to what was written, and the digest
    the writer returns is the sha256 of the file that its reader accepts."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("round_trips")

    @staticmethod
    def _new(root, *names):
        # writers truncate an existing file, which can force a data flush
        # (see _replace_file); each example writes new files instead
        for name in names:
            (root / name).unlink(missing_ok=True)
        return root / names[0]

    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(FINITE, max_size=40),
           interval=st.floats(1e-12, 1e3),
           units=st.text(max_size=4),
           seed=st.none() | st.integers(0, 2**63 - 1))
    def test_time_series(self, root, samples, interval, units, seed):
        series = TimeSeries(sample_interval=interval, samples=samples,
                            units=units, seed=seed)
        path = self._new(root, "series.ts")
        digest = io.write_time_series(path, series)
        assert digest == io.sha256_file(path)
        back = io.read_time_series(path, digest).collect()
        assert back.samples.tobytes() == series.samples.tobytes()
        assert (back.sample_interval, back.units, back.seed) == (interval, units, seed)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), duration=st.floats(0.0, 1e3),
           rate=st.none() | st.floats(1e-3, 1e12),
           seed=st.none() | st.integers(0, 2**63 - 1))
    def test_time_tags(self, root, data, duration, rate, seed):
        times = sorted(data.draw(st.lists(st.floats(0.0, duration), max_size=40),
                                 label="timestamps"))
        channels = data.draw(st.lists(st.integers(0, 1), min_size=len(times),
                                      max_size=len(times)), label="channels")
        metadata = {} if rate is None else {"repetition_rate": rate}
        stream = TimeTagStream(channels=channels, timestamps=times,
                               duration=duration, seed=seed, metadata=metadata)
        path = self._new(root, "tags.bin")
        digest = io.write_time_tags(path, stream)
        assert digest == io.sha256_file(path)
        back = io.read_time_tags(path, digest).collect()
        assert np.array_equal(back.channels, stream.channels)
        assert back.timestamps.tobytes() == stream.timestamps.tobytes()
        assert (back.duration, back.seed, back.metadata) == (duration, seed, metadata)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5),
           pitch=st.floats(1e-6, 1e3),
           channel=st.sampled_from(["total", "vertical", "horizontal"]),
           radii=st.fixed_dictionaries({}, optional={"bore_radius_f": FINITE,
                                                     "rim_radius_f": FINITE}))
    def test_image(self, root, data, rows, cols, pitch, channel, radii):
        pixels = data.draw(st.lists(st.lists(st.floats(0.0, 1e300), min_size=cols,
                                             max_size=cols),
                                    min_size=rows, max_size=rows), label="pixels")
        image = mo.ApertureImage(pixels=pixels, pixel_pitch=pitch, channel=channel,
                                 metadata=radii)
        path = self._new(root, "image.img")
        digest = io.write_image(path, image)
        assert digest == io.sha256_file(path)
        back = io.read_image(path, digest)
        assert back.pixels.tobytes() == image.pixels.tobytes()
        assert back.pixels.shape == (rows, cols)
        assert (back.pixel_pitch, back.channel, back.metadata) == (
            pitch, channel, radii)


def _yaml_leaves(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _yaml_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


DEFAULT_LEAVES = dict(_yaml_leaves(yaml.safe_load(default_config_yaml())))

# Leaves that feed no model output.
INFORMATIONAL = {
    "output_dir": "names the dataset directory",
}

# A short dataset whose artifacts still depend on every other leaf.
LEAF_BASE = {"simulation": {"duration_s": 2e-4}, "acquisition": {"duration_s": 0.2},
             "image": {"n_pixels": 32}}

# Valid changes for leaves whose default has no generic one.
CHANGED = {
    "trap.field_factor": 3.0e15,
    "emitter.auger_pair_prob": 0.5,
}


# Leaves of a float field; a null default takes its CHANGED value's type.
FLOAT_LEAVES = sorted(name for name, value in {**DEFAULT_LEAVES, **CHANGED}.items()
                      if type(value) is float)


def _leaf_base() -> dict:
    raw = yaml.safe_load(default_config_yaml())
    for section, values in LEAF_BASE.items():
        raw[section].update(values)
    return raw


def _leaf_node(raw: dict, name: str) -> tuple[dict, str]:
    *sections, key = name.split(".")
    for section in sections:
        raw = raw[section]
    return raw, key


def _artifact_digests(raw: dict, out) -> dict:
    """Artifact name -> sha256 of the dataset ``simulate_dataset`` writes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short-trace and coarse-pixel warnings
        simulate_dataset(parse_config(raw), out)
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    shutil.rmtree(out)
    return {name: entry["sha256"] for name, entry in artifacts.items()}


def _changed(name: str, value):
    if name in CHANGED:
        return CHANGED[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value - 1
    return 0.5 if value == 0 else 0.9 * value


class TestConfigLeaves:
    def test_leaf_count(self):
        assert len(DEFAULT_LEAVES) == 39
        assert set(INFORMATIONAL) <= set(DEFAULT_LEAVES)
        assert set(CHANGED) <= set(DEFAULT_LEAVES)

    @pytest.fixture(scope="class")
    def base_digests(self, tmp_path_factory):
        return _artifact_digests(_leaf_base(), tmp_path_factory.mktemp("leaf_base") / "ds")

    @pytest.mark.parametrize("name", sorted(set(DEFAULT_LEAVES) - set(INFORMATIONAL)))
    def test_every_leaf_is_honoured(self, name, base_digests, tmp_path):
        # changing the leaf changes at least one artifact simulate writes
        raw = _leaf_base()
        node, key = _leaf_node(raw, name)
        node[key] = _changed(name, node[key])
        assert _artifact_digests(raw, tmp_path / "changed") != base_digests

    def test_reflectivity_reaches_detection(self):
        default = parse_config({})
        dimmer = parse_config({"mirror": {"reflectivity": 0.36}})
        assert dimmer.detection.mirror.reflectivity == 0.36
        assert dimmer.detection.detection_probability == pytest.approx(
            default.detection.detection_probability / 2)

    def test_detection_reflectivity_key_rejected(self):
        with pytest.raises(ConfigError, match="config error") as err:
            parse_config({"detection": {"mirror_reflectivity": 0.5}})
        assert "mirror_reflectivity" in " ".join(err.value.details)

    @pytest.mark.parametrize("raw, message", [
        ({"seed": True}, "seed: must be an integer"),
        ({"cluster": {"n_rods": True}}, "cluster: n_rods must be an integer"),
        ({"image": {"n_pixels": True}}, "image: n_pixels must be an integer"),
        # seeding takes the root seed modulo 2**32, so these would alias
        # 4294967295, 0 and 7
        ({"seed": -1}, "seed: must be in [0, 2**32)"),
        ({"seed": 2**32}, "seed: must be in [0, 2**32)"),
        ({"seed": 4294967303}, "seed: must be in [0, 2**32)"),
    ], ids=["seed", "cluster.n_rods", "image.n_pixels", "seed_negative",
            "seed_2**32", "seed_4294967303"])
    def test_boolean_integer_rejected(self, raw, message):
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert message in err.value.details


def _optional(**leaves):
    return st.fixed_dictionaries({}, optional=leaves)


PARTIAL_OVERRIDES = _optional(
    seed=st.integers(0, 2**32 - 1),
    output_dir=st.text(alphabet="abc/_-", min_size=1, max_size=12),
    mirror=_optional(reflectivity=st.floats(0.05, 1.0),
                     bore_radius_m=st.floats(0.1e-3, 2e-3)),
    gas=_optional(temperature_k=st.floats(100.0, 400.0)),
    trap=_optional(power_w=st.floats(0.0, 1.0, exclude_min=True),
                   field_factor=st.none() | st.floats(1e14, 1e16)),
    cluster=_optional(n_rods=st.integers(1, 500)),
    emitter=_optional(auger_pair_prob=st.none() | st.floats(0.0, 1.0),
                      grey_level=st.floats(0.0, 1.0),
                      independent_emitters=st.booleans()),
    detection=_optional(a_pi=st.floats(0.0, 1.0),
                        splitter_ratio=st.floats(0.01, 0.99)),
    simulation=_optional(time_step_s=st.floats(1e-10, 1e-9),
                         duration_s=st.floats(1e-3, 1.0),
                         axial_width_m=st.floats(1e-7, 1e-6)),
    acquisition=_optional(duration_s=st.floats(0.1, 100.0) | st.integers(1, 100)),
    image=_optional(n_pixels=st.integers(16, 512),
                    noise_rms_fraction=st.floats(0.0, 0.5)),
)


class TestConfig:
    def test_default_parses(self):
        config = parse_config(yaml.safe_load(default_config_yaml()))
        assert config.cluster.n_rods == 64
        assert config.trap.field_factor == pytest.approx(3.73e15, rel=0.01)
        assert config.emitter.auger_pair_prob < 1.0  # size law applied

    def test_config_adds_no_default_of_its_own(self):
        # each section is its dataclass built from the dataclass defaults,
        # plus the fields it takes from another section
        config = parse_config({})
        linked = {"cluster": {"rod": config.rod, "material": config.material},
                  "emitter": {"n_rods": config.cluster.n_rods},
                  "detection": {"mirror": config.mirror},
                  "simulation": {"seed": config.seed}}
        for f in dataclasses.fields(ExperimentConfig):
            value = getattr(config, f.name)
            if dataclasses.is_dataclass(value):
                assert value == type(value)(**linked.get(f.name, {})), f.name
            elif f.name != "raw":
                assert value == f.default, f.name

    def test_unknown_keys_rejected(self):
        raw = yaml.safe_load(default_config_yaml())
        raw["mirror"]["bogus"] = 1
        raw["unknown_section"] = {}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        joined = " ".join(err.value.details)
        assert "bogus" in joined and "unknown_section" in joined

    def test_field_level_diagnostics_aggregate(self):
        raw = {"mirror": {"reflectivity": 2.0},
               "gas": {"temperature_k": -5},
               "emitter": {"grey_level": 1.2}}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert len(err.value.details) >= 3

    @settings(max_examples=60, deadline=None)
    @given(PARTIAL_OVERRIDES)
    @example({"seed": 321, "cluster": {"n_rods": 8}})
    def test_round_trip_identity(self, raw):
        try:
            config = parse_config(raw)
        except ConfigError as err:
            # each drawn value is valid on its own; only the cluster's physics
            # can fail, with a trap too fast for the time step or too weak
            # for a double
            assert len(err.details) == 1
            assert err.details[0].startswith(
                ("simulation: time_step_s ", "cluster: k_z must be > 0"))
            return
        config2 = parse_config(yaml.safe_load(dump_config(config)))
        assert config2 == config
        assert dump_config(config2) == dump_config(config)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(FLOAT_LEAVES),
           value=st.integers(-2, 1000) | st.integers(0, 10**17))
    @example(name="gas.temperature_k", value=296)
    @example(name="trap.power_w", value=1)
    @example(name="trap.field_factor", value=4 * 10**15)
    def test_int_spelling_is_the_float_spelling(self, name, value):
        # the hash and the dump depend on the value, not on its spelling;
        # an invalid value gives the same diagnostics either way
        spelled = []
        for number in (value, float(value)):
            raw = yaml.safe_load(default_config_yaml())
            node, key = _leaf_node(raw, name)
            node[key] = number
            try:
                config = parse_config(raw)
            except ConfigError as err:
                spelled.append(err.details)
            else:
                spelled.append((config_hash(config), dump_config(config)))
        assert spelled[0] == spelled[1]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 9\ncluster:\n  n_rods: 4\n")
        config = load_config(path)
        assert config.seed == 9
        assert config.cluster.n_rods == 4
        assert config.mirror.focal_length == 2.1e-3  # default preserved


class TestManifest:
    def _dataset(self, tmp_path):
        # name -> sha256 of the bytes written, as the artifact writers return
        config = parse_config({"seed": 1})
        names = {}
        for i in range(3):
            name = f"artifact{i}.bin"
            data = bytes(range(10 * (i + 1)))
            (tmp_path / name).write_bytes(data)
            names[name] = hashlib.sha256(data).hexdigest()
        return config, names

    def test_write_and_verify(self, tmp_path):
        config, names = self._dataset(tmp_path)
        write_manifest(tmp_path, config, names, elapsed_s=0.1)
        manifest = verify_manifest(tmp_path)
        assert set(manifest["artifacts"]) == set(names)

    def test_corruption_detected(self, tmp_path):
        config, names = self._dataset(tmp_path)
        write_manifest(tmp_path, config, names, elapsed_s=0.1)
        (tmp_path / list(names)[1]).write_bytes(b"tampered")
        with pytest.raises(MissingArtifactError, match="checksum"):
            verify_manifest(tmp_path)

    def test_missing_artifact_detected(self, tmp_path):
        config, names = self._dataset(tmp_path)
        write_manifest(tmp_path, config, names, elapsed_s=0.1)
        (tmp_path / list(names)[0]).unlink()
        with pytest.raises(MissingArtifactError):
            verify_manifest(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            verify_manifest(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(MissingArtifactError):
            verify_manifest(tmp_path)


class TestSeeding:
    def test_label_independence(self):
        a = rng_for(1, "alpha").standard_normal(4)
        b = rng_for(1, "beta").standard_normal(4)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        a = rng_for(42, "x", 3).standard_normal(4)
        b = rng_for(42, "x", 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_root_seed_matters(self):
        a = rng_for(1, "x").standard_normal(4)
        b = rng_for(2, "x").standard_normal(4)
        assert not np.allclose(a, b)


class TestTimeTagCsvImport:
    """Channel values that a time-tag stream, however it was produced, accepts."""

    @pytest.mark.parametrize("channels", [[0, 2], [0, 256], [-1, 1]])
    def test_stream_holds_channels_0_and_1(self, channels):
        with pytest.raises(ValueError, match="0 or 1"):
            TimeTagStream(channels=channels, timestamps=[0.1, 0.2], duration=1.0)
