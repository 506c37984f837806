import json
import struct

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmtrap import io_formats as io
from pmtrap import mirror_optics as mo
from pmtrap.config import (
    default_config_yaml,
    dump_config,
    load_config,
    parse_config,
    verify_manifest,
    write_manifest,
)
from pmtrap.errors import ConfigError, MissingArtifactError
from pmtrap.langevin import TimeSeries
from pmtrap.photon_emitter import TimeTagStream
from pmtrap.seeding import rng_for


# header corruptions: first byte not UTF-8, first byte not JSON, a valid JSON
# mapping without the keys the reader needs
CORRUPT_HEADERS = [lambda blob: b"\xff" + blob[1:], lambda blob: b"X" + blob[1:],
                   lambda blob: b"{}"]
CORRUPT_IDS = ["non_utf8", "non_json", "empty_mapping"]


class TestImageIO:
    def test_round_trip(self, tmp_path):
        img = mo.general_dipole_image(np.array([0.0, 0.0, 1.0]))
        path = tmp_path / "img.csv"
        io.write_image_csv(path, img)
        back = io.read_image_csv(path)
        assert np.array_equal(back.pixels, img.pixels)
        assert back.pixel_pitch == img.pixel_pitch
        assert back.channel == img.channel
        assert back.center == img.center

    @pytest.mark.parametrize("corrupt", CORRUPT_HEADERS, ids=CORRUPT_IDS)
    def test_corrupt_sidecar(self, tmp_path, corrupt):
        img = mo.general_dipole_image(np.array([0.0, 0.0, 1.0]), n_pixels=64)
        path = tmp_path / "img.csv"
        io.write_image_csv(path, img)
        sidecar = tmp_path / "img.csv.json"
        sidecar.write_bytes(corrupt(sidecar.read_bytes()))
        with pytest.raises(MissingArtifactError, match="header"):
            io.read_image_csv(path)

    def test_corrupt_pixels(self, tmp_path):
        img = mo.general_dipole_image(np.array([0.0, 0.0, 1.0]), n_pixels=64)
        path = tmp_path / "img.csv"
        io.write_image_csv(path, img)
        path.write_bytes(b"zz" + path.read_bytes()[2:])
        with pytest.raises(MissingArtifactError, match="pixels"):
            io.read_image_csv(path)

    def test_missing_sidecar(self, tmp_path):
        img = mo.general_dipole_image(np.array([0.0, 0.0, 1.0]), n_pixels=64)
        path = tmp_path / "img.csv"
        io.write_image_csv(path, img)
        (tmp_path / "img.csv.json").unlink()
        with pytest.raises(MissingArtifactError):
            io.read_image_csv(path)


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        profile = mo.RadialProfile(radii=np.linspace(0.1, 4, 30),
                                   intensities=np.linspace(1, 0, 30),
                                   counts=np.arange(30))
        path = tmp_path / "profile.csv"
        io.write_profile_csv(path, profile)
        back = io.read_profile_csv(path)
        assert np.array_equal(back.radii, profile.radii)
        assert np.array_equal(back.intensities, profile.intensities)
        assert np.array_equal(back.counts, profile.counts)


def _replace_header(path, corrupt) -> None:
    raw = path.read_bytes()  # magic, u32 length, JSON header, payload
    (n,) = struct.unpack("<I", raw[4:8])
    header = corrupt(raw[8: 8 + n])
    path.write_bytes(raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + n:])


@pytest.mark.parametrize("corrupt", CORRUPT_HEADERS, ids=CORRUPT_IDS)
@pytest.mark.parametrize("kind", ["time_series", "time_tags"])
def test_corrupt_container_header(tmp_path, kind, corrupt):
    path = tmp_path / "artifact.bin"
    if kind == "time_series":
        io.write_time_series(path, TimeSeries(sample_interval=1e-6,
                                              samples=np.arange(100.0)))
    else:
        io.write_time_tags(path, TimeTagStream(channels=[0, 1],
                                               timestamps=[0.1, 0.2], duration=1.0))
    _replace_header(path, corrupt)
    with pytest.raises(MissingArtifactError, match="header"):
        getattr(io, f"read_{kind}")(path)


class TestTimeSeriesIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        series = TimeSeries(sample_interval=4e-9,
                            samples=rng.normal(0, 1e-9, 10000),
                            units="m", seed=7)
        path = tmp_path / "z.ts"
        io.write_time_series(path, series)
        back = io.read_time_series(path)
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


class TestTimeTagIO:
    def _stream(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0, 1.0, 5000))
        ch = rng.integers(0, 2, 5000).astype(np.uint8)
        return TimeTagStream(channels=ch, timestamps=t, duration=1.0, seed=3)

    def test_round_trip(self, tmp_path):
        stream = self._stream()
        path = tmp_path / "tags.bin"
        io.write_time_tags(path, stream, configs={"note": 1})
        back = io.read_time_tags(path)
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert np.array_equal(back.channels, stream.channels)
        assert back.duration == stream.duration and back.seed == 3

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


def _yaml_leaves(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _yaml_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


DEFAULT_LEAVES = dict(_yaml_leaves(yaml.safe_load(default_config_yaml())))

# Leaves that feed no model output.
INFORMATIONAL = {
    "rod.core_diameter_m": "only checked against the rod diameter",
    "excitation.pulse_duration_s": "below the pulse-lag resolution of the analysis",
    "cluster.packing": "a single packing model exists",
    "output_dir": "names the dataset directory",
}

# Valid changes for leaves whose default has no generic one.
CHANGED = {
    "trap.field_factor": 3.0e15,
    "emitter.auger_pair_prob": 0.5,
    "emitter.blink_mode": "bursts",
}


def _with_leaf(name: str, value) -> dict:
    raw = yaml.safe_load(default_config_yaml())
    *sections, key = name.split(".")
    node = raw
    for section in sections:
        node = node[section]
    node[key] = value
    return raw


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
        assert len(DEFAULT_LEAVES) == 47
        assert set(INFORMATIONAL) <= set(DEFAULT_LEAVES)
        assert set(CHANGED) <= set(DEFAULT_LEAVES)

    @pytest.mark.parametrize("name", sorted(set(DEFAULT_LEAVES) - set(INFORMATIONAL)))
    def test_every_leaf_is_honoured(self, name):
        default = parse_config(yaml.safe_load(default_config_yaml()))
        changed = parse_config(_with_leaf(name, _changed(name, DEFAULT_LEAVES[name])))
        assert changed != default

    def test_reflectivity_reaches_detection(self):
        default = parse_config({})
        dimmer = parse_config({"mirror": {"reflectivity": 0.36}})
        assert dimmer.detection.mirror_reflectivity == 0.36
        assert dimmer.detection.detection_probability == pytest.approx(
            default.detection.detection_probability / 2)

    def test_detection_reflectivity_key_rejected(self):
        with pytest.raises(ConfigError, match="config error") as err:
            parse_config({"detection": {"mirror_reflectivity": 0.5}})
        assert "mirror_reflectivity" in " ".join(err.value.details)

    @pytest.mark.parametrize("raw", [{"seed": True},
                                     {"cluster": {"n_rods": True}},
                                     {"image": {"n_pixels": True}}],
                             ids=["seed", "cluster.n_rods", "image.n_pixels"])
    def test_boolean_integer_rejected(self, raw):
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "must be an integer" in " ".join(err.value.details)


def _optional(**leaves):
    return st.fixed_dictionaries({}, optional=leaves)


PARTIAL_OVERRIDES = _optional(
    seed=st.integers(0, 2**32 - 1),
    output_dir=st.text(alphabet="abc/_-", min_size=1, max_size=12),
    mirror=_optional(reflectivity=st.floats(0.05, 1.0),
                     bore_radius_m=st.floats(0.1e-3, 2e-3)),
    gas=_optional(temperature_k=st.floats(100.0, 400.0)),
    trap=_optional(power_w=st.floats(0.0, 1.0),
                   field_factor=st.none() | st.floats(1e14, 1e16)),
    cluster=_optional(n_rods=st.integers(1, 500)),
    emitter=_optional(auger_pair_prob=st.none() | st.floats(0.0, 1.0),
                      blink_mode=st.sampled_from(["steady", "two_state", "bursts"]),
                      independent_emitters=st.booleans()),
    detection=_optional(a_pi=st.floats(0.0, 1.0),
                        splitter_ratio=st.floats(0.01, 0.99)),
    simulation=_optional(duration_s=st.floats(1e-3, 1.0),
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
               "emitter": {"grey_attenuation": 0.2}}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert len(err.value.details) >= 3

    @settings(max_examples=60, deadline=None)
    @given(PARTIAL_OVERRIDES)
    @example({"seed": 321, "cluster": {"n_rods": 8}})
    def test_round_trip_identity(self, raw):
        config = parse_config(raw)
        config2 = parse_config(yaml.safe_load(dump_config(config)))
        assert config2 == config
        assert dump_config(config2) == dump_config(config)

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
        config = parse_config({"seed": 1})
        names = []
        for i in range(3):
            name = f"artifact{i}.bin"
            (tmp_path / name).write_bytes(bytes(range(10 * (i + 1))))
            names.append(name)
        return config, names

    def test_write_and_verify(self, tmp_path):
        config, names = self._dataset(tmp_path)
        write_manifest(tmp_path, config, names, elapsed_s=0.1)
        manifest = verify_manifest(tmp_path)
        assert set(manifest["artifacts"]) == set(names)

    def test_corruption_detected(self, tmp_path):
        config, names = self._dataset(tmp_path)
        write_manifest(tmp_path, config, names, elapsed_s=0.1)
        (tmp_path / names[1]).write_bytes(b"tampered")
        with pytest.raises(MissingArtifactError, match="checksum"):
            verify_manifest(tmp_path)

    def test_missing_artifact_detected(self, tmp_path):
        config, names = self._dataset(tmp_path)
        write_manifest(tmp_path, config, names, elapsed_s=0.1)
        (tmp_path / names[0]).unlink()
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


class TestTimeSeriesCsv:
    def test_export(self, tmp_path):
        series = TimeSeries(sample_interval=1e-6,
                            samples=np.array([0.5, -0.25, 1.0]), units="V")
        path = tmp_path / "s.csv"
        io.export_time_series_csv(path, series)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time_s,signal_V"
        t, v = map(float, lines[2].split(","))
        assert t == 1e-6 and v == -0.25


class TestTimeTagCsvImport:
    def test_round_trip_via_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        t = np.sort(rng.uniform(0, 1.0, 500))
        stream = TimeTagStream(channels=rng.integers(0, 2, 500).astype(np.uint8),
                               timestamps=t, duration=1.0)
        path = tmp_path / "tags.csv"
        io.export_time_tags_csv(path, stream)
        back = io.read_time_tags_csv(path, duration=1.0)
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert np.array_equal(back.channels, stream.channels)
