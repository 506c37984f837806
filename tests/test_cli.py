import builtins
import dataclasses
import io as stdio
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import pmtrap
from pmtrap import _threads, analysis, cli, langevin, trap_mechanics
from pmtrap import io_formats as io
from pmtrap.cli import (
    EXIT_ANALYSIS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MISSING_ARTIFACT,
    EXIT_OK,
    analyze_dataset,
    main,
    simulate_dataset,
)
from pmtrap.config import load_config, parse_config
from pmtrap.errors import MissingArtifactError
from pmtrap.langevin import SeriesBlocks, TimeSeries
from pmtrap import photon_emitter as pe
from pmtrap.photon_emitter import TimeTagStream
from pmtrap.reproduce import run_target
from pmtrap.seeding import rng_for

import oracles

# default motion duration (0.01 s) keeps the width fit inside its 5% band;
# only the photon acquisition is shortened for test speed
SMALL_CONFIG = {
    "seed": 2024,
    "output_dir": "ds",
    "acquisition": {"duration_s": 2.0},
}


@pytest.fixture(scope="module")
def small_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG))
    return path


@pytest.fixture(scope="module")
def dataset(small_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    config = load_config(small_config_path)
    info = simulate_dataset(config, out)
    return config, out, info


# for the tests that rewrite a container: a 5e4-sample detector trace
# (400 kB instead of 20 MB) and the shortest acquisition blink_analysis takes
SHORT_CONFIG = {"seed": 2024, "simulation": {"duration_s": 2e-4},
                "acquisition": {"duration_s": 1.0}}


@pytest.fixture(scope="module")
def short_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("short") / "ds"
    config = parse_config(SHORT_CONFIG)
    return config, out, simulate_dataset(config, out)


def _long_trace_config(n_samples: int = 8 * langevin._BLOCK_SAMPLES + 12345,
                       acquisition_s: float = 0.01):
    """SHORT_CONFIG with a detector trace of ``n_samples`` samples (9 blocks
    by default) and ``acquisition_s`` of time tags."""
    raw = dict(SHORT_CONFIG, simulation={"duration_s": n_samples * 4e-9},
               acquisition={"duration_s": acquisition_s})
    config = parse_config(raw)
    assert config.simulation.time_step == 4e-9
    return config


class TestValidateConfig:
    def test_ok(self, small_config_path, capsys):
        assert main(["validate-config", "--config", str(small_config_path)]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_invalid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("mirror:\n  reflectivity: 7\n  bogus_key: 1\n")
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "reflectivity" in err and "bogus_key" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate-config", "--config",
                     str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    def test_deeply_nested_yaml_exits_2(self, tmp_path, capsys):
        # past the parser's recursion limit: invalid YAML, not a crash
        path = tmp_path / "deep.yaml"
        path.write_text("seed: " + "[" * 10**5 + "]" * 10**5 + "\n")
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert "not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("rod", "core_diameter_m", 2.7e-9), ("trap", "wavelength_m", 1064e-9),
        ("cluster", "packing", "parallel_close_packed"),
        ("excitation", "pulse_duration_s", 82e-9)])
    def test_removed_key_exits_2(self, tmp_path, capsys, section, key, value):
        # keys that fed no output are gone from the schema
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump({section: {key: value}}))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert f"{section}: unknown key {key!r}" in capsys.readouterr().err

    # each diagnostic names the YAML key, also where it comes from the
    # time-step check across sections (the eighth case) or from the section
    # dataclass's own checks (the last nine cases); the ninth names the
    # cluster's physics, whose stiffness underflows
    @pytest.mark.parametrize("text, diagnostic", [
        ('emitter:\n  independent_emitters: "no"\n',
         "emitter: independent_emitters must be true or false"),
        ("trap:\n  power_w: .nan\n", "trap: power_w must be a finite number"),
        ("gas:\n  temperature_k: .nan\n", "gas: temperature_k must be a finite number"),
        ("trap:\n  power_w: " + "1" * 401 + "\n", "trap: power_w must be a finite number"),
        ("trap:\n  power_w: .inf\n", "trap: power_w must be a finite number"),
        ("output_dir: [1, 2]\n", "output_dir: must be a string"),
        ("cluster:\n  n_rods: " + "1" * 401 + "\n",
         "cluster: n_rods must be a finite number"),
        ("simulation:\n  time_step_s: 1.0e-7\n",
         "simulation: time_step_s 1e-07 s too coarse for max(Gamma, Omega) = "
         "6.25e+06 rad/s; require time_step_s < 1.6e-08 s"),
        ("trap:\n  power_w: 5.0e-324\n", "cluster: k_z must be > 0"),
        ("trap:\n  power_w: 0\n", "trap: power_w must be > 0"),
        ("gas:\n  temperature_k: -5\n", "gas: temperature_k must be > 0"),
        ("mirror:\n  bore_radius_m: 0.02\n",
         "mirror: require 0 < bore_radius_m < aperture_radius_m, got 0.02 vs 0.01"),
        ("excitation:\n  average_power_w: -1\n",
         "excitation: average_power_w must be >= 0"),
        ("excitation:\n  saturation_power_w: 0\n",
         "excitation: saturation_power_w must be > 0"),
        ("simulation:\n  detector_gain_v_per_m: -1\n",
         "simulation: detector_gain_v_per_m must be >= 0"),
        ("simulation:\n  detector_noise_floor: -1\n",
         "simulation: detector_noise_floor must be >= 0"),
        ("simulation:\n  duration_s: -1\n", "simulation: duration_s must be > 0"),
        ("mirror:\n  aperture_radius_m: 0.002\n",
         "mirror: rim half-angle must lie in (90, 180) deg, so aperture_radius_m "
         "> 2 focal_length_m; got 50.9 deg"),
    ], ids=["bool-as-string", "nan-power", "nan-temperature", "huge-int",
            "inf-power", "list-as-dir", "huge-int-count", "coarse-time-step",
            "underflowing-trap", "zero-power", "negative-temperature",
            "bore-past-aperture", "negative-power", "zero-saturation-power",
            "negative-gain", "negative-noise-floor", "negative-duration",
            "shallow-mirror"])
    def test_wrong_kind_of_value_exits_2(self, tmp_path, capsys, text, diagnostic):
        # the first ten used to validate, then misbehaved in simulate
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert f"  - {diagnostic}" in capsys.readouterr().err.splitlines()


class TestSimulate:
    def test_seed_outside_32_bits_exits_2(self, tmp_path, capsys):
        # seeding takes the root seed modulo 2**32: -1 would alias 4294967295
        assert main(["simulate", "--seed", "-1", "--out", str(tmp_path / "ds")]) \
            == EXIT_CONFIG
        assert "seed: must be in [0, 2**32)" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_artifacts_present(self, dataset):
        # exactly these files: one container per image, no sidecars
        _, out, _ = dataset
        artifacts = {"tags.bin", "detector.ts", "image_total.img",
                     "image_vertical.img", "image_horizontal.img"}
        assert {p.name for p in out.iterdir()} == artifacts | {"manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == artifacts

    def test_manifest_checksums(self, dataset):
        _, out, _ = dataset
        manifest = json.loads((out / "manifest.json").read_text())
        for name, entry in manifest["artifacts"].items():
            assert io.sha256_file(out / name) == entry["sha256"]

    def test_same_seed_identical_checksums(self, dataset, tmp_path):
        config, out, _ = dataset
        rerun = tmp_path / "rerun"
        simulate_dataset(config, rerun)
        a = json.loads((out / "manifest.json").read_text())["artifacts"]
        b = json.loads((rerun / "manifest.json").read_text())["artifacts"]
        assert {k: v["sha256"] for k, v in a.items()} == \
               {k: v["sha256"] for k, v in b.items()}

    def test_seed_changes_data_not_classes(self, dataset, tmp_path,
                                           small_config_path):
        config, out, _ = dataset
        raw = yaml.safe_load(small_config_path.read_text())
        raw["seed"] = 4048
        other_dir = tmp_path / "other_seed"
        path = tmp_path / "other.yaml"
        path.write_text(yaml.safe_dump(raw))
        simulate_dataset(load_config(path), other_dir)

        res_a = analyze_dataset(out, tmp_path / "ra")
        res_b = analyze_dataset(other_dir, tmp_path / "rb")
        # statistically compatible g2, identical classifications
        sigma = np.hypot(res_a["g2"]["error"], res_b["g2"]["error"])
        assert abs(res_a["g2"]["value"] - res_b["g2"]["value"]) < 5 * sigma
        assert res_a["g2"]["value"] != res_b["g2"]["value"]
        assert res_a["blink"]["classification"] == res_b["blink"]["classification"]
        assert res_a["asymmetry"]["classification"] == res_b["asymmetry"]["classification"]


def _copy_dataset(out: Path, dest: Path, rewrite=()) -> Path:
    """A dataset copy whose files are hard links, except manifest.json and
    the names in ``rewrite``, which are copied.

    A test may write only to the copied files: the writers open with "wb",
    which would truncate a linked file and with it the shared dataset.
    """
    dest.mkdir()
    for p in out.iterdir():
        if p.name == "manifest.json" or p.name in rewrite:
            shutil.copyfile(p, dest / p.name)
        else:
            os.link(p, dest / p.name)
    return dest


def _rehash(dataset_dir: Path, artifact: str) -> None:
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    manifest["artifacts"][artifact]["sha256"] = io.sha256_file(dataset_dir / artifact)
    (dataset_dir / "manifest.json").write_text(json.dumps(manifest))


def _edit_header(edit):
    """A rewrite of a container that passes its JSON header through ``edit``."""
    def rewrite(raw: bytes) -> bytes:
        (n,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8: 8 + n])
        edit(header)
        blob = json.dumps(header).encode()
        return raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + n:]
    return rewrite


def _rewrite_payload(path: Path, at: int, value: bytes) -> None:
    """Overwrite a container's bytes ``at`` a byte offset into its payload,
    or back from its end, the 8-byte trailer."""
    raw = bytearray(path.read_bytes())
    start = (8 + int.from_bytes(raw[4:8], "little") + at if at >= 0
             else len(raw) - 8 + at)
    raw[start: start + len(value)] = value
    path.write_bytes(bytes(raw))


def _short_trace(path: Path) -> None:
    """A detector trace too short for the spectrum's 4 segments."""
    io.write_time_series(path, TimeSeries(
        sample_interval=1e-6, samples=np.random.default_rng(1).normal(size=600)))


def _pulse_tags(path: Path, pulses, channels) -> None:
    """A 1 s tag stream at 1 MHz, one event at each of ``pulses``."""
    io.write_time_tags(path, TimeTagStream(
        channels=np.asarray(channels), timestamps=np.asarray(pulses) * 1e-6,
        duration=1.0, metadata={"repetition_rate": 1e6}))


# the defects of test_failure_precedence, each a rewrite of one artifact
_DEFECTS = {
    "short_trace": _short_trace,
    "nan_sample": lambda path: _rewrite_payload(path, 8 * 1000,
                                                struct.pack("<d", np.nan)),
    "tag_after_window": lambda path: _rewrite_payload(path, -8,
                                                      struct.pack("<d", 1e9)),
    # g2_zero finds no channel-1 event, after reading every tag
    "one_channel": lambda path: _pulse_tags(path, np.arange(0, 10**6, 50),
                                            np.zeros(2 * 10**4, np.uint8)),
}


class TestAnalyze:
    def test_round_trip_recovery(self, dataset, tmp_path):
        config, out, info = dataset
        results = analyze_dataset(out, tmp_path / "res")
        # damping recovered within 5 percent of the injected value
        injected = info["gamma_over_2pi_hz"]
        got = results["motion"]["gamma_over_2pi_hz"]
        assert abs(got / injected - 1.0) < 0.05
        # dipole fraction within 0.05 of the configured mixture
        assert abs(results["dipole_fraction"]["a_pi"]
                   - config.detection.a_pi) < 0.05
        # g2 consistent with the enumeration oracle for the configured chain
        expected = oracles.pulsed_g2_expected(
            config.excitation.mean_excitons, config.emitter.auger_pair_prob)
        assert abs(results["g2"]["value"] - expected) < 5 * results["g2"]["error"]

    def test_idempotent(self, dataset, tmp_path):
        _, out, _ = dataset
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        analyze_dataset(out, d1)
        analyze_dataset(out, d2)
        assert (d1 / "results.json").read_bytes() == (d2 / "results.json").read_bytes()

    def test_emits_tables(self, dataset, tmp_path):
        _, out, _ = dataset
        res_dir = tmp_path / "tables"
        analyze_dataset(out, res_dir)
        for name in ("results.json", "spectrum.csv", "g2_histogram.csv",
                     "blink_histogram.csv", "radial_profile.csv"):
            assert (res_dir / name).exists()

    def test_spectrum_csv_is_percent_of_its_values(self, dataset, tmp_path):
        # "%.18e" round-trips a double, so the file is one % per cell of the
        # values parsed from it, whatever formatted them
        _, out, _ = dataset
        assert main(["analyze", str(out), "--out", str(tmp_path / "res")]) == EXIT_OK
        header, _, body = (tmp_path / "res" / "spectrum.csv").read_text().partition("\n")
        cells = [float(cell) for line in body.splitlines() for cell in line.split(",")]
        assert header == "frequency_hz,psd" and len(cells) > 2
        assert body == "%.18e,%.18e\n" * (len(cells) // 2) % tuple(cells)

    def test_missing_artifact_exits_4(self, dataset, tmp_path, capsys):
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "broken")
        (broken / "tags.bin").unlink()
        code = main(["analyze", str(broken)])
        assert code == EXIT_MISSING_ARTIFACT
        assert "tags.bin" in capsys.readouterr().err

    def test_corrupt_manifest_exits_4(self, dataset, tmp_path):
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "corrupt")
        (broken / "manifest.json").write_text("{broken")
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT

    @pytest.mark.parametrize("rewrite", [
        lambda m: b"[]",
        lambda m: json.dumps({**m, "artifacts": {
            name: {"bytes": entry["bytes"]}
            for name, entry in m["artifacts"].items()}}).encode(),
        lambda m: b"\xff\xfe" + json.dumps(m).encode(),
        lambda m: b"{}",
        lambda m: json.dumps({**m, "artifacts": {
            name: entry for name, entry in m["artifacts"].items()
            if name != "tags.bin"}}).encode(),
    ], ids=["list", "no_sha256", "non_utf8", "empty_object", "unlisted_tags"])
    def test_manifest_shape_exits_4(self, dataset, tmp_path, rewrite, capsys):
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "shape")
        manifest = json.loads((out / "manifest.json").read_text())
        (broken / "manifest.json").write_bytes(rewrite(manifest))
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert "manifest.json" in capsys.readouterr().err

    def test_csv_image_dataset_exits_4(self, dataset, tmp_path, capsys):
        # a dataset of the earlier format lists image_total.csv, not .img
        _, out, _ = dataset
        old = _copy_dataset(out, tmp_path / "old")
        manifest = json.loads((old / "manifest.json").read_text())
        (old / "image_total.img").rename(old / "image_total.csv")
        artifacts = manifest["artifacts"]
        artifacts["image_total.csv"] = artifacts.pop("image_total.img")
        (old / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(old)]) == EXIT_MISSING_ARTIFACT
        assert ("manifest.json does not list image_total.img"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("entry", ["absolute", "parent", "subdirectory",
                                       "symlink", "dot"])
    def test_artifact_outside_dataset_exits_4(self, dataset, tmp_path, entry,
                                              capsys):
        # a manifest name must be a plain file in the dataset: a path that
        # leaves it is not read, even when its checksum matches
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "ds")
        outside = tmp_path / "outside.txt"
        outside.write_text("not a dataset artifact\n")
        (broken / "sub").mkdir()
        shutil.copyfile(outside, broken / "sub" / "outside.txt")
        os.symlink(outside, broken / "link.txt")
        name = {"absolute": str(outside), "parent": "../outside.txt",
                "subdirectory": "sub/outside.txt", "symlink": "link.txt",
                "dot": "."}[entry]
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["artifacts"][name] = {"sha256": io.sha256_file(outside)}
        (broken / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(broken), "--out", str(tmp_path / "res")]) \
            == EXIT_MISSING_ARTIFACT
        assert name in capsys.readouterr().err

    def test_corrupt_image_exits_4(self, dataset, tmp_path, capsys):
        # checksum updated, so the container reader itself must reject the file
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "magic", rewrite=("image_total.img",))
        image = broken / "image_total.img"
        image.write_bytes(b"zz" + image.read_bytes()[2:])
        _rehash(broken, "image_total.img")
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert "image_total.img" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, key, record", [
        ("detector.ts", "n_samples", 8), ("tags.bin", "n_events", 9),
        ("image_total.img", "n_pixels", 8)])
    def test_earlier_container_layout_exits_4(self, short_dataset, tmp_path, artifact,
                                              key, record, capsys):
        # checksum updated: the layout before the trailer (magic ending in 1,
        # the record count in the header, no trailer) is not read
        _, out, _ = short_dataset
        broken = _copy_dataset(out, tmp_path / "v1", rewrite=(artifact,))
        path = broken / artifact
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8: 8 + n])
        header[key] = (len(raw) - 16 - n) // record
        blob = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:3] + b"1" + struct.pack("<I", len(blob)) + blob
                         + raw[8 + n: -8])
        _rehash(broken, artifact)
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "bad magic" in err and artifact in err

    @pytest.mark.parametrize("artifact", ["manifest.json", "image_total.img"])
    def test_deeply_nested_json_exits_4(self, short_dataset, tmp_path, artifact,
                                        capsys):
        # past the parser's recursion limit: a corrupt artifact, not a crash
        nested = b"[" * 10**5 + b"]" * 10**5
        _, out, _ = short_dataset
        broken = _copy_dataset(out, tmp_path / "deep", rewrite=(artifact,))
        path = broken / artifact
        if artifact == "manifest.json":
            path.write_bytes(nested)
        else:
            raw = path.read_bytes()
            (n,) = struct.unpack("<I", raw[4:8])
            path.write_bytes(raw[:4] + struct.pack("<I", len(nested)) + nested
                             + raw[8 + n:])
            _rehash(broken, artifact)
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert artifact in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [*range(1, 10), "header", "trailer"])
    @pytest.mark.parametrize("artifact", ["detector.ts", "tags.bin", "image_total.img"])
    def test_truncated_container_exits_4(self, short_dataset, tmp_path, artifact,
                                         cut, capsys):
        # checksum updated, so the container reader itself must reject the
        # payload; a number cuts that many bytes off the payload's end and
        # keeps the trailer, "header" cuts inside the JSON header and
        # "trailer" the file's last byte
        _, out, _ = short_dataset
        broken = _copy_dataset(out, tmp_path / "cut", rewrite=(artifact,))
        path = broken / artifact
        raw = path.read_bytes()
        if cut == "header":
            raw = raw[: 8 + int.from_bytes(raw[4:8], "little") // 2]
        else:
            raw = raw[:-1] if cut == "trailer" else raw[: -8 - cut] + raw[-8:]
        path.write_bytes(raw)
        _rehash(broken, artifact)
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert artifact in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, at, value", [
        ("detector.ts", 8 * 1000, struct.pack("<d", np.nan)),
        ("detector.ts", -8, struct.pack("<d", np.inf)),
        ("tags.bin", 9 * 10 + 1, struct.pack("<d", np.nan)),
        ("tags.bin", 9 * 10, b"\x02"),
        ("tags.bin", 9 * 10 + 1, struct.pack("<d", 0.0)),
        ("tags.bin", 1, struct.pack("<d", -1.0)),
        ("tags.bin", -8, struct.pack("<d", 1e9)),
        ("image_total.img", 0, struct.pack("<d", -1.0)),
        ("image_total.img", -8, struct.pack("<d", np.nan)),
    ], ids=["nan_sample", "inf_sample", "nan_timestamp", "channel_2", "unsorted",
            "negative_timestamp", "after_window", "negative_pixel", "nan_pixel"])
    def test_corrupt_payload_exits_4(self, short_dataset, tmp_path, artifact, at,
                                     value, capsys):
        # checksum updated: values the simulator cannot produce are a corrupt
        # artifact; ``at`` is a byte offset into the payload, or back from its
        # end, the 8-byte trailer
        _, out, _ = short_dataset
        broken = _copy_dataset(out, tmp_path / "payload", rewrite=(artifact,))
        _rewrite_payload(broken / artifact, at, value)
        _rehash(broken, artifact)
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert artifact in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, rewrite", [
        ("tags.bin", _edit_header(lambda h: h.update(metadata=[]))),
        ("tags.bin", _edit_header(
            lambda h: h["metadata"].update(repetition_rate="x"))),
        ("tags.bin", _edit_header(
            lambda h: h["metadata"].update(repetition_rate=0))),
        ("tags.bin", _edit_header(lambda h: h["metadata"].pop("repetition_rate"))),
        ("image_total.img", _edit_header(lambda h: h.update(pixel_pitch_f="x"))),
        ("image_total.img", _edit_header(lambda h: h.update(pixel_pitch_f=float("nan")))),
        ("image_total.img", _edit_header(lambda h: h.update(metadata=[]))),
        ("image_total.img", _edit_header(
            lambda h: h.update(metadata={"bore_radius_f": "x"}))),
        ("image_total.img", _edit_header(lambda h: h.update(pixel_pitch_f=-1))),
        ("image_total.img", _edit_header(lambda h: h.update(channel="diag"))),
        ("image_total.img", _edit_header(lambda h: h.update(shape=[128, 256]))),
        # valid JSON, but an int beyond the float range
        ("detector.ts", _edit_header(lambda h: h.update(sample_interval_s=10**400))),
        ("tags.bin", _edit_header(lambda h: h.update(duration_s=10**400))),
        ("tags.bin", _edit_header(lambda h: h["metadata"].update(repetition_rate=10**400))),
        ("image_total.img", _edit_header(lambda h: h.update(pixel_pitch_f=10**400))),
        ("image_total.img", _edit_header(
            lambda h: h["metadata"].update(bore_radius_f=10**400))),
        # a sampling rate beyond the float range
        ("detector.ts", _edit_header(lambda h: h.update(sample_interval_s=1e-320))),
        # pulse and bin indices beyond int64
        ("tags.bin", _edit_header(lambda h: h.update(duration_s=1e300))),
        ("tags.bin", _edit_header(lambda h: h["metadata"].update(repetition_rate=1e300))),
        # a known channel, but not the one analyze fits
        ("image_total.img", _edit_header(lambda h: h.update(channel="vertical"))),
    ], ids=["tags_metadata_list", "rate_string", "rate_zero", "rate_missing",
            "pitch_string", "pitch_nan", "image_metadata_list",
            "bore_string", "pitch_negative", "channel_diag", "shape_mismatch",
            "interval_huge_int", "duration_huge_int", "rate_huge_int", "pitch_huge_int",
            "bore_huge_int", "interval_subnormal", "duration_huge", "rate_huge",
            "channel_vertical"])
    def test_corrupt_header_value_exits_4(self, dataset, tmp_path, artifact,
                                          rewrite, capsys):
        # checksum updated: header values of the wrong type or range are a
        # corrupt artifact, not a traceback or a config error
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "header", rewrite=(artifact,))
        path = broken / artifact
        path.write_bytes(rewrite(path.read_bytes()))
        _rehash(broken, artifact)
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert artifact in capsys.readouterr().err

    def test_image_header_center_px_ignored(self, dataset, tmp_path):
        # images written before the optical axis was fixed at the grid's
        # centre carry it as center_px; the reader ignores the extra key
        _, out, _ = dataset
        older = _copy_dataset(out, tmp_path / "older", rewrite=("image_total.img",))
        path = older / "image_total.img"
        path.write_bytes(_edit_header(lambda h: h.update(center_px=[
            (h["shape"][1] - 1) / 2, (h["shape"][0] - 1) / 2]))(path.read_bytes()))
        _rehash(older, "image_total.img")
        assert b'"center_px": [' in path.read_bytes()
        for ds, res in ((older, "older_res"), (out, "res")):
            assert main(["analyze", str(ds), "--out", str(tmp_path / res)]) == EXIT_OK
        assert ((tmp_path / "older_res" / "results.json").read_bytes()
                == (tmp_path / "res" / "results.json").read_bytes())

    @pytest.mark.parametrize("samples", [
        np.random.default_rng(1).normal(size=600),
        np.random.default_rng(11).normal(size=2**17),
    ], ids=["too_short_for_4_segments", "flat_spectrum"])
    def test_analysis_failure_exits_5(self, dataset, tmp_path, samples, capsys):
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "motion", rewrite=("detector.ts",))
        io.write_time_series(broken / "detector.ts",
                             TimeSeries(sample_interval=1e-6, samples=samples))
        _rehash(broken, "detector.ts")
        assert main(["analyze", str(broken)]) == EXIT_ANALYSIS
        assert "analysis error" in capsys.readouterr().err

    def test_each_parsed_artifact_opened_once(self, dataset, tmp_path, monkeypatch):
        # one read per artifact: the reader that parses it also checks its
        # sha256, so the manifest check does not open it again
        _, out, _ = dataset
        opened = []

        def counting(open_):
            def wrapper(file, *args, **kwargs):
                opened.append(Path(file).name if isinstance(file, (str, Path)) else None)
                return open_(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(stdio, "open", counting(stdio.open))
        analyze_dataset(out, tmp_path / "res")
        for name in cli.ANALYZED_ARTIFACTS:
            assert opened.count(name) == 1, name

    @pytest.mark.parametrize("artifact", [*cli.ANALYZED_ARTIFACTS, "image_vertical.img"])
    def test_stale_manifest_exits_4(self, short_dataset, tmp_path, artifact, capsys):
        # one changed byte that still parses: only the digest can reject it,
        # and it does before analyze writes anything
        _, out, _ = short_dataset
        broken = _copy_dataset(out, tmp_path / "stale", rewrite=(artifact,))
        path = broken / artifact
        raw = bytearray(path.read_bytes())
        raw[-16] ^= 1  # last value, lowest mantissa bit, before the trailer
        path.write_bytes(bytes(raw))
        res = tmp_path / "res"
        assert main(["analyze", str(broken), "--out", str(res)]) \
            == EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "checksum mismatch" in err and artifact in err
        assert not (res / "results.json").exists()
        assert not (res / "spectrum.csv").exists()

    def test_short_trace_with_stale_digest_exits_4(self, dataset, tmp_path, capsys):
        # too short for a PSD (exit 5 with a matching digest), but the
        # digest is checked first
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "short", rewrite=("detector.ts",))
        _short_trace(broken / "detector.ts")
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "checksum mismatch" in err and "detector.ts" in err

    @pytest.mark.parametrize("trace, tags, max_lag, code, named", [
        ("short_trace", "tag_after_window", "50", EXIT_MISSING_ARTIFACT, "tags.bin"),
        ("nan_sample", "tag_after_window", "50", EXIT_MISSING_ARTIFACT, "detector.ts"),
        ("short_trace", "one_channel", "50", EXIT_ANALYSIS, None),
        ("short_trace", "tag_after_window", "0", EXIT_MISSING_ARTIFACT, "tags.bin"),
        ("short_trace", None, "0", EXIT_ANALYSIS, None),
        (None, "tag_after_window", "0", EXIT_MISSING_ARTIFACT, "tags.bin"),
    ], ids=["corrupt_tags_over_short_trace", "corrupt_trace_over_corrupt_tags",
            "short_trace_over_g2_failure", "corrupt_tags_unread_by_g2",
            "short_trace_over_max_lag_0", "corrupt_tags_over_max_lag_0"])
    def test_failure_precedence(self, short_dataset, tmp_path, trace, tags, max_lag,
                                code, named, capsys):
        # checksums updated: of several failures, the one a serial read
        # meets first wins, a corrupt detector.ts, then a corrupt tags.bin
        # (also where g2_zero fails before reading it, as at --max-lag 0),
        # then a trace too short for the spectrum, then g2_zero's own errors
        _, out, _ = short_dataset
        broken = _copy_dataset(out, tmp_path / "ds", rewrite=("detector.ts", "tags.bin"))
        for artifact, defect in (("detector.ts", trace), ("tags.bin", tags)):
            if defect is not None:
                _DEFECTS[defect](broken / artifact)
                _rehash(broken, artifact)
        res = tmp_path / "res"
        assert main(["analyze", str(broken), "--out", str(res),
                     "--max-lag", max_lag]) == code
        err = capsys.readouterr().err
        if named is None:
            assert err.startswith("analysis error: series too short")
        else:
            other = {"tags.bin": "detector.ts", "detector.ts": "tags.bin"}[named]
            assert "artifact corrupt" in err and named in err and other not in err
        assert not (res / "results.json").exists()

    @pytest.fixture(scope="class")
    def boundary_dataset(self, short_dataset, tmp_path_factory):
        # a tags.bin of _BLOCK_RECORDS + 1 records, one event every third
        # pulse on alternating channels: its last record opens the reader's
        # second block
        _, out, _ = short_dataset
        ds = _copy_dataset(out, tmp_path_factory.mktemp("boundary") / "ds",
                           rewrite=("tags.bin",))
        n = io._BLOCK_RECORDS + 1
        io.write_time_tags(ds / "tags.bin", TimeTagStream(
            channels=np.arange(n) % 2, timestamps=np.arange(n) * 3e-6, duration=1.0,
            metadata={"repetition_rate": 1e6}))
        _rehash(ds, "tags.bin")
        return ds

    def test_block_boundary_dataset_analyzes(self, boundary_dataset, tmp_path):
        # the undamaged file, so that each defect below is what fails
        assert main(["analyze", str(boundary_dataset), "--out",
                     str(tmp_path / "res")]) == EXIT_OK

    @pytest.mark.parametrize("defect, value", [
        ("unsorted", struct.pack("<d", (3 * io._BLOCK_RECORDS - 4) * 1e-6)),
        ("channel_2", b"\x02"),
        ("after_window", struct.pack("<d", 1.5)),
    ], ids=["unsorted", "channel_2", "after_window"])
    def test_defect_at_block_boundary_exits_4(self, boundary_dataset, tmp_path,
                                              defect, value, capsys):
        # checksum updated: the only defect sits at record _BLOCK_RECORDS,
        # which the reader checks against the block before it
        broken = _copy_dataset(boundary_dataset, tmp_path / "ds", rewrite=("tags.bin",))
        path = broken / "tags.bin"
        raw = bytearray(path.read_bytes())
        record = len(raw) - 8 - 9  # record _BLOCK_RECORDS, the last one
        if defect == "channel_2":
            raw[record] = value[0]
        else:
            raw[record + 1: record + 9] = value
        path.write_bytes(bytes(raw))
        _rehash(broken, "tags.bin")
        res = tmp_path / "res"
        assert main(["analyze", str(broken), "--out", str(res)]) == EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "tags.bin" in err and f"[{io._BLOCK_RECORDS}, " in err
        assert not (res / "results.json").exists()

    def test_max_lag_sets_histogram_range(self, dataset, tmp_path, capsys):
        _, out, _ = dataset
        res = tmp_path / "lag10"
        assert main(["analyze", str(out), "--out", str(res),
                     "--max-lag", "10"]) == EXIT_OK
        rows = (res / "g2_histogram.csv").read_text().strip().split("\n")[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(-10, 11))

    def test_max_lag_zero_exits_2(self, dataset, tmp_path):
        _, out, _ = dataset
        assert main(["analyze", str(out), "--out", str(tmp_path / "lag0"),
                     "--max-lag", "0"]) == EXIT_CONFIG

    def test_no_manifest_exits_4(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["analyze", str(empty)]) == EXIT_MISSING_ARTIFACT


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    # the dataset path holds fixed-size blocks of the detector trace, never
    # the trace: at 2^23 samples (64 MiB) the peaks stay below the trace's
    # size and within 8 MiB of the same call at 2^21 samples; a short
    # acquisition keeps the photon path small
    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        peaks = {}
        for n in (2**21, 2**23):
            root = tmp_path_factory.mktemp(f"samples{n}")
            config = parse_config({
                "seed": 5, "acquisition": {"duration_s": 0.5},
                "simulation": {"time_step_s": 4e-9, "duration_s": n * 4e-9}})
            simulate = _traced_peak(lambda: simulate_dataset(config, root / "ds"))
            assert (root / "ds" / "detector.ts").stat().st_size > 8 * n
            analyze = _traced_peak(lambda: analyze_dataset(root / "ds", root / "res"))
            peaks[n] = {"simulate": simulate, "analyze": analyze}
            shutil.rmtree(root)
        return peaks

    @pytest.mark.parametrize("stage", ["simulate", "analyze"])
    def test_peak_bounded(self, peaks, stage):
        assert peaks[2**23][stage] < 64 * 2**20
        assert peaks[2**23][stage] < peaks[2**21][stage] + 8 * 2**20


class TestBoundedPhotonMemory:
    # the photon path holds fixed-size blocks of pulses and of tags, never
    # the stream: from a 10 s to a 40 s acquisition (6 to 24 MB of tags.bin)
    # neither peak moves by more than 8 MiB; a short detector trace and
    # small images keep the rest of the dataset small
    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        peaks = {}
        for duration in (10.0, 40.0):
            root = tmp_path_factory.mktemp(f"acquisition{duration:g}")
            config = parse_config({
                "seed": 5, "acquisition": {"duration_s": duration},
                "simulation": {"duration_s": 2e-4}, "image": {"n_pixels": 64}})
            simulate = _traced_peak(lambda: simulate_dataset(config, root / "ds"))
            size = (root / "ds" / "tags.bin").stat().st_size
            analyze = _traced_peak(lambda: analyze_dataset(root / "ds", root / "res"))
            peaks[duration] = {"simulate": simulate, "analyze": analyze, "size": size}
            shutil.rmtree(root)
        return peaks

    @pytest.mark.parametrize("stage", ["simulate", "analyze"])
    def test_peak_bounded(self, peaks, stage):
        assert peaks[40.0]["size"] > 3.5 * peaks[10.0]["size"]
        assert peaks[40.0][stage] < peaks[10.0][stage] + 8 * 2**20


class TestReproduceCli:
    def test_unknown_figure_exits_2(self):
        assert main(["reproduce", "--figure", "fig99"]) == EXIT_CONFIG

    def test_appB_pmin(self, tmp_path, capsys):
        code = main(["reproduce", "--figure", "appB_pmin",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["P_min_mW"] == pytest.approx(41.0, rel=1e-9)
        assert (tmp_path / "appB_pmin.csv").exists()
        assert (tmp_path / "appB_pmin_summary.json").exists()

    def test_appE_counts_the_collected_stream(self, tmp_path):
        # appE counts the blocks without holding them: its Monte Carlo rate
        # is that of the collected stream on the same seed
        config = parse_config({"seed": 31})
        summary = run_target("appE_rate", config, tmp_path)
        emitter = pe.EmitterModel(n_rods=config.emitter.n_rods,
                                  quantum_yield=config.emitter.quantum_yield,
                                  auger_pair_prob=1.0, grey_level=1.0)
        stream = pe.generate_time_tags(
            config.excitation, emitter, config.detection, 10.0,
            seed=int(rng_for(config.seed, "appE-rate").integers(2**31)))
        assert summary["monte_carlo_rate_hz"] == len(stream) / 10.0
        assert summary["n_pulses"] == stream.metadata["n_pulses"]
        row = (tmp_path / "appE_rate.csv").read_text().split("\n")[-2]
        assert row == f"monte_carlo_rate_hz,{len(stream) / 10.0!r}"

    def test_fig1a_draws_each_orientation_once(self, tmp_path, monkeypatch):
        # the aligned clusters share one image; the table is the one of a
        # per-row computation on the same draws
        from pmtrap import analysis, mirror_optics
        config = parse_config({"seed": 31})
        rng = rng_for(config.seed, "fig1a")
        sizes = sorted(set(np.round(np.exp(
            rng.uniform(np.log(2), np.log(80), 24))).astype(int).tolist()))
        rows, orientations = [], set()
        for n in sizes:
            emitter = pe.EmitterModel(n_rods=n, quantum_yield=config.emitter.quantum_yield,
                                      auger_pair_prob=None, grey_level=1.0)
            stream = pe.generate_time_tags(config.excitation, emitter, config.detection,
                                           1.0, seed=int(rng.integers(2**31)))
            g2 = analysis.g2_zero(stream, 1.0 / config.excitation.repetition_rate)
            beta = 0.0 if n <= 27 else np.radians(rng.normal(35.0, 10.0))
            orientation = np.array([np.sin(beta), 0.0, np.cos(beta)])
            orientations.add(tuple(orientation.tolist()))
            asym = mirror_optics.asymmetry_metric(mirror_optics.general_dipole_image(
                orientation / np.linalg.norm(orientation), config.mirror))
            rows.append((n, config.cluster_physics(n_rods=n).p_min * 1e3, g2.g2,
                         g2.error, asym.score, asym.classification))
        (tmp_path / "expected.csv").write_text(
            "n_rods,p_min_mW,g2_zero,g2_error,asymmetry_score,classification\n"
            + "".join(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                               else str(v) for v in row) + "\n" for row in rows))
        assert min(sizes) <= 27 < max(sizes)

        calls = []
        image = mirror_optics.general_dipole_image
        monkeypatch.setattr(mirror_optics, "general_dipole_image",
                            lambda *args: calls.append(args) or image(*args))
        run_target("fig1a", config, tmp_path / "out")
        assert len(calls) == len(orientations) < len(sizes)
        assert ((tmp_path / "out" / "fig1a.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())

    @pytest.mark.parametrize("text", ["excitation:\n  average_power_w: 0\n",
                                      "emitter:\n  quantum_yield: 0\n"],
                             ids=["zero-power", "zero-quantum-yield"])
    def test_appE_rate_at_zero_rate_exits_5(self, tmp_path, capsys, text):
        # nothing is detected, so the Monte Carlo rate has no relative error
        path = tmp_path / "dark.yaml"
        path.write_text(text)
        assert main(["reproduce", "--figure", "appE_rate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_ANALYSIS
        assert "analysis error: appE_rate" in capsys.readouterr().err

    def test_all_runs_every_target_past_a_failure(self, tmp_path, capsys):
        # appE_rate (and fig1a) have nothing detected to measure, but fig1b
        # and fig2b do not read the quantum yield and are still written
        path = tmp_path / "dark.yaml"
        path.write_text("emitter:\n  quantum_yield: 0\n")
        out = tmp_path / "out"
        assert main(["reproduce", "--figure", "all", "--config", str(path),
                     "--out", str(out)]) == EXIT_ANALYSIS
        assert "analysis error: appE_rate: " in capsys.readouterr().err
        for name in ("fig1b", "fig2b"):
            assert (out / f"{name}.csv").exists()
            assert (out / f"{name}_summary.json").exists()

    def test_appA_efficiency(self, tmp_path, capsys):
        code = main(["reproduce", "--figure", "appA_efficiency",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["linear"] == pytest.approx(0.94, abs=0.005)
        assert summary["circular"] == pytest.approx(0.76, abs=0.005)

    def test_appC_gamma(self, tmp_path, capsys):
        code = main(["reproduce", "--figure", "appC_gamma",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["gamma_over_2pi_hz"] == pytest.approx(2.0e6, rel=0.10)

    def test_threads_below_one_exits_2(self, tmp_path):
        assert main(["reproduce", "--figure", "appB_pmin", "--threads", "0",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_threads_flag_removed(self, tmp_path):
        assert main(["reproduce", "--figure", "appB_pmin", "--threads", "2",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_output_root_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PMTRAP_OUTPUT_ROOT", str(tmp_path))
        code = main(["reproduce", "--figure", "appB_pmin"])
        assert code == EXIT_OK
        assert (tmp_path / "reproduce" / "appB_pmin.csv").exists()


class TestInternalErrors:
    def test_key_error_is_not_a_config_error(self, monkeypatch):
        # an internal KeyError is a bug: it propagates instead of being
        # reported as an invalid configuration (exit 2)
        def broken():
            raise KeyError("internal")
        monkeypatch.setattr(cli, "default_config_yaml", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["default-config"])


class TestDefaultConfig:
    def test_prints_valid_yaml(self, capsys):
        assert main(["default-config"]) == EXIT_OK
        raw = yaml.safe_load(capsys.readouterr().out)
        assert raw["cluster"]["n_rods"] == 64

    def test_python_dash_m(self, capsys):
        src = str(Path(pmtrap.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-m", "pmtrap", "default-config"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == EXIT_OK
        main(["default-config"])
        assert run.stdout == capsys.readouterr().out


class TestSimulateErrors:
    def test_threads_flag_removed(self, tmp_path):
        assert main(["simulate", "--threads", "2",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("cluster:\n  n_rods: 0\n")
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "n_rods" in capsys.readouterr().err

    def test_failed_run_leaves_no_manifest(self, tmp_path):
        # unstable Langevin step: simulation aborts before any manifest
        path = tmp_path / "bad_step.yaml"
        path.write_text("simulation:\n  time_step_s: 1.0e-6\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()  # rejected with the config, before any output


class TestOutputNotADirectory:
    # an --out path that is an existing file cannot take the outputs: I/O error
    @pytest.mark.parametrize("command", [
        ["simulate"], ["reproduce", "--figure", "appA_efficiency"], ["analyze"]])
    def test_exits_3(self, short_dataset, tmp_path, command, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        if command == ["analyze"]:
            command = ["analyze", str(short_dataset[1])]
        assert main(command + ["--out", str(out)]) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err
        assert out.read_text() == ""


class TestHelperThread:
    # simulate and analyze run the photon stream on one helper thread,
    # which has ended whenever they return or raise
    def test_simulate(self, tmp_path):
        simulate_dataset(parse_config(SHORT_CONFIG), tmp_path / "ds")

    def test_simulate_unstable_step(self, tmp_path):
        # parse_config rejects the step; the Langevin layer checks it again
        config = parse_config({})
        config = dataclasses.replace(config, simulation=dataclasses.replace(
            config.simulation, time_step=1.0e-6))
        with pytest.raises(ValueError, match="time_step"):
            simulate_dataset(config, tmp_path / "ds")
        assert not (tmp_path / "ds" / "manifest.json").exists()

    def test_simulate_failed_motion_stream(self, tmp_path, monkeypatch):
        # the photon stream runs to its end beside a motion stream that
        # fails after its first block of nine, while the Langevin helper
        # has the next two in flight; the run leaves no manifest
        detector_blocks = cli.langevin.detector_blocks

        def failing(motion, simulation):
            series = detector_blocks(motion, simulation)

            def blocks():
                yield next(series.blocks)
                raise OSError("disk full")
            return SeriesBlocks(series.sample_interval, series.n_samples, blocks())
        monkeypatch.setattr(cli.langevin, "detector_blocks", failing)
        with pytest.raises(OSError, match="disk full"):
            simulate_dataset(_long_trace_config(), tmp_path / "ds")
        assert len(io.read_time_tags(tmp_path / "ds" / "tags.bin").collect()) > 0
        assert not (tmp_path / "ds" / "manifest.json").exists()

    def test_producer_fails_mid_stream(self, tmp_path, monkeypatch):
        # the recurrence fails at its fourth block on the Langevin helper;
        # the calling thread raises that exception after the first three
        axial_motion_blocks = cli.langevin.axial_motion_blocks
        detector_blocks = cli.langevin.detector_blocks
        diverged = ArithmeticError("recurrence diverged")
        read_out = []

        def failing(*args):
            motion = axial_motion_blocks(*args)

            def blocks():
                for k, block in enumerate(motion.blocks):
                    if k == 3:
                        raise diverged
                    yield block
            return SeriesBlocks(motion.sample_interval, motion.n_samples, blocks(),
                                motion.units, motion.seed)

        def counting(motion, simulation):
            series = detector_blocks(motion, simulation)

            def blocks():
                for block in series.blocks:
                    read_out.append(len(block))
                    yield block
            return SeriesBlocks(series.sample_interval, series.n_samples, blocks())
        monkeypatch.setattr(cli.langevin, "axial_motion_blocks", failing)
        monkeypatch.setattr(cli.langevin, "detector_blocks", counting)
        with pytest.raises(ArithmeticError) as raised:
            simulate_dataset(_long_trace_config(), tmp_path / "ds")
        assert raised.value is diverged
        assert read_out == [langevin._BLOCK_SAMPLES] * 3
        assert not (tmp_path / "ds" / "manifest.json").exists()

    def test_analyze(self, short_dataset, tmp_path):
        _, out, _ = short_dataset
        analyze_dataset(out, tmp_path / "res")

    def test_analyze_corrupt_tags(self, short_dataset, tmp_path):
        _, out, _ = short_dataset
        broken = _copy_dataset(out, tmp_path / "ds", rewrite=("tags.bin",))
        _DEFECTS["tag_after_window"](broken / "tags.bin")
        _rehash(broken, "tags.bin")
        with pytest.raises(MissingArtifactError, match="tags.bin"):
            analyze_dataset(broken, tmp_path / "res")

    def test_sparse_stream_warns(self, short_dataset, tmp_path):
        # g2_zero warns on the helper thread; the warning reaches the caller
        _, out, _ = short_dataset
        sparse = _copy_dataset(out, tmp_path / "ds", rewrite=("tags.bin",))
        pulses = np.arange(0, 10**6, 400)
        _pulse_tags(sparse / "tags.bin", np.repeat(pulses, 2) + np.tile([0, 1], len(pulses)),
                    np.tile(np.array([0, 1], np.uint8), len(pulses)))
        _rehash(sparse, "tags.bin")
        with pytest.warns(UserWarning, match="fewer than 1e4 events"):
            analyze_dataset(sparse, tmp_path / "res")


class TestLentSpectrum:
    # analyze lends its photon helper to the spectrum: the helper transforms
    # the odd runs of segments once g2_zero is done.  The trace here has
    # 2.1e6 samples, in runs of 4 segments of 2^16, beside the 0.5 s of tags
    # that blink_analysis needs; the reader delivers 300 000 samples first
    # (runs 0 and 1), then waits until the helper holds run 1

    @pytest.fixture(scope="class")
    def long_dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("long") / "ds"
        simulate_dataset(_long_trace_config(acquisition_s=0.5), out)
        return out

    @staticmethod
    def _hold_run_1(monkeypatch, on_helper):
        """Route the trace so that the helper calls ``on_helper(failed)`` as
        it starts run 1, before the reader goes on; ``failed`` is set when
        the reader raises.  The event set by the helper is returned."""
        monkeypatch.setattr(io, "_BLOCK_RECORDS", 300_000)
        held, failed = threading.Event(), threading.Event()
        caller = threading.current_thread()
        welch_run, read_time_series = analysis._welch_run, cli.io_formats.read_time_series

        def transform(*args):
            if threading.current_thread() is not caller:
                held.set()
                on_helper(failed)
            return welch_run(*args)

        def reading(path, sha256=None):
            series = read_time_series(path, sha256)

            def blocks():
                yield next(series.blocks)
                assert held.wait(60)
                try:
                    yield from series.blocks
                except MissingArtifactError:
                    failed.set()
                    raise
            return SeriesBlocks(series.sample_interval, series.n_samples, blocks(),
                                series.units, series.seed)
        monkeypatch.setattr(analysis, "_welch_run", transform)
        monkeypatch.setattr(cli.io_formats, "read_time_series", reading)
        return held

    def test_spectrum_as_without_helper(self, long_dataset, tmp_path, monkeypatch):
        # the same reader blocks (and so the same provisional mean) for both
        held = self._hold_run_1(monkeypatch, lambda failed: None)
        analyze_dataset(long_dataset, tmp_path / "res")
        assert held.is_set()
        written = np.loadtxt(tmp_path / "res" / "spectrum.csv", delimiter=",", skiprows=1)
        inline = analysis.stream_power_spectral_density(
            io.read_time_series(long_dataset / "detector.ts"))
        assert np.array_equal(written[:, 1], inline.densities)

    def test_corrupt_trace_exits_4_while_helper_holds_a_run(self, long_dataset, tmp_path,
                                                            monkeypatch):
        # a NaN in run 2's samples: the reader raises while run 1 is on the
        # helper, which finishes it before the command returns
        broken = _copy_dataset(long_dataset, tmp_path / "ds", rewrite=("detector.ts",))
        _rewrite_payload(broken / "detector.ts", 8 * 400_000, struct.pack("<d", np.nan))
        waited = []
        held = self._hold_run_1(monkeypatch, lambda failed: waited.append(failed.wait(60)))
        assert main(["analyze", str(broken), "--out", str(tmp_path / "res")]) \
            == EXIT_MISSING_ARTIFACT
        assert held.is_set() and waited == [True]
        assert not (tmp_path / "res" / "results.json").exists()

    def test_lent_transform_failure_raised_once_here(self, long_dataset, tmp_path,
                                                     monkeypatch):
        error = ArithmeticError("lent run")
        raised_on = []

        def fail(failed):
            raised_on.append(threading.current_thread())
            raise error
        self._hold_run_1(monkeypatch, fail)
        with pytest.raises(ArithmeticError) as raised:
            analyze_dataset(long_dataset, tmp_path / "res")
        assert raised.value is error
        assert len(raised_on) == 1 and raised_on[0] is not threading.current_thread()
        assert not (tmp_path / "res" / "results.json").exists()


class TestAhead:
    # simulate_dataset generates its Langevin trace one block ahead on a
    # second helper thread; the trace is that of a serial run

    @pytest.mark.parametrize("n_samples", [
        50_000,                                   # shorter than one block
        2 * langevin._BLOCK_SAMPLES,              # whole blocks
        3 * langevin._BLOCK_SAMPLES + 1000,       # a partial last block
        8 * langevin._BLOCK_SAMPLES + 12345,      # at least 8 blocks
    ])
    def test_trace_bit_identical_to_serial(self, tmp_path, n_samples):
        config = _long_trace_config(n_samples)
        simulate_dataset(config, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        physics = config.cluster_physics()
        serial = io.write_time_series(tmp_path / "serial.ts", langevin.detector_blocks(
            langevin.axial_motion_blocks(physics.stiffness, physics.gamma, physics.mass,
                                         config.gas.temperature, config.simulation),
            config.simulation))
        assert manifest["artifacts"]["detector.ts"]["sha256"] == serial
        assert io.read_time_series(tmp_path / "ds" / "detector.ts").n_samples == n_samples

    @staticmethod
    def _stream(n_blocks, fail_at=None, closed=None):
        # blocks k = 0, 1, ... of 4 samples, all in one reused buffer
        def blocks():
            buf = np.empty(4)
            try:
                for k in range(n_blocks):
                    if k == fail_at:
                        raise ArithmeticError(f"block {k}")
                    buf[:] = k
                    yield buf
            finally:
                if closed is not None:
                    closed.append(threading.current_thread())
        return SeriesBlocks(1.0, 4 * n_blocks, blocks())

    def test_block_valid_until_next(self):
        # the helper runs ahead while a block is held; the block keeps its
        # samples, and the helper has ended when the with statement is left
        with _threads.ahead(self._stream(10)) as ahead:
            assert (ahead.n_samples, ahead.sample_interval) == (40, 1.0)
            for k, block in enumerate(ahead.blocks):
                time.sleep(0.01)
                assert (block == k).all()
        assert k == 9

    def test_stress_more_threads_than_cores(self):
        # four streams ahead at once, threads switching every microsecond:
        # each consumer sees every block in order, intact while it holds it
        def consume(k):
            with _threads.ahead(self._stream(2000)) as ahead:
                intact[k] = [bool((block == i).all()) for i, block in enumerate(ahead.blocks)]
        intact = [None] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=consume, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert intact == [[True] * 2000] * 4

    def test_failure_raised_at_its_block(self):
        seen = []
        with pytest.raises(ArithmeticError, match="block 3"):
            with _threads.ahead(self._stream(10, fail_at=3)) as ahead:
                for block in ahead.blocks:
                    seen.append(block[0])
        assert seen == [0, 1, 2]

    def test_early_exit_stops_and_joins(self):
        # the consumer leaves after one block: the fills in flight finish,
        # and the helper closes the stream itself and ends
        closed = []
        with _threads.ahead(self._stream(10**6, closed=closed)) as ahead:
            assert next(ahead.blocks)[0] == 0
        assert len(closed) == 1 and closed[0] is not threading.current_thread()


class TestBoth:
    # the one failure rule of the helper threads: a corrupt artifact
    # outranks any other failure, and otherwise the first call's failure
    # outranks the second's; the helper has ended whenever both returns or
    # raises

    def test_results_in_order(self):
        threads = {}

        def call(value):
            threads[value] = threading.current_thread()
            return value
        assert _threads.both(lambda: call(1), lambda: call(2)) == (1, 2)
        assert threads[1] is threading.current_thread() is not threads[2]
        assert not threads[2].is_alive()

    @pytest.mark.parametrize("first, second, raised", [
        (OSError, MissingArtifactError, "second"),
        (MissingArtifactError, MissingArtifactError, "first"),
        (OSError, ValueError, "first"),
        (MissingArtifactError, OSError, "first"),
        (None, ValueError, "second"),
        (ValueError, None, "first"),
    ], ids=["corrupt_second_over_first", "corrupt_first_over_corrupt_second",
            "first_over_second", "corrupt_first_over_second", "second_alone",
            "first_alone"])
    def test_failure_rule(self, first, second, raised):
        # each call fails only once both have started, so that both fail
        started = threading.Barrier(2)

        def call(name, failure):
            started.wait(60)
            if failure is not None:
                raise failure(name)
        with pytest.raises(first if raised == "first" else second, match=raised):
            _threads.both(lambda: call("first", first), lambda: call("second", second))

    def test_lent_piece_on_free_helper(self):
        # the helper's own call is done: the helper runs the piece, and the
        # claim returns its result
        ran, done = [], threading.Event()

        def piece(x):
            ran.append(threading.current_thread())
            done.set()
            return 2 * x

        def first(lent):
            claim = lent.submit(piece, 21)
            assert done.wait(60)
            return claim()
        assert _threads.both(first, lambda: None, lend=True) == (42, None)
        assert len(ran) == 1 and ran[0] is not threading.current_thread()

    def test_lent_piece_on_busy_helper_runs_here(self):
        # the helper's own call holds it: the claim cancels the piece and
        # runs it on the claiming thread, once
        ran, released = [], threading.Event()

        def first(lent):
            claim = lent.submit(lambda x: ran.append(threading.current_thread()) or 2 * x, 21)
            try:
                return claim()
            finally:
                released.set()
        assert _threads.both(first, lambda: released.wait(60), lend=True) == (42, True)
        assert ran == [threading.current_thread()]

    def test_unclaimed_piece_withdrawn(self, monkeypatch):
        # the first call fails with a piece queued behind the helper's own
        # call, which ends only once the piece is withdrawn: it never runs
        ran, withdrawn = [], threading.Event()
        withdraw = _threads.Lent._withdraw

        def withdrawing(lent):
            withdraw(lent)
            withdrawn.set()
        monkeypatch.setattr(_threads.Lent, "_withdraw", withdrawing)

        def first(lent):
            lent.submit(ran.append, "piece")
            raise ValueError("first")
        with pytest.raises(ValueError, match="first"):
            _threads.both(first, lambda: withdrawn.wait(60), lend=True)
        assert ran == []


class TestCampaignPairs:
    # fig1a and fig1b consume their streams two at a time, the second of a
    # pair on a helper thread, which has ended whenever the pair helper
    # returns or raises

    def test_results_in_list_order(self):
        threads = {}

        def consume(stream):
            threads[stream] = threading.current_thread()
            return stream * stream
        assert _threads.pairs(consume, [1, 2, 3, 4, 5]) == [1, 4, 9, 16, 25]
        assert threads[1] is threads[3] is threads[5] is threading.current_thread()
        for helper in (threads[2], threads[4]):
            assert helper is not threading.current_thread()
            assert not helper.is_alive()

    def test_first_stream_failure_outranks_second(self):
        # the second stream fails first; the first's failure is raised, and
        # the next pair never starts
        second_failed = threading.Event()
        consumed = []

        def consume(stream):
            consumed.append(stream)
            if stream == "second":
                second_failed.set()
                raise OSError("second")
            assert second_failed.wait(60)
            raise ValueError("first")
        with pytest.raises(ValueError, match="first"):
            _threads.pairs(consume, ["first", "second", "third", "fourth"])
        assert sorted(consumed) == ["first", "second"]

    def test_second_stream_failure_waits_for_the_first(self):
        second_failed = threading.Event()
        consumed = []

        def consume(stream):
            if stream == "second":
                second_failed.set()
                raise OSError("second")
            assert second_failed.wait(60)
            consumed.append(stream)
        with pytest.raises(OSError, match="second"):
            _threads.pairs(consume, ["first", "second", "third"])
        assert consumed == ["first"]

    def test_fig1b_streamed_cells_match_collected_traces(self, tmp_path):
        # the streamed spectra window around the first block's mean, not
        # the trace's; the widths agree with a collected trace's to rounding
        config = parse_config({"seed": 31})
        summary = run_target("fig1b", config, tmp_path)
        table = np.loadtxt(tmp_path / "fig1b.csv", delimiter=",", skiprows=1)
        points = []
        for n, _, width, _, low, high in table:
            physics = config.cluster_physics(n_rods=int(n), w_z=120e-9)
            series = langevin.simulate_axial_motion(
                physics.stiffness, physics.gamma, physics.mass, config.gas.temperature,
                langevin.SimConfig(time_step=3e-9, duration=2**21 * 3e-9, seed=int(
                    rng_for(config.seed, "fig1b", int(n)).integers(2**31))))
            fit = analysis.fit_lorentzian(
                analysis.power_spectral_density(series, segment_length=2**15))
            assert [width, low, high] == pytest.approx(
                [fit.gamma / (2 * np.pi), *fit.width_ci95], rel=1e-12, abs=0)
            points.append((physics.p_min, fit.gamma))
        assert len(points) == 9
        expected = trap_mechanics.gamma_pmin_exponent(points)
        assert [summary["exponent"], *summary["ci95"]] == pytest.approx(
            [expected.exponent, *expected.ci95], rel=1e-12, abs=0)
