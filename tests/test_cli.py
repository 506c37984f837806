import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import pmtrap
from pmtrap import io_formats as io
from pmtrap.cli import (
    EXIT_ANALYSIS,
    EXIT_CONFIG,
    EXIT_MISSING_ARTIFACT,
    EXIT_OK,
    analyze_dataset,
    main,
    simulate_dataset,
)
from pmtrap.config import load_config, parse_config
from pmtrap.langevin import TimeSeries

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


class TestSimulate:
    def test_artifacts_present(self, dataset):
        _, out, _ = dataset
        for name in ("tags.bin", "detector.ts", "image_total.csv",
                     "manifest.json"):
            assert (out / name).exists()

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


def _edit_tags_header(edit):
    """A rewrite of tags.bin that passes its JSON header through ``edit``."""
    def rewrite(raw: bytes) -> bytes:
        (n,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8: 8 + n])
        edit(header)
        blob = json.dumps(header).encode()
        return raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + n:]
    return rewrite


def _edit_sidecar(**values):
    """A rewrite of an image sidecar with ``values`` set."""
    return lambda raw: json.dumps({**json.loads(raw), **values}).encode()


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

    def test_corrupt_image_exits_4(self, dataset, tmp_path, capsys):
        # checksum updated, so the pixel parser itself must reject the file
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "pixels", rewrite=("image_total.csv",))
        image = broken / "image_total.csv"
        image.write_bytes(b"zz" + image.read_bytes()[2:])
        _rehash(broken, "image_total.csv")
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert "image_total.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [*range(1, 10), "header"])
    @pytest.mark.parametrize("artifact", ["detector.ts", "tags.bin"])
    def test_truncated_container_exits_4(self, dataset, tmp_path, artifact,
                                         cut, capsys):
        # checksum updated, so the container reader itself must reject the
        # payload; "header" cuts inside the JSON header
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "cut", rewrite=(artifact,))
        path = broken / artifact
        raw = path.read_bytes()
        end = 8 + int.from_bytes(raw[4:8], "little") // 2 if cut == "header" else -cut
        path.write_bytes(raw[:end])
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
    ], ids=["nan_sample", "inf_sample", "nan_timestamp", "channel_2", "unsorted",
            "negative_timestamp", "after_window"])
    def test_corrupt_payload_exits_4(self, dataset, tmp_path, artifact, at, value,
                                     capsys):
        # checksum updated: values the simulator cannot produce are a corrupt
        # artifact; ``at`` is a byte offset into the payload, or from its end
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "payload", rewrite=(artifact,))
        path = broken / artifact
        raw = bytearray(path.read_bytes())
        start = 8 + int.from_bytes(raw[4:8], "little") + at if at >= 0 else len(raw) + at
        raw[start: start + len(value)] = value
        path.write_bytes(bytes(raw))
        _rehash(broken, artifact)
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert artifact in capsys.readouterr().err

    @pytest.mark.parametrize("artifact, rewrite", [
        ("tags.bin", _edit_tags_header(lambda h: h.update(metadata=[]))),
        ("tags.bin", _edit_tags_header(
            lambda h: h["metadata"].update(repetition_rate="x"))),
        ("tags.bin", _edit_tags_header(
            lambda h: h["metadata"].update(repetition_rate=0))),
        ("image_total.csv.json", _edit_sidecar(pixel_pitch_f="x")),
        ("image_total.csv.json", _edit_sidecar(pixel_pitch_f=float("nan"))),
        ("image_total.csv.json", _edit_sidecar(center_px=3)),
        ("image_total.csv.json", _edit_sidecar(metadata=[])),
        ("image_total.csv.json", _edit_sidecar(metadata={"bore_radius_f": "x"})),
        ("image_total.csv.json", _edit_sidecar(pixel_pitch_f=-1)),
        ("image_total.csv.json", _edit_sidecar(channel="diag")),
        ("image_total.csv", lambda raw: b"-1" + raw[raw.index(b","):]),
    ], ids=["tags_metadata_list", "rate_string", "rate_zero", "pitch_string",
            "pitch_nan", "center_scalar", "image_metadata_list", "bore_string",
            "pitch_negative", "channel_diag", "negative_pixel"])
    def test_corrupt_header_value_exits_4(self, dataset, tmp_path, artifact,
                                          rewrite, capsys):
        # checksum updated: header and sidecar values of the wrong type or
        # range are a corrupt artifact, not a traceback or a config error
        _, out, _ = dataset
        broken = _copy_dataset(out, tmp_path / "header", rewrite=(artifact,))
        path = broken / artifact
        path.write_bytes(rewrite(path.read_bytes()))
        _rehash(broken, artifact)
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert artifact.removesuffix(".json") in capsys.readouterr().err

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

    def test_output_root_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PMTRAP_OUTPUT_ROOT", str(tmp_path))
        code = main(["reproduce", "--figure", "appB_pmin"])
        assert code == EXIT_OK
        assert (tmp_path / "reproduce" / "appB_pmin.csv").exists()


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
        assert not (out / "manifest.json").exists()
