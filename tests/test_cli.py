import json

import numpy as np
import pytest
import yaml

from pmtrap import io_formats as io
from pmtrap.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_ARTIFACT,
    EXIT_OK,
    analyze_dataset,
    main,
    simulate_dataset,
)
from pmtrap.config import load_config

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
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in out.iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        (broken / "tags.bin").unlink()
        code = main(["analyze", str(broken)])
        assert code == EXIT_MISSING_ARTIFACT
        assert "tags.bin" in capsys.readouterr().err

    def test_corrupt_manifest_exits_4(self, dataset, tmp_path):
        _, out, _ = dataset
        broken = tmp_path / "corrupt"
        broken.mkdir()
        for p in out.iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        (broken / "manifest.json").write_text("{broken")
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT

    def test_corrupt_image_exits_4(self, dataset, tmp_path, capsys):
        # checksum updated, so the pixel parser itself must reject the file
        _, out, _ = dataset
        broken = tmp_path / "pixels"
        broken.mkdir()
        for p in out.iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        image = broken / "image_total.csv"
        image.write_bytes(b"zz" + image.read_bytes()[2:])
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["artifacts"]["image_total.csv"]["sha256"] = io.sha256_file(image)
        (broken / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(broken)]) == EXIT_MISSING_ARTIFACT
        assert "image_total.csv" in capsys.readouterr().err

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
