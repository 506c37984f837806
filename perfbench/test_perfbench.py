"""Self-test of the benchmark: metric names and units, per-layer derivation,
output checks against deliberately wrong results, and refusal to run
without the package sources.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import model
import run

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_every_emitted_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _span(index, name, start, end, parent=None, **extra):
    return {"index": index, "name": name, "start": start, "end": end,
            "parent": parent, **extra}


def test_layer_metrics_cover_every_per_layer_metric_and_subtract_children():
    spans = [
        _span(0, "cli.simulate_dataset", 0.0, 10.0),
        _span(1, "photon_emitter.generate_time_tags", 2.0, 5.0, 0,
              counts={"pulses": 1000, "events": 70}, peak_bytes=3 * 2 ** 20),
        _span(2, "photon_emitter.excitons_per_pulse", 2.5, 3.0, 1),
        _span(3, "mirror_optics.general_dipole_image", 6.0, 6.5, 0,
              counts={"pixels": 256}),
        _span(4, "reproduce.run_target", 11.0, 14.0),
        _span(5, "reproduce.fig1a", 11.5, 13.5, 4),
        _span(6, "analysis.g2_zero", 12.0, 13.0, 5),
    ]
    values = run.layer_metrics(spans)
    assert set(values) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert values["cli.simulate_dataset.self_s"] == pytest.approx(6.5)
    assert values["cli.simulate_dataset.wall_s"] == pytest.approx(10.0)
    assert values["photon_emitter.generate_time_tags.self_s"] == pytest.approx(2.5)
    assert values["photon_emitter.generate_time_tags.events_per_pulse"] == pytest.approx(0.07)
    assert values["photon_emitter.generate_time_tags.peak_mb"] == pytest.approx(3.0)
    assert values["mirror_optics.pixels"] == 256
    assert values["reproduce.self_s"] == pytest.approx(1.0 + 1.0)
    assert values["reproduce.fig1a.wall_s"] == pytest.approx(2.0)
    assert values["analysis.g2_zero.calls"] == 1


# --- output checks ----------------------------------------------------------

PARAMS = model.merged({})


def _dataset_outputs():
    photons = model.photon_expectations(PARAMS, 10.0, 64, blinking=True)
    width = model.lorentzian_width_expectation(PARAMS)
    dipole = model.dipole_fraction_expectation(PARAMS)
    info = {"gamma_over_2pi_hz": width["model_hz"], "n_events": round(photons["events"])}
    results = {"g2": {"value": photons["g2"]},
               "motion": {"gamma_over_2pi_hz": width["fit_hz"]},
               "dipole_fraction": {"a_pi": dipole["fit"]}}
    return info, results


def _failing(found):
    return {c.name for c in found if not c.ok}


def test_dataset_checks_pass_on_expected_outputs():
    assert _failing(checks.dataset_checks(PARAMS, *_dataset_outputs())) == set()


@pytest.mark.parametrize("section, key, wrong, failing", [
    ("info", "gamma_over_2pi_hz", lambda v: v * 1.001, "simulate.gamma_model"),
    ("info", "n_events", lambda v: round(v * 1.2), "simulate.events"),
    ("g2", "value", lambda v: v + 0.05, "analyze.g2"),
    # the width the default seed 12345 reports, outside its own 95% CI
    ("motion", "gamma_over_2pi_hz", lambda v: 199175.29, "analyze.gamma_over_2pi"),
    ("dipole_fraction", "a_pi", lambda v: v - 0.01, "analyze.a_pi"),
])
def test_each_dataset_check_fails_on_a_wrong_output(section, key, wrong, failing):
    info, results = _dataset_outputs()
    target = info if section == "info" else results[section]
    target[key] = wrong(target[key])
    assert _failing(checks.dataset_checks(PARAMS, info, results)) == {failing}


def _campaign_outputs():
    closed = model.collection_fractions(PARAMS)
    rate = model.count_rate(PARAMS)
    summaries = {
        "appA_efficiency": dict(closed),
        "appC_gamma": {"gamma_over_2pi_hz": model.single_rod_gamma(PARAMS) / (2 * math.pi)},
        "appE_rate": {"rate_hz": rate, "monte_carlo_rate_hz": rate, "n_pulses": 10 ** 7},
        "fig1b": {"ci95": [0.48, 0.52], "within_or_adjacent": True},
    }
    rows = [{"n_rods": str(n),
             "g2_zero": repr(model.photon_expectations(PARAMS, 1.0, n, False)["g2"])}
            for n in range(20, 81, 6)]
    return summaries, rows


def test_campaign_checks_pass_on_expected_outputs():
    assert _failing(checks.campaign_checks(PARAMS, *_campaign_outputs())) == set()


def _set(target, key, value):
    target[key] = value


@pytest.mark.parametrize("mutate, failing", [
    (lambda s, r: _set(s["appA_efficiency"], "linear", s["appA_efficiency"]["linear"] + 1e-4),
     {"appA.linear"}),
    (lambda s, r: _set(s["appA_efficiency"], "circular", 0.70),
     {"appA.circular", "appA.circular_reference"}),
    (lambda s, r: _set(s["appC_gamma"], "gamma_over_2pi_hz", 2.0e6), {"appC.gamma_over_2pi"}),
    (lambda s, r: _set(s["appE_rate"], "rate_hz", 125e3), {"appE.closed_form_rate"}),
    (lambda s, r: _set(s["appE_rate"], "monte_carlo_rate_hz", 130e3), {"appE.monte_carlo_rate"}),
    (lambda s, r: _set(r[0], "g2_zero", "0.26"), {"fig1a.g2_closed_form"}),
    # a model-consistent two-rod cluster: g2(0) ~ 0.07 lies below the paper's band
    (lambda s, r: r.append({"n_rods": "2", "g2_zero": repr(
        model.photon_expectations(PARAMS, 1.0, 2, False)["g2"])}), {"fig1a.g2_band"}),
    (lambda s, r: _set(s["fig1b"], "ci95", [0.52, 0.56]), {"fig1b.within_or_adjacent"}),
    (lambda s, r: _set(s["fig1b"], "within_or_adjacent", False), {"fig1b.within_or_adjacent"}),
])
def test_each_campaign_check_fails_on_a_wrong_output(mutate, failing):
    summaries, rows = _campaign_outputs()
    mutate(summaries, rows)
    assert _failing(checks.campaign_checks(PARAMS, summaries, rows)) == failing


def test_campaign_config_seed_fixes_the_fig1a_work():
    for seed in range(1, 6):
        chosen = run.config_seed("campaign_all", seed)
        assert run.fig1a_distinct_sizes(chosen) == run.FIG1A_DISTINCT_SIZES
        assert run.config_seed("campaign_all", seed) == chosen
    assert run.config_seed("pipeline_default", 7) == 7


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline_default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
