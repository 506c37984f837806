"""The benchmark's traced spans count what they are meant to count.

A traced benchmark run (``perfbench/run.py --trace 1``) is marked incorrect
when a span's counter raises.  The counter of ``g2_zero`` reads the length
of its stream argument, so the stream types it is called with must keep
serving it; it is applied to a direct call here too, as the tracer applies
it.

``reproduce`` runs two package calls at once, one per thread, while the
tracer keeps one span stack for the process; a memory-traced run of every
campaign shows that the spans still unwind.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import yaml

from pmtrap import analysis
from pmtrap import photon_emitter as pe
from pmtrap.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
COUNTED = ("analysis.g2_zero",)


def _worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  ROOT / "perfbench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_worker(tmp_path, ops, trace):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"seed": 2024, "simulation": {"duration_s": 2e-4},
                                      "acquisition": {"duration_s": 1.0}}))
    ops = [[arg.format(config=config, tmp=tmp_path) for arg in op] for op in ops]
    job = {"src": str(ROOT / "src"), "config": str(config), "ops": ops,
           "trace": trace, "run_id": "counters",
           "result": str(tmp_path / "result.json")}
    (tmp_path / "job.json").write_text(json.dumps(job))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                    str(tmp_path / "job.json"),
                    repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
                   check=True, timeout=600)
    return json.loads((tmp_path / "result.json").read_text())


def test_traced_spans_count_without_errors(tmp_path):
    ops = [["simulate", "--config", "{config}", "--out", "{tmp}/data"],
           ["analyze", "{tmp}/data", "--out", "{tmp}/results"]]
    ops += [["reproduce", "--figure", figure, "--config", "{config}",
             "--out", "{tmp}/reproduce"] for figure in ("fig1a", "fig1b")]
    result = _run_worker(tmp_path, ops, "time")
    assert [op["error"] for op in result["ops"]] == [None] * len(ops)
    spans = result["spans"]
    assert [span["name"] for span in spans if "counts_error" in span] == []
    counted = [span for span in spans if span["name"] == "analysis.g2_zero"]
    assert len(counted) > 2
    assert all(span["counts"]["events"] > 0 for span in counted)


def test_counters_read_direct_calls():
    counters = _worker().COUNTERS
    assert set(COUNTED) <= set(counters)
    config = parse_config({"seed": 2024})

    tags = pe.time_tag_blocks(config.excitation, config.emitter, config.detection,
                              0.2, 17).collect()
    assert len(tags) > 0
    g2 = analysis.g2_zero(tags, 1.0 / config.excitation.repetition_rate, max_lag=20)
    assert counters["analysis.g2_zero"]((tags,), {}, g2) == {
        "events": len(tags), "coincidences": int(g2.coincidences.sum())}


def test_memory_traced_campaign_runs_clean(tmp_path):
    # every campaign, with a tracemalloc peak per span: a span left open on
    # the shared stack would fail the next span's start or end
    ops = [["reproduce", "--figure", "all", "--config", "{config}",
            "--out", "{tmp}/reproduce"]]
    result = _run_worker(tmp_path, ops, "memory")
    assert [op["error"] for op in result["ops"]] == [None]
    spans = result["spans"]
    assert [span["name"] for span in spans if "counts_error" in span] == []
    assert all("peak_bytes" in span for span in spans)
    assert {"reproduce.fig1a", "reproduce.fig1b"} <= {span["name"] for span in spans}
