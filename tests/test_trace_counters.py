"""The benchmark's traced spans count what they are meant to count.

A traced benchmark run (``perfbench/run.py --trace 1``) is marked incorrect
when a span's counter raises.  The counters of these four functions read
the length or the samples of a stream argument or result, so the stream
types they are called with must keep serving them.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
COUNTED = ("photon_emitter.generate_time_tags", "analysis.g2_zero",
           "langevin.simulate_axial_motion", "analysis.power_spectral_density")


def test_traced_spans_count_without_errors(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"seed": 2024, "simulation": {"duration_s": 2e-4},
                                      "acquisition": {"duration_s": 1.0}}))
    data = tmp_path / "data"
    ops = [["simulate", "--config", str(config), "--out", str(data)],
           ["analyze", str(data), "--out", str(tmp_path / "results")]]
    ops += [["reproduce", "--figure", figure, "--config", str(config),
             "--out", str(tmp_path / "reproduce")] for figure in ("fig1a", "fig1b")]
    job = {"src": str(ROOT / "src"), "config": str(config), "ops": ops,
           "trace": "time", "run_id": "counters",
           "result": str(tmp_path / "result.json")}
    (tmp_path / "job.json").write_text(json.dumps(job))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                    str(tmp_path / "job.json"),
                    repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
                   check=True, timeout=600)
    result = json.loads((tmp_path / "result.json").read_text())
    assert [op["error"] for op in result["ops"]] == [None] * len(ops)
    spans = result["spans"]
    assert [span["name"] for span in spans if "counts_error" in span] == []
    assert set(COUNTED) <= {span["name"] for span in spans if "counts" in span}
