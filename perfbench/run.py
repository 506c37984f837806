"""pmtrap benchmark: run one workload through the real CLI and report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Each iteration is one fresh worker process (worker.py) that imports pmtrap
from the checkout's ``src`` and runs the workload's CLI commands on a YAML
config written from the workload seed.  Iterations repeat until ``--seconds``
is used up; end-to-end metrics are medians over iterations.  ``--trace 1``
alternates untraced and traced iterations and reports per-layer metrics from
the traced spans.  The outputs of the first iteration are checked against
closed forms (checks.py); later iterations must reproduce them byte for byte.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from collections import defaultdict
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import model  # noqa: E402

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "pipeline_default": {"overrides": {}, "campaign": False},
    "motion_long": {"overrides": {"simulation": {"duration_s": 0.05},
                                  "acquisition": {"duration_s": 1.0}},
                    "campaign": False},
    "campaign_all": {"overrides": {}, "campaign": True},
}
# fig1a draws 24 log-uniform cluster sizes in [2, 80] from the labelled child
# stream (root seed, crc32("fig1a")) and simulates one 1 s stream per
# distinct size, so its cost follows the distinct count (12..23).  The
# campaign's config seed is the first of seed, seed + STRIDE, ... whose draw
# has the most common count, so every run does the same amount of work.
FIG1A_DISTINCT_SIZES = 18
SEED_STRIDE = 7919


def fig1a_distinct_sizes(config_seed: int) -> int:
    entropy = [config_seed & 0xFFFFFFFF, zlib.crc32(b"fig1a")]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return len(np.unique(np.round(np.exp(rng.uniform(np.log(2), np.log(80), 24)))))


def config_seed(workload: str, seed: int) -> int:
    if not WORKLOADS[workload]["campaign"]:
        return seed
    while fig1a_distinct_sizes(seed) != FIG1A_DISTINCT_SIZES:
        seed += SEED_STRIDE
    return seed


REPRODUCE_TARGETS = ("appA_efficiency", "appB_pmin", "appC_gamma", "appE_rate",
                     "fig1a", "fig1b", "fig2b")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_UNITS = {"self_s": "s", "wall_s": "s", "overhead_s": "s", "peak_mb": "MB",
          "bytes": "B", "events_per_pulse": "1/pulse"}
_PER_LAYER_NAMES = (
    [f"photon_emitter.generate_time_tags.{q}" for q in
     ("self_s", "calls", "pulses", "events", "events_per_pulse", "peak_mb")]
    + [f"analysis.g2_zero.{q}" for q in
       ("self_s", "calls", "events", "coincidences", "peak_mb")]
    + [f"langevin.simulate_axial_motion.{q}" for q in ("self_s", "samples", "peak_mb")]
    + ["langevin.detector_signal.self_s"]
    + [f"analysis.power_spectral_density.{q}" for q in ("self_s", "samples", "peak_mb")]
    + ["analysis.fit_lorentzian.self_s", "analysis.fit_lorentzian.nfev",
       "analysis.blink_analysis.self_s"]
    + [f"io_formats.{op}_{kind}.{q}" for op in ("write", "read")
       for kind in ("time_tags", "time_series", "image_csv") for q in ("self_s", "bytes")]
    + [f"config.{op}_manifest.{q}" for op in ("write", "verify") for q in ("self_s", "bytes")]
    + [f"mirror_optics.{fn}.{q}" for fn in
       ("general_dipole_image", "mix_image", "polarized_projection",
        "azimuthal_average", "fit_dipole_fraction", "asymmetry_metric")
       for q in ("self_s", "calls")]
    + ["mirror_optics.pixels", "trap_mechanics.self_s", "config.parse_config.self_s",
       "cli.simulate_dataset.self_s", "cli.simulate_dataset.wall_s",
       "cli.analyze_dataset.self_s", "cli.analyze_dataset.wall_s",
       "reproduce.fig1a.wall_s", "reproduce.fig1b.wall_s", "reproduce.appE_rate.wall_s",
       "reproduce.self_s", "trace.overhead_s"]
)
PER_LAYER = {name: _UNITS.get(name.rsplit(".", 1)[1], "count") for name in _PER_LAYER_NAMES}
TIMING_QUANTITIES = ("self_s", "wall_s", "overhead_s", "peak_mb")
MODULE_SUMS = ("trap_mechanics", "reproduce")

SETUP_SAMPLES = 5
RUN_TIME_LIMIT_S = 170  # a run must end within 180 s; a hung worker is killed


class BenchmarkError(RuntimeError):
    """The benchmark itself could not measure (not a failed operation)."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    """One benchmark run of one workload in a scratch directory of the checkout."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.spec = WORKLOADS[workload]
        self.params = model.merged(self.spec["overrides"])
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{time.time_ns()}"
        self.work.mkdir(parents=True)
        self.config = self.work / "config.yaml"
        self.seed = config_seed(workload, seed)
        self.config.write_text(yaml.safe_dump({"seed": self.seed, **self.spec["overrides"]}))
        self.attempted = 0
        self.failed: list[str] = []
        self.check_results: list[checks.Check] = []
        self.digests: list[str] = []
        self.iterations = 0
        self.time_limit = now() + RUN_TIME_LIMIT_S

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, ops: list, trace, tag: str) -> dict:
        job = {"src": str(self.root / "src"), "config": str(self.config),
               "ops": ops, "trace": trace, "run_id": tag,
               "result": str(self.work / f"{tag}.result.json")}
        job_path = self.work / f"{tag}.job.json"
        job_path.write_text(json.dumps(job))
        log_path = self.work / f"{tag}.log"
        with open(log_path, "w") as log:
            spawned = now()
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path), repr(spawned)],
                stdout=log, stderr=subprocess.STDOUT,
                timeout=max(self.time_limit - spawned, 1.0))
        if proc.returncode != 0:
            raise BenchmarkError(f"worker {tag} exited {proc.returncode}:\n"
                                 + log_path.read_text()[-4000:])
        return json.loads(Path(job["result"]).read_text())

    def setup_only(self, tag: str) -> float:
        return self.spawn([], None, tag)["setup_s"]

    def iterate(self, trace) -> dict:
        """One worker running the workload's commands, then its output checks."""
        tag = f"iter{self.iterations}"
        self.iterations += 1
        out = self.work / tag
        if self.spec["campaign"]:
            ops = [["reproduce", "--figure", "all", "--config", str(self.config),
                    "--out", str(out)]]
        else:
            ops = [["simulate", "--config", str(self.config), "--out", str(out / "data")],
                   ["analyze", str(out / "data"), "--out", str(out / "results")]]
        result = self.spawn(ops, trace, tag)
        for record in result["ops"]:
            self.count(f"command {record['argv'][0]}", record["error"] is None,
                       record["error"])
        try:
            self.check_outputs(result, out)
        except (OSError, KeyError, ValueError) as exc:
            self.count("outputs readable", False, repr(exc))
        shutil.rmtree(out, ignore_errors=True)
        return result

    def count(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}")

    def check_outputs(self, result: dict, out: Path) -> None:
        if self.spec["campaign"]:
            summaries = {}
            for target in REPRODUCE_TARGETS:
                path = out / f"{target}_summary.json"
                self.count(f"reproduce target {target}", path.exists(), "no summary")
                if path.exists():
                    summaries[target] = json.loads(path.read_text())
            self.digests.append(sha256_files(p for p in out.iterdir() if p.is_file()))
            if len(self.digests) == 1:
                with open(out / "fig1a.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                self.record(checks.campaign_checks(self.params, summaries, rows))
        else:
            results_path = out / "results" / "results.json"
            self.digests.append(sha256_files([results_path]))
            if len(self.digests) == 1:
                info = json.loads(result["ops"][0]["stdout"])
                results = json.loads(results_path.read_text())
                self.record(checks.dataset_checks(self.params, info, results))

    def record(self, results: list) -> None:
        """Model checks are operations; reference comparisons are only printed."""
        for check in results:
            self.check_results.append(check)
            if check.kind == "model":
                self.count(f"check {check.name}", check.ok, check.detail)

    @property
    def correct(self) -> bool:
        return bool(self.check_results) and not self.failed

    def finish_checks(self) -> None:
        if len(self.digests) > 1:
            self.count("rerun byte-identical", len(set(self.digests)) == 1,
                       f"{len(set(self.digests))} distinct output digests")


def wall_s(result: dict) -> float:
    return result["ops"][-1]["end"] - result["ops"][0]["start"]


def op_seconds(result: dict, command: str) -> float:
    (record,) = [r for r in result["ops"] if r["argv"][0] == command]
    return record["end"] - record["start"]


def self_times(spans: list) -> dict:
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    return {s["index"]: s["end"] - s["start"] - children[s["index"]] for s in spans}


def layer_metrics(spans: list) -> dict:
    """Per-layer values of one traced iteration (trace.overhead_s excluded)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def counted(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in by_name[name])

    values = {}
    for metric in PER_LAYER:
        prefix, quantity = metric.rsplit(".", 1)
        matches = by_name[prefix]
        if metric == "trace.overhead_s":
            continue
        if prefix in MODULE_SUMS:
            value = sum(own[s["index"]] for s in spans
                        if s["name"].startswith(prefix + "."))
        elif metric == "mirror_optics.pixels":
            value = counted("mirror_optics.general_dipole_image", "pixels")
        elif quantity == "events_per_pulse":
            pulses = counted(prefix, "pulses")
            value = counted(prefix, "events") / pulses if pulses else 0.0
        elif quantity == "self_s":
            value = sum(own[s["index"]] for s in matches)
        elif quantity == "wall_s":
            value = sum(s["end"] - s["start"] for s in matches)
        elif quantity == "calls":
            value = len(matches)
        elif quantity == "peak_mb":
            value = max((s.get("peak_bytes", 0) for s in matches), default=0) / 2 ** 20
        else:
            value = counted(prefix, quantity)
        values[metric] = value
    return values


def self_time_ranking(spans: list) -> list:
    own = self_times(spans)
    totals = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["index"]]
    return sorted(totals.items(), key=lambda kv: -kv[1])


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    run = Run(root, workload, seed)
    try:
        run.setup_only("warmup")  # compiles bytecode, fills the page cache
        deadline = now() + seconds
        by_mode = {None: [], "time": [], "memory": []}
        setups = []
        # traced runs: one untraced, one timed and one memory-traced iteration,
        # then untraced and timed alternately while time remains
        schedule = [None, "time", "memory"] if trace else [None]
        while True:
            if run.iterations < len(schedule):
                mode = schedule[run.iterations]
            else:
                mode = "time" if trace and len(by_mode[None]) > len(by_mode["time"]) else None
            t0 = now()
            result = run.iterate(mode)
            elapsed = now() - t0
            by_mode[mode].append(result)
            setups.append(result["setup_s"])
            if run.iterations < len(schedule):
                continue
            # setup-only processes still needed if one more iteration runs
            missing = 0 if trace else max(SETUP_SAMPLES - len(setups) - 1, 0)
            reserve = missing * 1.2 * statistics.median(setups)
            if now() + elapsed + reserve > deadline:
                break
        if not trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(run.setup_only(f"setup{len(setups)}"))
        run.finish_checks()
    finally:
        run.close()

    report = {"workload": workload, "seed": seed, "config_seed": run.seed,
              "iterations": run.iterations, "digests": sorted(set(run.digests)),
              "checks": run.check_results, "failed": run.failed,
              "attempted": run.attempted, "correct": run.correct}
    untraced = by_mode[None]
    if trace:
        timed = [layer_metrics(r["spans"]) for r in by_mode["time"]]
        memory = [layer_metrics(r["spans"]) for r in by_mode["memory"]]
        counts = [{k: v for k, v in m.items()
                   if k.rsplit(".", 1)[1] not in TIMING_QUANTITIES} for m in timed + memory]
        errors = [s["counts_error"] for r in by_mode["time"] + by_mode["memory"]
                  for s in r["spans"] if "counts_error" in s]
        report["attempted"] += 1
        if errors or any(c != counts[0] for c in counts):
            report["failed"].append(f"per-layer counts repeat: {errors or 'counts differ'}")
            report["correct"] = False
        # the traced spans outlive the run for inspection
        spans_file = root / ".perfbench_work" / f"{workload}-{seed}.spans.json"
        spans_file.write_text(json.dumps(
            [s for r in by_mode["time"] + by_mode["memory"] for s in r["spans"]]))
        report["spans_file"] = spans_file
        metrics = dict(counts[0])
        for name in PER_LAYER:
            quantity = name.rsplit(".", 1)[1]
            if quantity in ("self_s", "wall_s"):
                metrics[name] = statistics.median(m[name] for m in timed)
            elif quantity == "peak_mb":
                metrics[name] = statistics.median(m[name] for m in memory)
        traced_wall = statistics.median(wall_s(r) for r in by_mode["time"])
        metrics["trace.overhead_s"] = traced_wall - statistics.median(
            wall_s(r) for r in untraced)
        report["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
        report["ranking"] = self_time_ranking(by_mode["time"][0]["spans"])
        report["traced_wall_s"] = traced_wall
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(wall_s(r) for r in untraced),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
        report["metrics"] = {k: {"value": metrics[k], "unit": u}
                             for k, u in END_TO_END.items()}
        commands = [] if run.spec["campaign"] else ["simulate", "analyze"]
        report["phases"] = {f"{c}_s": statistics.median(op_seconds(r, c) for r in untraced)
                            for c in commands}
        report["samples"] = {"setup_s": setups, "wall_s": [wall_s(r) for r in untraced]}
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, config seed "
          f"{report['config_seed']}, {report['iterations']} worker processes)")
    for name, metric in report["metrics"].items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    for name, value in report.get("phases", {}).items():
        print(f"  {name:<48} {value:.6g} s")
    for name, values in report.get("samples", {}).items():
        print(f"  samples {name}: " + " ".join(f"{v:.4g}" for v in values))
    digested = ("every reproduce output file" if WORKLOADS[report["workload"]]["campaign"]
                else "results.json")
    print(f"  output digest (sha256 of {digested}): {' '.join(report['digests'])}")
    rate = len(report["failed"]) / report["attempted"]
    print(f"  {'error_rate':<48} {rate:.6g} ({len(report['failed'])}/{report['attempted']})")
    for check in report["checks"]:
        print(f"  check {'ok  ' if check.ok else 'FAIL'} {check.kind:<9} "
              f"{check.name}: {check.detail}")
    for failure in report["failed"]:
        if not failure.startswith("check "):
            print(f"  FAIL {failure}")
    if "ranking" in report:
        wall = report["traced_wall_s"]
        print(f"  spans: {report['spans_file']}")
        print("  self-time ranking (first timed iteration):")
        for name, seconds in report["ranking"][:10]:
            print(f"    {name:<46} {seconds:8.3f} s  {100 * seconds / wall:5.1f}% of wall")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    root = Path.cwd()
    if not (root / "src" / "pmtrap" / "cli.py").is_file():
        print(f"error: no pmtrap sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.all else [args.workload]
    try:
        reports = [run_workload(root, name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(len(r["failed"]) for r in reports),
        "metrics": reports[0]["metrics"] if len(reports) == 1 else
        {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
