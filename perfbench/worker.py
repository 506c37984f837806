"""One fresh benchmark process: set up, run the CLI operations, report.

Usage: python3 worker.py JOB.json SPAWNED

JOB.json names the checkout's ``src`` directory, the config file, the
operations (each an argv list for ``pmtrap.cli.main``), the trace mode
(null, "time" or "memory") and where to write the result.  SPAWNED is the
CLOCK_MONOTONIC time at which the parent started this process, so
``setup_s`` covers interpreter start, ``import pmtrap`` and config
load/validation.

With tracing on, the public functions of each pmtrap module are wrapped at
every name a caller looks them up by (module attributes, names imported with
``from ... import`` and the reproduce target table).  Each call records a
span (name, start, end, parent, run id), counts taken from its arguments
and result and, in "memory" mode, the tracemalloc peak above its start.
Spans stay in memory and are written with the result at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc

LAYER_MODULES = ("photon_emitter", "analysis", "langevin", "mirror_optics",
                 "trap_mechanics", "io_formats", "config", "reproduce", "cli")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _path_bytes(args, kwargs, result):
    path = args[0] if args else next(iter(kwargs.values()))
    return {"bytes": os.path.getsize(path)}


def _manifest_bytes(artifacts):
    return {"bytes": sum(entry["bytes"] for entry in artifacts.values())}


# Counts per span, from the call's arguments and result.
COUNTERS = {
    "photon_emitter.generate_time_tags":
        lambda a, k, r: {"pulses": r.metadata["n_pulses"], "events": len(r)},
    "analysis.g2_zero":
        lambda a, k, r: {"events": len(a[0]), "coincidences": int(r.coincidences.sum())},
    "langevin.simulate_axial_motion": lambda a, k, r: {"samples": len(r.samples)},
    "analysis.power_spectral_density": lambda a, k, r: {"samples": len(a[0].samples)},
    "analysis.fit_lorentzian": lambda a, k, r: {"nfev": r.n_iterations},
    "mirror_optics.general_dipole_image": lambda a, k, r: {"pixels": r.pixels.size},
    "config.write_manifest": lambda a, k, r: _manifest_bytes(r.artifacts),
    "config.verify_manifest": lambda a, k, r: _manifest_bytes(r["artifacts"]),
}
for _kind in ("time_tags", "time_series", "image_csv"):
    COUNTERS[f"io_formats.write_{_kind}"] = _path_bytes
    COUNTERS[f"io_formats.read_{_kind}"] = _path_bytes


class Tracer:
    """In-memory span recorder; with ``memory``, nested tracemalloc peaks too.

    tracemalloc slows Python-level allocation several-fold, so timings come
    from iterations traced without it and peaks from iterations traced with it.
    """

    def __init__(self, run_id: str, memory: bool):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[dict] = []  # open spans; the workloads run one thread

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            span = {"name": name, "run": self.run_id,
                    "parent": stack[-1]["index"] if stack else None,
                    "index": len(self.spans)}
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if stack:
                    stack[-1]["high"] = max(stack[-1]["high"], peak)
                tracemalloc.reset_peak()
                span["low"] = span["high"] = current
            self.spans.append(span)
            stack.append(span)
            span["start"] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = now()
                stack.pop()
                if self.memory:
                    _, peak = tracemalloc.get_traced_memory()
                    span["high"] = max(span["high"], peak)
                    if stack:
                        stack[-1]["high"] = max(stack[-1]["high"], span["high"])
                    tracemalloc.reset_peak()
            if self.memory:
                span["peak_bytes"] = span.pop("high") - span.pop("low")
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except Exception as exc:  # a broken counter must not stop the run
                    span["counts_error"] = repr(exc)
            return result

        return traced

    def install(self) -> None:
        """Wrap each module's public functions at every lookup site."""
        modules = {name: sys.modules[f"pmtrap.{name}"] for name in LAYER_MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__ and attr != "main"
                        and not (short == "reproduce" and attr.startswith("target_"))):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        targets = modules["reproduce"].REPRODUCE_TARGETS
        for key, fn in list(targets.items()):
            targets[key] = wrappers[fn] = self.wrap(f"reproduce.{key}", fn)
        for name, module in sys.modules.items():
            if name == "pmtrap" or name.startswith("pmtrap."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])

    def span(self, name: str):
        return self.wrap(name, lambda fn, *a: fn(*a))


def run_ops(cli, ops: list, tracer: Tracer | None) -> list:
    records = []
    for argv in ops:
        out = io.StringIO()
        call = cli.main if tracer is None else functools.partial(
            tracer.span(f"op.{argv[0]}"), cli.main)
        start = now()
        try:
            with contextlib.redirect_stdout(out):
                code = call(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception:
            error = traceback.format_exc()
        end = now()
        records.append({"argv": argv, "start": start, "end": end,
                        "error": error, "stdout": out.getvalue()})
    return records


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    spawned = float(sys.argv[2])
    sys.path.insert(0, job["src"])
    from pmtrap import cli

    tracer = None
    if job["trace"]:
        tracer = Tracer(job["run_id"], memory=job["trace"] == "memory")
        tracer.install()
        if tracer.memory:
            tracemalloc.start()
    cli.load_config(job["config"])  # raises on an invalid config
    first = now()
    records = run_ops(cli, job["ops"], tracer)
    result = {
        "setup_s": first - spawned,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else [],
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
