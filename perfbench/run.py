"""lerchzeta benchmark: one seeded, closed-loop, single-caller workload per run.

    python3 perfbench/run.py --workload {points,census,crosscheck}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the run times set-up in fresh interpreters, then
runs the workload untraced for S seconds (and at least the workload's
minimum operation count) and prints the end-to-end metrics.  With
--trace 1 it runs S/2 seconds under the span tracer, S/2 seconds untraced,
and prints the per-layer metrics.  Either way the first operations are
checked against mpmath after the timed phases, a JSON detail line
(machine, counts, check ratios, per-route and per-span timings) comes
first, and the last line of stdout is the result object.  See README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
PHASE_CAP_S = 90.0      # hard stop for the timed phases of one run

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("pct"):
        return "%"
    if name.endswith("levels_mean"):
        return "levels"
    if name.endswith(("ratio", "overlap")):
        return "ratio"
    return "count"


def machine_info() -> dict:
    import mpmath
    import numpy
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = ""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = []
    for c in caches:
        try:
            levels.append((int((c / "level").read_text()),
                           (c / "size").read_text().strip()))
        except (OSError, ValueError):
            pass
    if levels:
        llc = "L%d %s" % max(levels)
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(), "llc": llc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__}


def measure_setup(workload: str) -> list[float]:
    """Wall time of a fresh interpreter that imports the package and runs
    the workload's fixed first operation (cold Bernoulli and node tables)."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "first_op.py"), workload],
                       cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return times


def timed_phase(stream, run, collect, label, seconds: float, min_ops: int,
                keep: int, cap: float, tracer=None) -> list[tuple]:
    """Closed loop: the next operation starts when the previous one ends.
    Runs until `seconds` of operation time and `min_ops` operations are
    both reached (or `cap` seconds have passed).  Returns
    (op, result, seconds, error, label) per operation.  `collect`, when
    given, reads an op's output back after its timer stops.  Only the
    first `keep` results are kept, so that memory does not grow with the
    op count."""
    records = []
    busy = 0.0
    start = perf_counter()
    while ((busy < seconds or len(records) < min_ops)
           and perf_counter() - start < cap):
        op = next(stream)
        result = err = None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = run(op)
            else:
                result = tracer.run_op(len(records), run, op)
        except Exception as exc:      # counted as a failed operation
            err = exc
        dt = perf_counter() - t0
        busy += dt
        tag = "error"
        if err is None:
            tag = label(op, result)
            if collect is not None:
                result = collect(result)
        records.append((op, result if len(records) < keep else None, dt,
                        err, tag))
    return records


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def group_times(records: list[tuple]) -> dict:
    """Op time per label: the route evaluate took (points), the z list
    (census) or the op kind (crosscheck)."""
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r[4], []).append(r[2])
    return {k: {"ops": len(v), "ms_mean": 1e3 * sum(v) / len(v),
                "ms_p50": 1e3 * statistics.median(v)}
            for k, v in sorted(groups.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("points", "census", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lerchzeta" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a lerchzeta "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lerchzeta
    if Path(lerchzeta.__file__).resolve().parent != SRC / "lerchzeta":
        print(f"error: imported {lerchzeta.__file__}, not the checkout's "
              "package", file=sys.stderr)
        return 2

    import oracle
    import tracing
    import workloads

    w = args.workload
    spec = workloads.SPECS[w]
    run, collect = workloads.runner(w, workloads.modules(), OUT)
    stream = workloads.STREAMS[w](args.seed)

    def phase(seconds, cap, tracer=None):
        return timed_phase(stream, run, collect,
                           lambda op, res: workloads.label(w, op, res),
                           seconds, spec.min_ops, spec.checked, cap, tracer)

    if args.trace == 0:
        setup = measure_setup(w)
        tracing.assert_untraced()
        phases = [phase(args.seconds, PHASE_CAP_S)]
        tracing.assert_untraced()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer = tracing.Tracer(prefix_ops=spec.min_ops)
        tracer.install()
        try:
            traced = phase(args.seconds / 2, PHASE_CAP_S / 2, tracer)
        finally:
            tracer.uninstall()
        phases = [traced, phase(args.seconds / 2, PHASE_CAP_S / 2)]

    # ---- outside every timed region from here on ----
    records = [r for p in phases for r in p]
    probe = []
    if w == "points":
        errors = importlib.import_module("lerchzeta.errors")
        for op in workloads.refusal_probe(args.seed):
            try:
                probe.append((op, run(op), 0.0, None, "probe"))
            except errors.LerchZetaError as exc:
                probe.append((op, None, 0.0, exc, "probe"))
    report = oracle.check(w, phases[0][:spec.checked], probe)
    durations = sorted(r[2] for r in records)
    failed = sum(1 for r in records if r[3] is not None)
    detail = {"workload": w, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(),
              "ops": len(records), "ops_by_phase": [len(p) for p in phases],
              "checked": report["checked"], "tail_percentile": spec.tail_pct,
              "checks": report["ratios"], "wrong": report["wrong"][:5],
              "errors": sorted({repr(r[3]) for r in records if r[3]})[:5],
              "op_ms_percentiles": {
                  str(p): 1e3 * percentile(durations, p)
                  for p in (10, 25, 50, 75, 90, 95, 99)},
              "groups": group_times(phases[0])}

    if args.trace == 0:
        values = {
            "ops_per_s": len(durations) / sum(durations),
            "op_p50_ms": 1e3 * statistics.median(durations),
            "op_tail_ms": 1e3 * percentile(durations, spec.tail_pct),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        detail["setup_runs_s"] = setup
    else:
        values, detail["spans"] = tracing.per_layer(tracer)
        busy = [sum(r[2] for r in p) for p in phases]
        values["trace.overhead_ratio"] = ((len(phases[1]) / busy[1])
                                          / (len(phases[0]) / busy[0]))
        for name, v in report["ratios"].items():
            values[f"check.{name}"] = v
    metrics = {name: {"value": v, "unit": unit_of(name)}
               for name, v in values.items()}
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": report["correct"],
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
