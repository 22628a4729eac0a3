"""Fixed-work benchmark for dyncolor.

Usage, from the repository root:

    python3 bench/run.py --workload lll_sparse --seed 1 --seconds 20 --trace 0

Runs one workload in this process and thread against the package under
src/, checks every output with the benchmark's own code, and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 each operation of the first
pass is repeated as separate public calls inside spans, the metrics are per
layer, and the spans are written to bench/out/.  End-to-end times are
scaled to a reference host speed measured during the run (hostref.py).
Metric names and units come from BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import hostref
from tracing import Tracer
from workloads import PASSES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer metric -> (span name, scale from seconds); reported as the median
SPAN_MEDIANS = {
    "sublists.resample_ms": ("sublists.resample_until_clear", 1e3),
    "sublists.sample_ms": ("sublists.sample_sublists", 1e3),
    "transversal.decide_us": ("transversal.bad_event_holds", 1e6),
    "coloring.chi_ms": ("coloring.chi_exact", 1e3),
    "coloring.choosable_ms": ("coloring.is_k_choosable", 1e3),
    "coloring.list_color_ms": ("coloring.solve_list_coloring", 1e3),
    "coloring.verify_ms": ("coloring.is_r_dynamic", 1e3),
    "constructions.report_ms": ("constructions.construction_report", 1e3),
    "graphs.gnp_ms": ("graphs.generate.gnp", 1e3),
    "graphs.random_regular_ms": ("graphs.generate.random_regular", 1e3),
    "experiments.lists_ms": ("experiments.random_list_assignment", 1e3),
    "greedy.color_ms": ("greedy.greedy_r_dynamic", 1e3),
}


def fresh_import():
    """Import dyncolor from src/ as a first import would, module code and all."""
    for name in [m for m in sys.modules if m == "dyncolor" or m.startswith("dyncolor.")]:
        del sys.modules[name]
    dc = importlib.import_module("dyncolor")
    if Path(dc.__file__).resolve().parent != SRC / "dyncolor":
        raise ImportError(f"dyncolor imported from {dc.__file__}, not from {SRC}")
    return dc


def named(kind, values):
    """The metrics BENCHMARK.json lists under `kind`, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def ratio(num, den):
    return num / den if den else 0.0


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def at_reference(samples, refs):
    """Each (seconds, k) sample scaled to the reference host speed.

    refs[k] is the last host reading taken before the sample.  The median
    of it, the reading before it and the reading after it gives the host's
    speed around the sample (see hostref.py).
    """
    return [s * hostref.NOMINAL_MS / statistics.median(refs[max(0, k - 1) : k + 2]) for s, k in samples]


def end_to_end(wl, times, setup_times):
    """ops_per_s, op_p50_ms and setup_s from per-kind and set-up seconds."""
    # each operation counts at the median time of its kind (see Workload.kind)
    typical = {k: statistics.median(t) for k, t in times.items()}
    per_op = [typical[wl.kind(i)] for i in wl.ops() if wl.kind(i) in typical]
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "setup_s": statistics.median(setup_times),
    }


def layer_metrics(tracer, wl, untraced_s, traced_s, host_ms, setups):
    c = wl.counters
    values = {name: median_or_zero(tracer.durations(span)) * scale for name, (span, scale) in SPAN_MEDIANS.items()}
    resample_s = sum(tracer.durations("sublists.resample_until_clear"))
    parse_s = sum(s["end"] - s["start"] for s in tracer.spans if s["name"].startswith("io."))
    values.update(
        {
            "sublists.sweep_us": ratio(resample_s * 1e6, c.get("sweeps_plus_one", 0)),
            "sublists.sweeps": c.get("sweeps", 0),
            "sublists.needed_check_ratio": ratio(c.get("checks_needed", 0), c.get("checks_made", 0)),
            "transversal.family_size": ratio(c.get("family_members", 0), c.get("decisions", 0)),
            "transversal.hit_ratio": ratio(c.get("members_hit", 0), c.get("members_checked", 0)),
            "io.parse_ms": parse_s * 1e3 / setups,
            "host.ref_ms": host_ms,
            "trace.overhead_pct": 100.0 * (ratio(traced_s, untraced_s) - 1.0),
        }
    )
    return named("per_layer", values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "dyncolor" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'dyncolor'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    tracer = Tracer() if args.trace else None

    setup_times, times, problems, refs = [], {}, [], []
    attempted = failed = 0
    untraced_s = traced_s = 0.0
    for p in range(PASSES):
        for _ in range(wl.setup_repeats):
            gc.collect()
            refs.append(hostref.reading_ms())
            start = time.perf_counter()
            span = tracer.begin("setup") if tracer else None
            dc = fresh_import()
            wl.setup(dc, tracer)
            if span:
                tracer.end(span)
            setup_times.append((time.perf_counter() - start, len(refs) - 1))
            try:
                wl.check_setup()
            except checks.CheckFailed as exc:
                problems.append(f"set-up: {exc}")

        gc.collect()
        last_ref = time.perf_counter()
        for i in wl.ops():
            if time.perf_counter() - last_ref >= hostref.INTERVAL_S:
                refs.append(hostref.reading_ms())
                last_ref = time.perf_counter()
            attempted += 1
            start = time.perf_counter()
            try:
                out = wl.run(i)
            except Exception:  # an operation that raises counts as failed
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            if wl.failed(out):
                failed += 1
                continue
            times.setdefault(wl.kind(i), []).append((elapsed, len(refs) - 1))
            try:
                wl.check(i, out)
                if tracer and p == 0:
                    tracer.op = i
                    span = tracer.begin("op")
                    split = wl.traced(i, tracer)
                    tracer.end(span)
                    untraced_s += elapsed
                    traced_s += span["end"] - span["start"]
                    tracer.op = None
                    wl.inspect(i, out, split, tracer)
            except checks.CheckFailed as exc:
                problems.append(f"pass {p} op {i}: {exc}")
    refs.append(hostref.reading_ms())
    host_ms = statistics.median(refs)

    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"host.ref_ms {host_ms:.3f}", file=sys.stderr)
    if tracer:
        metrics = layer_metrics(tracer, wl, untraced_s, traced_s, host_ms, len(setup_times))
        OUT.mkdir(exist_ok=True)
        summary = {
            "workload": args.workload,
            "seed": args.seed,
            "metrics": metrics,
            "counters": wl.counters,
            "op_shares": tracer.child_shares("op"),
            "setup_shares": tracer.child_shares("setup"),
        }
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", summary)
        print(f"op shares {summary['op_shares']}", file=sys.stderr)
        print(f"setup shares {summary['setup_shares']}", file=sys.stderr)
    else:
        measured = end_to_end(
            wl, {k: [e for e, _ in t] for k, t in times.items()}, [e for e, _ in setup_times]
        )
        print(f"as measured {json.dumps(measured)}", file=sys.stderr)
        scaled = end_to_end(
            wl, {k: at_reference(t, refs) for k, t in times.items()}, at_reference(setup_times, refs)
        )
        scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = named("end_to_end", scaled)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
