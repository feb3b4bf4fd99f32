#!/usr/bin/env python3
"""Benchmark of the stmgraph pipeline (.stm text -> IBP -> DAG -> distance
model -> queries) on three workloads; see perfbench/NOTES.md.

Run from anywhere; it imports the program from ``src/`` next to this
directory and writes only under ``.perfbench-work/`` and ``.perfbench-out/``
at the repository root:

    python3 perfbench/run.py --workload query-sparse-1k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A failed output check makes the exit code 1; a program that cannot be
imported makes it 2, without a result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
NAMES = ("build-sparse-16k", "query-sparse-1k", "cli-planted-256")
GROWTH_STAGES = ("io.parse_stm", "stm.clean_same_sign", "rect.inclusion_forest",
                 "rect.complement_partition", "convert.stm_to_ibp", "convert.ibp_to_dag",
                 "paths.dag_to_distance_model", "paths.zero_one_bfs", "matmul.ibp_matvec")

now = time.perf_counter


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def import_program():
    sys.path.insert(0, str(SRC))
    import stmgraph
    if not Path(stmgraph.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"stmgraph resolved to {stmgraph.__file__}, outside {SRC}")
    import numpy
    import spans
    import workloads
    return numpy, spans, workloads


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, wl, inp, out, passes, numpy) -> dict:
    return {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "passes": passes, "why": wl.why,
            "params": wl.params(), "sizes": wl.sizes(inp, out), "git_rev": git_rev(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model()}


def verify(wl, inp, out, fingerprints) -> list[tuple[str, str]]:
    """Full checks on the last pass; earlier passes must match it exactly."""
    try:
        fails = list(wl.check(inp, out))
    except Exception as e:  # a malformed output is a failed check, not a crash
        traceback.print_exc()
        fails = [("check", f"{type(e).__name__}: {e}")]
    last = fingerprints[-1]
    for i, fp in enumerate(fingerprints[:-1], start=1):
        fails += [(k, f"pass {i} output differs from the checked pass")
                  for k, v in fp.items() if last.get(k) != v]
    return fails


def print_failures(fails: list[tuple[str, str]], shown: int = 20) -> None:
    for op, msg in fails[:shown]:
        print(f"  FAILED {op}: {msg}")
    if len(fails) > shown:
        print(f"  ... and {len(fails) - shown} more failures")


def end_to_end(rec: dict, rss_mb: float, attempted: int, failed: int) -> dict:
    """Every end-to-end number: (value, unit, samples)."""
    def med(key, scale=1.0):
        xs = rec.get(key)
        return (statistics.median(xs) * scale, len(xs)) if xs else (None, 0)

    def p95(key):
        xs = rec.get(key)
        return (percentile(xs, 95) * 1e3, len(xs)) if xs else (None, 0)

    out = {"setup_s": (*med("setup"), "s"), "total_s": (*med("total"), "s"),
           "sssp_p50_ms": (*med("sssp", 1e3), "ms"), "sssp_p95_ms": (*p95("sssp"), "ms"),
           "matvec_p50_ms": (*med("matvec", 1e3), "ms"),
           "matvec_p95_ms": (*p95("matvec"), "ms"),
           "scatter_p50_ms": (*med("scatter", 1e3), "ms"),
           "apsp_s": (*med("apsp"), "s"), "matmul_s": (*med("matmul"), "s"),
           "peak_rss_mb": (rss_mb, 1, "MB"),
           "fail_frac": (failed / attempted, attempted, "ratio")}
    for key in sorted(k for k in rec if k.startswith("cli.")):
        out[f"{key}_s"] = (*med(key), "s")
    return {k: {"value": v, "samples": n, "unit": u} for k, (v, n, u) in out.items()}


def result_line(spec_metrics: list[dict], values: dict, attempted: int, failed: int) -> str:
    metrics = {}
    for m in spec_metrics:
        v = values.get(m["name"])
        if v is None:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_untraced(args, wl, inp, spec, numpy) -> tuple[int, dict, str]:
    rec: dict = defaultdict(list)
    fingerprints, durations = [], []
    out, attempted = None, 0
    start = now()
    while True:
        out = None
        gc.collect()
        t = now()
        out = wl.run_pass(inp, rec)
        durations.append(now() - t)
        if len(durations) == 1:  # so it does not depend on how many passes fit
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += wl.ops(out)
        fingerprints.append(wl.fingerprint(out))
        if now() - start + statistics.median(durations) > args.seconds:
            break
    fails = verify(wl, inp, out, fingerprints)
    failed = min(len(fails), attempted)
    e2e = end_to_end(rec, rss_mb, attempted, failed)
    print(f"workload {wl.name}  seed {args.seed}  passes {len(durations)}  "
          f"measured {now() - start:.1f} s")
    for name, m in e2e.items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:32s} {shown:>12s} {m['unit']:5s}  n={m['samples']}")
    print_failures(fails)
    record = run_record(args, wl, inp, out, len(durations), numpy)
    values = {k: m["value"] for k, m in e2e.items()}
    return failed, record, result_line(spec["end_to_end"], values, attempted, failed)


def run_traced(args, wl, inp, spec, numpy, spans, workloads) -> tuple[int, dict, str]:
    """A warm-up pass, an untraced pass, then the same pass traced; the
    difference in total_s between the last two is the tracing overhead.
    build-sparse-16k also traces a build at n=2^12 for the growth exponents."""
    untraced: dict = defaultdict(list)
    fingerprints = []
    for rec in (defaultdict(list), untraced):  # the first pass of a process runs slower
        out = wl.run_pass(inp, rec)
        fingerprints.append(wl.fingerprint(out))
        out = None
        gc.collect()
    small = small_inp = None
    if wl.name == "build-sparse-16k":
        small = workloads.BuildSparse(1 << 12, 1 << 14)
        small_inp = small.prepare(args.seed, None)
    tracer = spans.Tracer()
    rec: dict = defaultdict(list)
    with tracer.installed():
        out = wl.run_pass(inp, rec, tracer)
        if small is not None:
            tracer.run = "growth"
            small.run_pass(small_inp, defaultdict(list), tracer)
            tracer.run = "pass"
    attempted = 3 * wl.ops(out)
    fails = verify(wl, inp, out, fingerprints + [wl.fingerprint(out)])
    failed = min(len(fails), attempted)

    report = spans.layer_report(tracer, "pass")
    report["trace.overhead_s"] = rec["total"][0] - untraced["total"][0]
    growth = {}
    if small is not None:
        big_f, small_f = tracer.per_function("pass"), tracer.per_function("growth")
        x_big = (inp["A"] + inp["B"]) * math.log2(inp["n"])
        x_small = (small_inp["A"] + small_inp["B"]) * math.log2(small_inp["n"])
        for stage in GROWTH_STAGES:
            tb, ts = big_f[stage]["total_s"], small_f[stage]["total_s"]
            growth[f"{stage}.growth"] = math.log(tb / ts) / math.log(x_big / x_small)

    c = tracer.counters["pass"]
    print(f"workload {wl.name}  seed {args.seed}  traced pass {rec['total'][0]:.3f} s  "
          f"untraced pass {untraced['total'][0]:.3f} s  "
          f"overhead {report['trace.overhead_s']:+.3f} s")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in sorted(report):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"  {name:40s} {report[name]:14.6g} {unit}")
    print("  bounds (actual vs paper bound):")
    for label, actual, bound in (
            ("bicliques vs 3|A|+|B| after cleaning", report["convert.bicliques"],
             c.get("_clean_bound", 0)),
            ("pieces vs sum of 3h+1 over rectangles", report["rect.complement_pieces"],
             c.get("_pieces_bound", 0)),
            ("DAG extra edges vs (2 ceil(log2 n)+1) per biclique", c.get("_dag_extra", 0),
             c.get("_dag_extra_bound", 0)),
            ("sdseq model pairs vs (d+1)(n-1)", c.get("_sdseq_pairs", 0),
             (report["sddegen.width"] + 1) * (c.get("_sdseq_n", 1) - 1))):
        print(f"    {label:52s} {actual:>10} <= {bound}")
    print(f"    max pieces/(3h+1) over rectangles with holes {c.get('_pieces_max_ratio', 0):.4f}")
    if report.get("convert.stm_to_ibp_calls"):
        print(f"    inclusion_forest calls per stm_to_ibp "
              f"{report['rect.inclusion_forest_calls'] / report['convert.stm_to_ibp_calls']:g}")
    for name, g in growth.items():
        print(f"  {name:40s} {g:14.4f} (exponent in p*log n, 2^12 -> 2^14)")
    negative = tracer.per_function("negative")
    if negative:
        print(f"  negative input (not in the counts above): "
              f"{ {k: int(v['calls']) for k, v in negative.items()} }")
    print_failures(fails)
    record = run_record(args, wl, inp, out, 1, numpy)
    record.update(per_layer=report, growth=growth, spans=tracer.spans)
    return failed, record, result_line(spec["per_layer"], report, attempted, failed)


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        numpy, spans, workloads = import_program()
    except ImportError as e:
        print(f"cannot import the program from {SRC}: {e}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        wl = wl.traced()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        inp = wl.prepare(args.seed, workdir)
        # Keep the harness's own objects out of the program's garbage collections.
        gc.collect()
        gc.freeze()
        if args.trace:
            failed, record, result = run_traced(args, wl, inp, spec, numpy, spans, workloads)
        else:
            failed, record, result = run_untraced(args, wl, inp, spec, numpy)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if k not in ("spans", "per_layer")}))
    print(result)
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, code = {}, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
