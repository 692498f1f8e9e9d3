"""Benchmark of the smmn pipeline, end to end and per layer.

    python3 bench/run.py --workload train-o3 --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Workloads: ``train-o3``, ``detect-o3``, ``train-o6`` (see
bench/README.md).  ``--trace 0`` times whole rounds of the workload for
about ``--seconds`` seconds (at least one round) and prints the end-to-end
metrics; ``--trace 1`` runs one round untraced and one traced, writes the
span file and prints the per-layer table.  Every run checks the program's outputs.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "subjects_per_s": "subjects/s",
    "peak_mem_mib": "MiB",
}


def limit_blas_threads():
    """At most one BLAS/OpenMP thread per CPU this process may use."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cpus:
            os.environ[var] = str(cpus)
    return cpus


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds():
    """Time to import ``smmn.cli`` (with numpy and scipy) in a fresh
    interpreter, as every CLI call pays it; timed inside the child."""
    code = ("import time; t = time.perf_counter(); import smmn.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def cold_setup_seconds(wl):
    """One import of ``smmn.cli`` in a fresh interpreter plus one cold
    set-up of the workload, which leaves the caches warm."""
    imported = import_seconds()
    gc.collect()
    start = time.perf_counter()
    wl.setup()
    return imported + time.perf_counter() - start


def untraced_run(wl, seconds):
    """Set-ups alternate with whole rounds, so that both sample the whole
    run; rounds stop once another would end over half a round past
    ``seconds`` of round time."""
    setups = [cold_setup_seconds(wl)]
    rounds = []
    while True:
        rounds.append(wl.round(len(rounds)))
        walls = [r.wall for r in rounds]
        if sum(walls) + statistics.median(walls) / 2 > seconds:
            break
        setups.append(cold_setup_seconds(wl))
    peak = peak_rss_mib()
    while len(setups) < SETUP_REPEATS:
        setups.append(cold_setup_seconds(wl))
    print("round walls (s): " + ", ".join(f"{w:.3f}" for w in walls)
          + "; set-ups (s): " + ", ".join(f"{t:.3f}" for t in setups),
          file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setups),
        "subjects_per_s": statistics.median(r.subjects / r.wall for r in rounds),
        "peak_mem_mib": peak,
    }
    return rounds, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced_run(wl, tracer, span_path):
    """One untraced set-up and round, then the same traced."""
    start = time.perf_counter()
    wl.setup()
    plain = wl.round(0)
    untraced_wall = time.perf_counter() - start

    gc.collect()
    tracer.install()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        wl.setup()
        traced = wl.round(1)
        traced_wall = time.perf_counter() - start
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    if tracer.missing:
        print("bench: not traced (absent from the program): "
              + ", ".join(tracer.missing), file=sys.stderr)
    span_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(span_path)
    values, self_sum = tracer.layer_metrics()
    values["trace.traced_wall_s"] = (traced_wall, "s")
    values["trace.untraced_wall_s"] = (untraced_wall, "s")
    values["trace.self_sum_s"] = (self_sum, "s")
    values["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    tracing.print_table(values, sys.stdout)
    print(f"traced wall {traced_wall:.3f} s, untraced wall {untraced_wall:.3f} s, "
          f"sum of self times {self_sum:.3f} s "
          f"(overhead {values['trace.overhead_pct'][0]:+.1f}%); spans: {span_path}")
    return [plain, traced], {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-o3", "detect-o3", "train-o6"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs, for bench/selftest.py")
    args = parser.parse_args(argv)

    if not (SRC / "smmn" / "__init__.py").is_file():
        print(f"bench: no smmn sources in {SRC}", file=sys.stderr)
        return 2
    threads = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import smmn
    if Path(smmn.__file__).resolve().parent != SRC / "smmn":
        print(f"bench: smmn imported from {smmn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    digest = workloads.source_digest(SRC / "smmn")
    checkpoint = workloads.ensure_checkpoint(WORK, SRC, digest, args.size)
    work = WORK / f"{args.workload}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.make(args.workload, args.size, work, args.seed, checkpoint)

    checks = workloads.Checks()
    if args.trace:
        tracer = tracing.Tracer(input_order=wl.order)
        span_path = WORK / "trace" / f"{args.workload}-{args.size}-seed{args.seed}.jsonl"
        rounds, metrics = traced_run(wl, tracer, span_path)
    else:
        rounds, metrics = untraced_run(wl, args.seconds)
    for r in rounds:
        checks.add(f"{r.out.name}: CLI exit codes 0", all(c == 0 for c in r.codes),
                   f"codes {r.codes}")
    wl.check(rounds, checks)
    workloads.record_reproducibility(
        WORK / "ledger.json", f"{digest[:16]}:{args.workload}:{args.size}:{args.seed}",
        rounds, checks)

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{len(rounds)} round(s), BLAS threads {threads}, "
          f"{sum(ok for _, ok, _ in checks.results)}/{len(checks.results)} checks "
          "passed", file=sys.stderr)
    for name, ok, detail in checks.results:
        print(f"  {'ok ' if ok else 'BAD'} {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
