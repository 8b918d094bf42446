"""The repository benchmark: one workload, one process, checked results.

    python3 perfbench/run.py --workload toolchain_cold --seed 1 \
        --seconds 20 --trace 0

Sets up the workload (the median of several repetitions is ``setup_s``),
then repeats passes over it for ``--seconds`` and prints every metric by
name and unit. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics, with the traced-minus-
untraced pass time as tracing overhead. The full record (provenance,
per-design engine and kernel digest, per-pass values, spans) is written
to ``perfbench/_work/results/``.

Exits 1 without a result line when the toolchain cannot be imported,
and with ``"correct": false`` when any operation failed or a simulated
quantity did not repeat exactly across passes.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
if __name__ == "__main__":
    # the checkout's own toolchain, never an installed one
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

from perfbench.pipeline import LAYERS, Tracer  # noqa: E402

#: end-to-end metrics: name -> unit (from untraced passes)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "designs_per_s": "1/s",
    "sim_cycles_per_s": "cycles/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "sim_cycles": "cycles",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> unit (from traced passes)
PER_LAYER = {
    "frontend.s": "s",
    "generate.s": "s",
    "analysis.s": "s",
    "elaborate.s": "s",
    "kernel.codegen.s": "s",
    "kernel.compile.s": "s",
    "kernel.source_bytes": "bytes",
    "kernel.run.s": "s",
    "kernel.run.cycles_per_s": "cycles/s",
    "kernel.ticks_executed": "count",
    "kernel.ff_frac": "ratio",
    "workloads.prepare.s": "s",
    "workloads.check.s": "s",
    "exp.cache_hit_frac": "ratio",
    "exp.cache.get_s": "s",
    "exp.cache.put_s": "s",
    "exp.queue_wait_p50_s": "s",
    "exp.point_s_p50": "s",
    "exp.worker_util": "ratio",
    "model.l1_hit_frac": "ratio",
    "model.dram_accesses": "count",
    "model.spawns_routed": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

#: setup repetitions whose median is setup_s
SETUP_REPS = 3

#: pipeline layers plus the sweep's cache reads and writes: the span
#: names whose self times make up a pass (the coverage numerator)
LAYER_TIMES = LAYERS + ("exp.cache.get", "exp.cache.put")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one setup repetition")
    parser.add_argument("--corrupt-check", action="store_true",
                        help="invert the golden-model comparison of the "
                             "first timed operation (self-test: it must "
                             "be counted as failed)")
    return parser.parse_args(argv)


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the median for q=50; 0
    when there is no sample (every operation of the kind failed)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def git_rev():
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def first_divergence(passes):
    """None when every pass repeats the first pass's exact values (and
    every traced pass the first traced one's); else a description."""
    for kind in (False, True):
        group = [p for p in passes if p.traced == kind]
        for index, other in enumerate(group[1:], 1):
            base, seen = group[0].exact(), other.exact()
            for key in sorted(set(base) | set(seen)):
                if base.get(key) != seen.get(key):
                    return (f"{key} differs between passes: {base.get(key)!r} "
                            f"vs {seen.get(key)!r} (pass {index})")
    return None


def end_to_end(passes, setup_s, jobs):
    untraced = [p for p in passes if not p.traced]
    latencies = sorted(x for p in untraced for x in p.latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        # forked sweep workers: the largest one is added to the parent
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in untraced),
        "designs_per_s": statistics.median(
            (p.attempted - len(p.failures)) / p.wall for p in untraced),
        "sim_cycles_per_s": statistics.median(
            p.simulated_cycles / p.wall for p in untraced),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "sim_cycles": untraced[0].counts.get("cycles", 0),
        "peak_rss_mb": rss_kb / 1024.0,
    }, len(latencies)


def per_layer(passes, jobs):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def layer(name):
        return med(lambda p: p.layers.get(name, 0.0))

    first = traced[0]
    counts = first.counts
    l1 = counts.get("l1_hits", 0) + counts.get("l1_misses", 0)
    point_s = [x for p in traced for x in p.exp.get("point_s", [])]
    waits = [x for p in traced for x in p.exp.get("queue_wait_s", [])]
    metrics = {f"{name}.s": layer(name) for name in LAYERS}
    metrics.update({
        "kernel.source_bytes": first.source_bytes,
        "kernel.run.cycles_per_s": med(
            lambda p: p.simulated_cycles / p.layers["kernel.run"]
            if p.layers.get("kernel.run") else 0.0),
        "kernel.ticks_executed": counts.get("ticks_executed", 0),
        "kernel.ff_frac": (counts.get("fast_forwarded_cycles", 0)
                           / max(1, counts.get("cycles", 0))),
        "exp.cache_hit_frac": first.exp.get("cache_hit_frac", 0.0),
        "exp.cache.get_s": layer("exp.cache.get"),
        "exp.cache.put_s": layer("exp.cache.put"),
        "exp.queue_wait_p50_s": percentile(waits, 50),
        "exp.point_s_p50": percentile(point_s, 50),
        "exp.worker_util": med(lambda p: p.exp.get("worker_util", 0.0)),
        "model.l1_hit_frac": counts.get("l1_hits", 0) / l1 if l1 else 0.0,
        "model.dram_accesses": counts.get("dram_accesses", 0),
        "model.spawns_routed": counts.get("spawns_routed", 0),
        "trace.overhead_s": (med(lambda p: p.wall)
                             - statistics.median(p.wall for p in untraced)),
        "trace.coverage": med(lambda p: sum(
            p.layers.get(name, 0.0) for name in LAYER_TIMES) / (p.wall * jobs)),
    })
    return metrics


def layer_table(passes, jobs):
    """Rows of (layer, median self seconds per traced pass, share of the
    traced pass wall times the worker count)."""
    traced = [p for p in passes if p.traced]
    wall = statistics.median(p.wall for p in traced)
    rows = []
    for name in LAYER_TIMES:
        seconds = statistics.median(p.layers.get(name, 0.0) for p in traced)
        rows.append((name, seconds, seconds / (wall * jobs)))
    return rows, wall


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro
    from repro.exp import code_fingerprint

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: repro imported from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 1
    from perfbench.workloads import make_suites

    import repro.accel  # noqa: F401  (imports are part of setup)
    import repro.analysis  # noqa: F401
    import repro.exp  # noqa: F401
    import repro.sim.compile  # noqa: F401
    import repro.workloads  # noqa: F401

    fingerprint = code_fingerprint()
    one_time_s = time.perf_counter() - PROCESS_START

    suites = make_suites(smoke=args.smoke)
    if args.workload not in suites:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(suites)}", file=sys.stderr)
        return 2
    suite = suites[args.workload]
    workdir = BENCH_DIR / "_work" / args.workload
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")

    reps = 1 if (args.smoke or args.trace) else SETUP_REPS
    setup_times = []
    for _ in range(reps):
        began = time.perf_counter()
        state = suite.setup(workdir, trace=bool(args.trace))
        setup_times.append(time.perf_counter() - began)
    setup_s = one_time_s + statistics.median(setup_times)

    rng = random.Random(args.seed)
    passes = []
    rss_after = []  # the process's peak resident MB after each pass
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        # each pass starts from a collected heap, as a fresh process
        # would: the previous pass's garbage is not timed, and the peak
        # memory does not depend on how many passes fit in the run
        gc.collect()
        passes.append(suite.run_pass(
            state, rng, Tracer() if traced else None,
            corrupt=args.corrupt_check and not passes))
        rss_after.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() >= deadline:
            break

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    divergence = first_divergence(passes)
    e2e, samples = end_to_end(passes, setup_s, suite.jobs)
    metrics = per_layer(passes, suite.jobs) if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    correct = not failures and divergence is None

    designs = {}
    for p in passes:
        designs.update(p.designs)
    for design, info in designs.items():
        seconds = [p.design_seconds[design] for p in passes
                   if not p.traced and design in p.design_seconds]
        info["latency_p50_s"] = statistics.median(seconds) if seconds else None
    record = {
        "workload": args.workload, "why": suite.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "host": host_fingerprint(), "git_rev": git_rev(),
        "code_fingerprint": fingerprint,
        "samples": {"latency": samples, "setup_reps": reps,
                    "untraced_passes": sum(not p.traced for p in passes),
                    "traced_passes": sum(p.traced for p in passes),
                    "operations": attempted},
        "designs": designs, "failures": failures, "divergence": divergence,
        "end_to_end": e2e, "metrics": metrics,
        "passes": [{"wall": p.wall, "traced": p.traced,
                    "attempted": p.attempted, "failed": len(p.failures),
                    "peak_rss_mb": rss, "design_seconds": p.design_seconds,
                    "exact": p.exact(), "layers": p.layers}
                   for p, rss in zip(passes, rss_after)],
    }
    results = BENCH_DIR / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [dict(s, pass_index=i) for i, p in enumerate(passes)
                 for s in p.spans]
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))

    host = record["host"]
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}): {suite.why}")
    print(f"host: {host['cpu_model']}, {host['nproc']} cpus, Python "
          f"{host['python']}; git {record['git_rev'] or 'n/a'}; "
          f"code {fingerprint[:12]}")
    for design, info in sorted(designs.items()):
        print(f"  {design}: engine {info['engine']}, fallback "
              f"{info['compiled_fallback']}, kernel "
              f"{(info['kernel_digest'] or '-')[:12]}, {info['cycles']} cycles, "
              f"median {info['latency_p50_s'] or 0:.4f} s")
    print(f"samples: {samples} latencies, {record['samples']['untraced_passes']}"
          f" untraced + {record['samples']['traced_passes']} traced passes, "
          f"{reps} setup reps")
    if args.trace:
        rows, wall = layer_table(passes, suite.jobs)
        print(f"layer self time per traced pass (median; pass {wall:.4f} s "
              f"x {suite.jobs} worker(s)):")
        for name, seconds, share in rows:
            print(f"  {name:<20} {seconds:10.5f} s {100 * share:6.1f}%")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {len(failures) / max(1, attempted):.6g} ratio "
          f"({len(failures)} of {attempted} operations)")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    if divergence:
        print(f"NONDETERMINISTIC {divergence}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
