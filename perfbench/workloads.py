"""The benchmark's three workloads.

A workload is set up once per setup repetition and then run in *passes*:
one pass takes every design of the workload (or every sweep point) from
source to a checked result. The run loop in ``run.py`` repeats passes
until its time is up; the seed draws each pass's design order (and, for
the sweep, its pre-warmed half), so the same seed gives the same inputs.
"""

from __future__ import annotations

import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from perfbench.pipeline import (
    EVALUATOR,
    LAYERS,
    NULL_TRACER,
    Design,
    build,
    register_evaluator,
    run_design,
    self_times,
)

#: the seven Table II programs, in registry order
TABLE2 = ("matrix_add", "image_scale", "saxpy", "stencil", "dedup",
          "mergesort", "fibonacci")

#: counters summed over a pass; all are simulated quantities
COUNTS = ("cycles", "ticks_executed", "fast_forwarded_cycles", "l1_hits",
          "l1_misses", "dram_accesses", "spawns_routed")


@dataclass
class PassResult:
    """What one pass measured."""

    wall: float
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: per-operation seconds, source to checked result
    latencies: List[float] = field(default_factory=list)
    #: design id -> its seconds in this pass (computed sweep points only)
    design_seconds: Dict[str, float] = field(default_factory=dict)
    #: COUNTS summed over every operation that produced a result
    counts: Dict[str, int] = field(default_factory=dict)
    #: simulated cycles of the operations this pass actually simulated
    simulated_cycles: int = 0
    #: design id -> engine, fallback, kernel digest, cycles
    designs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: layer -> self seconds (traced passes only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: kernel source bytes generated (traced passes only)
    source_bytes: int = 0
    #: sweep-only measurements
    exp: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    traced: bool = False

    def add(self, outcome: Dict[str, Any]) -> None:
        """Fold one operation's outcome record into the pass."""
        for key in COUNTS:
            self.counts[key] = self.counts.get(key, 0) + outcome.get(key, 0)
        self.designs[outcome["design"]] = {
            key: outcome.get(key) for key in
            ("engine", "compiled_fallback", "kernel_digest", "cycles")}

    def exact(self) -> Dict[str, Any]:
        """The values that must repeat exactly on every pass."""
        exact = {key: self.counts.get(key) for key in
                 ("cycles", "l1_hits", "l1_misses", "dram_accesses",
                  "spawns_routed")}
        exact["kernel_digests"] = {design: info["kernel_digest"]
                                   for design, info in self.designs.items()}
        if "cache_hit_frac" in self.exp:
            exact["cache_hit_frac"] = self.exp["cache_hit_frac"]
        if self.traced:
            exact["source_bytes"] = self.source_bytes
        return exact


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class DesignSuite:
    """A single-process workload: a fixed list of designs per pass."""

    jobs = 1

    def __init__(self, name: str, why: str, designs: List[Design],
                 cold: bool):
        self.name = name
        self.why = why
        self.designs = designs
        #: clear the in-process kernel cache before every design, so each
        #: compiles its kernel as a fresh ``repro run`` process would
        self.cold = cold

    def setup(self, workdir: Path, trace: bool) -> Dict[str, Any]:
        """Fresh kernel cache directory, then warm-up: a cold workload
        runs one whole untimed pass (lazy imports, disk mirror filled);
        a warm one compiles every design's kernel without running it."""
        from repro.sim.compile import clear_kernel_cache, prepare_kernel

        _fresh_dir(Path(os.environ["REPRO_CACHE_DIR"]))
        clear_kernel_cache()
        if self.cold:
            warm = self.run_pass({}, None)
            if warm.failures:
                raise RuntimeError(f"warm-up failed: {warm.failures}")
            return {}
        for design in self.designs:
            _, accelerator, _ = build(design)
            kernel, reason = prepare_kernel(accelerator.sim)
            if kernel is None:
                raise RuntimeError(f"{design.id}: no compiled kernel ({reason})")
        return {}

    def run_pass(self, state, rng, tracer=None, corrupt: bool = False
                 ) -> PassResult:
        from repro.sim.compile import clear_kernel_cache

        tracer = tracer or NULL_TRACER
        order = list(self.designs)
        if rng is not None:
            rng.shuffle(order)
        start = time.perf_counter()
        with tracer.span("pass"):
            outcomes = []
            for index, design in enumerate(order):
                if self.cold:
                    clear_kernel_cache()
                began = time.perf_counter()
                try:
                    outcome = run_design(design, tracer,
                                         corrupt_check=corrupt and index == 0)
                except Exception as exc:
                    outcome = {"design": design.id, "ok": False,
                               "error": "".join(traceback.format_exception_only(
                                   type(exc), exc)).strip()}
                outcomes.append((outcome, time.perf_counter() - began))
        result = PassResult(wall=time.perf_counter() - start,
                            traced=tracer.enabled)
        for outcome, seconds in outcomes:
            result.attempted += 1
            result.latencies.append(seconds)
            result.design_seconds[outcome["design"]] = seconds
            if not outcome["ok"]:
                result.failures.append(f"{outcome['design']}: {outcome['error']}")
            if "cycles" in outcome:
                result.add(outcome)
        result.simulated_cycles = result.counts.get("cycles", 0)
        if tracer.enabled:
            result.spans = tracer.spans
            result.layers = self_times(tracer.spans)
            result.source_bytes = sum(s.get("source_bytes", 0)
                                      for s in tracer.spans)
        return result


class SweepSuite:
    """``repro.exp.SweepRunner`` over workloads x tiles, half pre-warmed.

    Setup computes every point once into a template ``ResultCache``.
    Each pass then builds a fresh cache holding only the seed-drawn warm
    half (copied from the template, outside the timed span), clears the
    in-process kernel cache so the forked workers start cold, and times
    one sweep. The warm half is stratified: each workload keeps a fixed
    number of warm points and each tile count a fixed share, so every
    seed leaves the same amount of cold work per workload.
    """

    name = "sweep_mixed"

    def __init__(self, why: str, workloads, tiles):
        self.why = why
        self.workloads = tuple(workloads)
        self.tiles = tuple(tiles)
        self.jobs = min(2, os.cpu_count() or 1)
        # workloads alternate between ceil and floor of half their points
        points = len(self.tiles)
        self.warm_per_workload = [(points + 1 - i % 2) // 2
                                  for i in range(len(self.workloads))]
        warm = sum(self.warm_per_workload)
        base, extra = divmod(warm, len(self.tiles))
        middle = len(self.tiles) // 2
        self.warm_per_tile = [
            base + (1 if (i - middle) % len(self.tiles) < extra else 0)
            for i in range(len(self.tiles))]
        self.warm_share = warm / (len(self.workloads) * len(self.tiles))

    @property
    def designs(self) -> List[Design]:
        return [Design(name, 1, tiles) for name in self.workloads
                for tiles in self.tiles]

    def spec(self, design: Design, trace: bool, corrupt: bool = False
             ) -> Dict[str, Any]:
        spec = dict(design.spec(), evaluator=EVALUATOR, trace=trace)
        if corrupt:
            spec["corrupt_check"] = True
        return spec

    def warm_set(self, rng) -> set:
        """Design ids of the pre-warmed points, drawn from ``rng``."""
        while True:
            warm = {(name, tiles)
                    for name, count in zip(self.workloads,
                                           self.warm_per_workload)
                    for tiles in rng.sample(self.tiles, count)}
            per_tile = [sum(1 for _, t in warm if t == tiles)
                        for tiles in self.tiles]
            if per_tile == self.warm_per_tile:
                return {Design(name, 1, tiles).id for name, tiles in warm}

    def setup(self, workdir: Path, trace: bool) -> Dict[str, Any]:
        from repro.exp import ResultCache, SweepRunner, get_evaluator
        from repro.sim.compile import clear_kernel_cache

        register_evaluator()
        _fresh_dir(Path(os.environ["REPRO_CACHE_DIR"]))
        template = ResultCache(_fresh_dir(workdir / "sweep-template"))
        modes = (False, True) if trace else (False,)
        specs = [self.spec(design, mode) for mode in modes
                 for design in self.designs]
        result = SweepRunner(jobs=self.jobs, cache=template).run(specs)
        if result.errors:
            raise RuntimeError("sweep template failed: " + "; ".join(
                r["error"]["message"] for r in result.errors))
        clear_kernel_cache()
        program_text = get_evaluator(EVALUATOR).program_text
        keys = {(spec["workload"], spec["tiles"], spec["trace"]):
                template.key(EVALUATOR, spec, program_text(spec))
                for spec in specs}
        return {"template": template, "keys": keys,
                "pass_dir": workdir / "sweep-pass"}

    def run_pass(self, state, rng, tracer=None, corrupt: bool = False
                 ) -> PassResult:
        from repro.exp import ResultCache, SweepRunner
        from repro.sim.compile import clear_kernel_cache

        tracer = tracer or NULL_TRACER

        class TimedCache(ResultCache):
            """The pass's cache, with a span around every read and write."""

            def get(self, key):
                with tracer.span("exp.cache.get"):
                    return super().get(key)

            def put(self, key, record):
                with tracer.span("exp.cache.put"):
                    super().put(key, record)

        traced = tracer.enabled
        warm = self.warm_set(rng)
        template = state["template"]
        cache = TimedCache(_fresh_dir(state["pass_dir"]))
        for design in self.designs:
            if design.id in warm:
                key = state["keys"][(design.workload, design.tiles, traced)]
                target = cache.path_for(key)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(template.path_for(key), target)
        # a corrupted check goes to the first cold point: a warm one
        # would change its cache key and the seeded hit share
        first_cold = next(d.id for d in self.designs if d.id not in warm)
        specs = [self.spec(design, traced,
                           corrupt=corrupt and design.id == first_cold)
                 for design in self.designs]
        clear_kernel_cache()

        start = time.perf_counter()
        with tracer.span("pass"), tracer.span("sweep"):
            sweep = SweepRunner(jobs=self.jobs, cache=cache).run(specs)
        result = PassResult(wall=time.perf_counter() - start, traced=traced)

        point_seconds: List[float] = []
        queue_waits: List[float] = []
        for record in sweep.records:
            result.attempted += 1
            spec = record["spec"]
            if record["status"] != "ok":
                result.failures.append(f"{Design(spec['workload'], 1, spec['tiles']).id}: "
                                       f"{record['error']['message']}")
                continue
            value = record["value"]
            result.add(value)
            if traced:
                result.source_bytes += value.get("source_bytes", 0)
            if record["cache_hit"]:
                continue
            result.latencies.append(record["seconds"])
            result.design_seconds[value["design"]] = record["seconds"]
            point_seconds.append(record["seconds"])
            queue_waits.append(record.get("queue_wait", 0.0))
            result.simulated_cycles += value["cycles"]
            for layer, seconds in (value.get("layers") or {}).items():
                if layer in LAYERS:
                    result.layers[layer] = result.layers.get(layer, 0.0) + seconds
        result.exp = {
            "cache_hit_frac": sweep.summary["cache_hits"] / len(specs),
            "point_s": point_seconds,
            "queue_wait_s": queue_waits,
            "worker_util": sum(point_seconds) / (result.wall * self.jobs),
        }
        if traced:
            result.spans = tracer.spans
            parent = self_times(tracer.spans)
            for layer in ("exp.cache.get", "exp.cache.put"):
                result.layers[layer] = parent.get(layer, 0.0)
        return result


def make_suites(smoke: bool = False) -> Dict[str, Any]:
    """The benchmark's workloads by name. ``smoke`` shrinks every input
    so the benchmark's own tests finish in seconds."""
    warn = {"analysis_level": "warn"}
    if smoke:
        cold_programs, hot = ("saxpy", "fibonacci"), [("fibonacci", 1), ("stencil", 1)]
        sweep = (("saxpy", "fibonacci", "matrix_add"), (1, 2))
    else:
        cold_programs, hot = TABLE2, [("fibonacci", 4), ("mergesort", 4), ("stencil", 3)]
        sweep = (TABLE2, (1, 2, 4))
    suites = [
        DesignSuite(
            "toolchain_cold",
            "every Table II program from source to checked result with a cold "
            "kernel cache: the compile-side layers take about half the time",
            [Design(name, 1, 2, warn) for name in cold_programs], cold=True),
        DesignSuite(
            "sim_hot",
            "long always-busy simulations with warm kernels: the per-cycle "
            "kernel run is nearly all of the time",
            [Design(name, scale) for name, scale in hot], cold=False),
        SweepSuite(
            "a parallel sweep with half its points in the result cache: the "
            "only workload with sweep dispatch, cache reads and writes, and "
            "worker processes", *sweep),
    ]
    return {suite.name: suite for suite in suites}

