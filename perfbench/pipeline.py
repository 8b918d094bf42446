"""One design from source to checked result, with optional layer spans.

Every workload of the benchmark is built from :func:`run_design`: it
calls the toolchain's public stages one by one, in the order
``repro.accel.build_accelerator`` and ``Workload.run`` call them, so
the benchmark can put a span around each layer without changing
anything under ``src/``:

    frontend.compile_source -> accel.generator.generate (incl. passes)
    -> analysis.analyze_design + analysis.lint.lint_design (if gated)
    -> accel.Accelerator(...) -> Workload.prepare -> Accelerator.run
    -> PreparedRun.check

The kernel layer runs inside ``Accelerator.run``. A traced run splits
it by wrapping two module attributes of ``repro.sim.compile`` for the
duration of the call (see :func:`kernel_probes`); an untraced run
installs nothing and records nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: the layers whose self time the traced run reports, in pipeline order
LAYERS = ("frontend", "generate", "analysis", "elaborate",
          "workloads.prepare", "kernel.codegen", "kernel.compile",
          "kernel.run", "workloads.check")

#: per-design cycle budget; every workload finishes far below it
MAX_CYCLES = 50_000_000

#: the evaluator name the sweep workload registers with repro.exp
EVALUATOR = "perfbench"


class Tracer:
    """In-memory span recorder. Spans nest (one thread); a child span
    inherits its parent's design identifier. Nothing is written until
    the caller dumps :attr:`spans` at the end of the run."""

    enabled = True

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, design: Optional[str] = None
             ) -> Iterator[Dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "id": len(self.spans),
                  "parent": parent["id"] if parent else None,
                  "design": design or (parent["design"] if parent else None),
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str, design: Optional[str] = None
             ) -> Iterator[Dict[str, Any]]:
        yield {}


NULL_TRACER = NullTracer()


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per span name, each span's duration minus the part its
    direct children cover (spans nest, so children never overlap)."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    out: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


@contextmanager
def kernel_probes(tracer):
    """Split ``Accelerator.run`` into kernel codegen, kernel compile and
    kernel run for a traced design.

    The engine looks ``repro.sim.compile.prepare_kernel`` up when a run
    starts, and ``prepare_kernel`` calls ``_generate`` (the function
    behind the public ``generate_source``) through the module globals,
    so replacing both attributes for the duration of one run times them
    in place, without doing any of their work twice. The originals are
    restored on exit. An attribute that does not exist is left alone;
    its layer then reads 0.
    """
    if not tracer.enabled:
        yield
        return
    import repro.sim.compile as kernel_module

    originals = {name: getattr(kernel_module, name, None)
                 for name in ("prepare_kernel", "_generate")}

    def prepare_kernel(sim):
        with tracer.span("kernel.compile"):
            return originals["prepare_kernel"](sim)

    def generate(sim):
        with tracer.span("kernel.codegen") as record:
            result = originals["_generate"](sim)
            source = result[0] if isinstance(result, tuple) else result
            if isinstance(source, str):
                record["source_bytes"] = len(source.encode("utf-8"))
            return result

    wrappers = {"prepare_kernel": prepare_kernel, "_generate": generate}
    for name, original in originals.items():
        if original is not None:
            setattr(kernel_module, name, wrappers[name])
    try:
        yield
    finally:
        for name, original in originals.items():
            if original is not None:
                setattr(kernel_module, name, original)


@dataclass
class Design:
    """One design of a workload: a registered program, its input scale
    and the plain-JSON config overrides ``repro.exp.config_from_spec``
    understands. The engine is always the compiled one."""

    workload: str
    scale: int = 1
    tiles: Optional[int] = None
    overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def id(self) -> str:
        return f"{self.workload}/scale{self.scale}/tiles{self.tiles or 'paper'}"

    def spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {"workload": self.workload,
                                "tiles": self.tiles, "scale": self.scale,
                                "engine": "compiled"}
        if self.overrides:
            spec["overrides"] = dict(self.overrides)
        return spec


def build(design: Design, tracer=NULL_TRACER):
    """Source to elaborated accelerator plus its prepared inputs:
    ``(workload, accelerator, prepared run)``."""
    from repro.accel import Accelerator
    from repro.accel.generator import generate
    from repro.analysis import analyze_design
    from repro.analysis.diagnostics import SEVERITY_ERROR, SEVERITY_WARNING
    from repro.analysis.lint import lint_design
    from repro.errors import AnalysisError
    from repro.exp import config_from_spec
    from repro.frontend import compile_source
    from repro.workloads import REGISTRY

    workload = REGISTRY.get(design.workload)
    config = config_from_spec(workload, design.spec())
    with tracer.span("frontend"):
        module = compile_source(workload.source, workload.name)
    with tracer.span("generate"):
        generated = generate(module)
    if config.analysis_level != "none":
        with tracer.span("analysis"):
            report = analyze_design(generated)
            report.extend(lint_design(generated, config=config))
        # the same refusal rule build_accelerator applies
        threshold = (SEVERITY_ERROR if config.analysis_level == "warn"
                     else SEVERITY_WARNING)
        if report.fails(threshold):
            raise AnalysisError(
                f"analysis refused {design.id}: "
                f"{report.count(SEVERITY_ERROR)} error(s)",
                diagnostics=report.sorted())
    with tracer.span("elaborate"):
        accelerator = Accelerator(generated, config)
    with tracer.span("workloads.prepare"):
        prepared = workload.prepare(accelerator.memory, design.scale)
    return workload, accelerator, prepared


def run_design(design: Design, tracer=NULL_TRACER,
               corrupt_check: bool = False) -> Dict[str, Any]:
    """Take ``design`` from source to a checked result.

    Returns the outcome record: ``ok`` is true only when the result
    matches the workload's golden model and the compiled engine really
    ran (no fallback). ``corrupt_check`` inverts the golden-model
    comparison, to prove that a wrong answer is counted. Exceptions
    propagate; the caller counts them as failures.
    """
    with tracer.span("design", design=design.id):
        _, accelerator, prepared = build(design, tracer)
        with tracer.span("kernel.run"), kernel_probes(tracer):
            result = accelerator.run(prepared.function, prepared.args,
                                     max_cycles=MAX_CYCLES)
        with tracer.span("workloads.check"):
            correct = prepared.check(accelerator.memory, result.retval)
    if corrupt_check:
        correct = not correct
    engine = result.stats["engine"]
    fallback = engine.get("compiled_fallback")
    cache = result.stats.get("cache") or {}
    error = None
    if not correct:
        error = "result differs from the golden model"
    elif engine.get("name") != "compiled" or fallback is not None:
        error = f"compiled engine did not run (fallback: {fallback!r})"
    return {
        "design": design.id,
        "ok": error is None,
        "error": error,
        "cycles": result.cycles,
        "engine": engine.get("name"),
        "compiled_fallback": fallback,
        "kernel_digest": getattr(accelerator.sim, "compiled_digest", None),
        "ticks_executed": engine.get("ticks_executed", 0),
        "fast_forwarded_cycles": engine.get("fast_forwarded_cycles", 0),
        "l1_hits": cache.get("hits", 0),
        "l1_misses": cache.get("misses", 0),
        "dram_accesses": (result.stats.get("dram") or {}).get("accesses", 0),
        "spawns_routed": result.stats["network"]["spawns_routed"],
    }


def evaluate_point(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The sweep workload's ``repro.exp`` evaluator: :func:`run_design`
    inside a sweep worker. A wrong result raises, so the runner records
    an error and never caches it, as the built-in ``workload`` evaluator
    does. With ``spec["trace"]`` the record carries the point's layer
    self times and kernel source size."""
    from repro.errors import TapasError

    design = Design(spec["workload"], spec.get("scale", 1), spec.get("tiles"),
                    dict(spec.get("overrides") or {}))
    tracer = Tracer() if spec.get("trace") else NULL_TRACER
    outcome = run_design(design, tracer,
                         corrupt_check=bool(spec.get("corrupt_check")))
    if not outcome["ok"]:
        raise TapasError(f"{design.id}: {outcome['error']}")
    if tracer.enabled:
        outcome["layers"] = self_times(tracer.spans)
        outcome["source_bytes"] = sum(s.get("source_bytes", 0)
                                      for s in tracer.spans)
    return outcome


def register_evaluator() -> None:
    """Make :func:`evaluate_point` available to ``SweepRunner`` (forked
    workers inherit the registration)."""
    from repro.exp import register_evaluator as register
    from repro.workloads import REGISTRY

    register(EVALUATOR, evaluate_point,
             program_text=lambda spec: REGISTRY.get(spec["workload"]).source,
             replace=True)
