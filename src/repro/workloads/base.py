"""Workload harness: the paper's benchmarks as self-checking packages.

Each workload bundles (i) its source in the Cilk-like language, (ii) a
host-side data generator, (iii) a Python golden model, and (iv) the
Table IV tile configuration. The same source drives the accelerator, the
multicore-CPU baseline and the static-HLS baseline — mirroring the paper,
which runs identical Cilk programs everywhere (§V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.accel import Accelerator, AcceleratorConfig, build_accelerator
from repro.errors import TapasError
from repro.frontend import compile_source
from repro.ir.module import Module
from repro.memory.backing import MainMemory


@dataclass
class PreparedRun:
    """Host-side state for one run: entry args plus the result checker."""

    function: str
    args: List[Any]
    check: Callable[[MainMemory, Any], bool]
    #: how many useful work items the run performs (for throughput plots)
    work_items: int


@dataclass
class WorkloadResult:
    name: str
    cycles: int
    correct: bool
    work_items: int
    stats: Dict[str, Any]
    retval: Any = None

    @property
    def cycles_per_item(self) -> float:
        return self.cycles / max(1, self.work_items)


class Workload:
    """Base class; subclasses define source, sizes and the golden model."""

    #: overridden by subclasses
    name = "abstract"
    source = ""
    entry = ""
    challenge = ""            # Table II "HLS Challenge"
    memory_pattern = ""       # Table II "Memory Pattern"
    paper_tiles = 1           # Table IV tile count

    def fresh_module(self) -> Module:
        """Compile a fresh module (global addresses are per-accelerator)."""
        return compile_source(self.source, self.name)

    def default_config(self, ntiles: Optional[int] = None,
                       **overrides) -> AcceleratorConfig:
        tiles = ntiles if ntiles is not None else self.paper_tiles
        return AcceleratorConfig(default_ntiles=tiles, **overrides)

    def prepare(self, memory: MainMemory, scale: int = 1) -> PreparedRun:
        """Allocate inputs in ``memory`` and return args + checker."""
        raise NotImplementedError

    def build(self, config: Optional[AcceleratorConfig] = None,
              trace=None, observer=None) -> Accelerator:
        return build_accelerator(self.fresh_module(),
                                 config or self.default_config(), trace=trace,
                                 observer=observer)

    def run(self, config: Optional[AcceleratorConfig] = None, scale: int = 1,
            max_cycles: int = 50_000_000, trace=None,
            observer=None) -> WorkloadResult:
        """Build, offload, verify. The standard benchmark entry point."""
        from repro.telemetry.spans import TRACER

        acc = self.build(config, trace=trace, observer=observer)
        prepared = self.prepare(acc.memory, scale)
        result = acc.run(prepared.function, prepared.args, max_cycles=max_cycles)
        with TRACER.span("workloads.check", category="workloads",
                         workload=self.name):
            correct = prepared.check(acc.memory, result.retval)
        return WorkloadResult(
            name=self.name, cycles=result.cycles, correct=correct,
            work_items=prepared.work_items, stats=result.stats,
            retval=result.retval)

    def __repr__(self):
        return f"<Workload {self.name}>"


class WorkloadRegistry:
    """Name -> workload instance, in the paper's Table II order."""

    def __init__(self):
        self._workloads: Dict[str, Workload] = {}

    def register(self, workload: Workload) -> Workload:
        if workload.name in self._workloads:
            raise TapasError(f"duplicate workload {workload.name}")
        self._workloads[workload.name] = workload
        return workload

    def get(self, name: str) -> Workload:
        if name not in self._workloads:
            raise TapasError(
                f"unknown workload {name!r}; have {sorted(self._workloads)}")
        return self._workloads[name]

    def all(self) -> List[Workload]:
        return list(self._workloads.values())

    def names(self) -> List[str]:
        return list(self._workloads)


REGISTRY = WorkloadRegistry()
