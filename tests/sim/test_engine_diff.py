"""Differential tests: event and compiled engines vs the dense oracle.

Every example program and every registered workload must produce
bit-identical cycle counts, return values, architectural stats and final
memory images under all three engines — ``stats()["engine"]`` (host
wall-clock) is the only key allowed to differ. CI runs the same matrix
via ``repro diff``.
"""

import glob
import hashlib
import os

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.frontend import compile_source
from repro.obs import Observer
from repro.workloads import REGISTRY

EXAMPLES = sorted(
    path for path in glob.glob(os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "programs",
        "*.cilk"))
    # deadlock_* fixtures cannot terminate by design; their engine parity
    # is covered by the postmortem-equality property tests
    if "deadlock_" not in os.path.basename(path))


def _digest(memory):
    """SHA-256 of the final MainMemory image."""
    return hashlib.sha256(memory.data).hexdigest()


def _strip(stats):
    stats = dict(stats)
    stats.pop("engine", None)
    return stats


def _run_example(path, engine):
    from repro.cli import _default_profile_args

    with open(path) as handle:
        source = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    module = compile_source(source, name)
    accel = build_accelerator(
        module, AcceleratorConfig(default_ntiles=2, engine=engine))
    function = module.functions[0]
    args = _default_profile_args(function, accel.memory, 8)
    result = accel.run(function.name, args)
    return (result.cycles, result.retval, _strip(result.stats),
            _digest(accel.memory))


def _run_workload(workload, config, scale=1):
    """(correct, cycles, retval, stats, memory digest) of one run."""
    accel = workload.build(config)
    prepared = workload.prepare(accel.memory, scale)
    result = accel.run(prepared.function, prepared.args)
    return (prepared.check(accel.memory, result.retval), result.cycles,
            result.retval, _strip(result.stats), _digest(accel.memory))


@pytest.mark.parametrize("engine", ["event", "compiled"])
@pytest.mark.parametrize("path", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_example_programs_agree(path, engine):
    assert _run_example(path, "dense") == _run_example(path, engine)


@pytest.mark.parametrize("engine", ["event", "compiled"])
@pytest.mark.parametrize("name", REGISTRY.names())
def test_workloads_agree(name, engine):
    workload = REGISTRY.get(name)
    dense = _run_workload(workload, workload.default_config(2, engine="dense"))
    other = _run_workload(workload, workload.default_config(2, engine=engine))
    assert dense[0] and other[0]
    assert dense == other


def test_workload_agrees_with_observer_attached():
    """Observer synthesis over fast-forwarded spans must reproduce the
    dense engine's per-cycle ledgers and probes exactly."""
    workload = REGISTRY.get("saxpy")
    observers = {}
    cycles = {}
    for engine in ("dense", "event"):
        observer = Observer()
        result = workload.run(workload.default_config(2, engine=engine),
                              observer=observer)
        observers[engine] = observer
        cycles[engine] = result.cycles
    assert cycles["dense"] == cycles["event"]
    od, oe = observers["dense"], observers["event"]
    assert od.as_dict() == oe.as_dict()
    for name, ledger in od.ledgers.items():
        assert ledger.timeline == oe.ledgers[name].timeline, name


def test_memory_bound_config_agrees():
    """The fast-forward sweet spot: tiny cache, single MSHR, long DRAM
    latency. Exactly the regime where a scheduling bug would skew
    counts."""
    from repro.accel import ARRIA_10
    from repro.memory.cache import CacheParams

    workload = REGISTRY.get("saxpy")
    outcomes = {}
    for engine in ("dense", "event", "compiled"):
        config = workload.default_config(
            2, engine=engine, board=ARRIA_10,
            cache=CacheParams(size_bytes=1024, mshr_count=1),
            dram_latency_cycles=200)
        outcomes[engine] = _run_workload(workload, config, scale=4)
        assert outcomes[engine][0]
    assert outcomes["dense"] == outcomes["event"]
    assert outcomes["dense"] == outcomes["compiled"]
    # and the event engine actually skipped something on this workload
    event_config = workload.default_config(
        2, engine="event", board=ARRIA_10,
        cache=CacheParams(size_bytes=1024, mshr_count=1),
        dram_latency_cycles=200)
    result = workload.run(event_config, scale=4)
    assert result.stats["engine"]["fast_forwarded_cycles"] > 0


def test_deadlock_postmortem_parity():
    """A program that deadlocks must fail at the same cycle with the
    same postmortem attribution under both engines."""
    from repro.errors import DeadlockError
    from repro.sim import Component, Simulator

    class Starved(Component):
        def __init__(self, name, inp):
            super().__init__(name)
            self.inp = inp

        def tick(self, cycle):
            if self.inp.can_pop():
                self.inp.pop()

        def sensitivity(self):
            return (self.inp,)

    outcomes = {}
    for engine in ("dense", "event", "compiled"):
        sim = Simulator(engine=engine)
        ch = sim.add_channel("never", capacity=1)
        sim.add_component(Starved("s", ch))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(lambda: False, max_cycles=100_000)
        outcomes[engine] = (excinfo.value.cycle, str(excinfo.value),
                            excinfo.value.postmortem)
    assert outcomes["dense"] == outcomes["event"]
    # a custom component routes "compiled" through the event fallback;
    # the error contract must survive that path too
    assert outcomes["dense"] == outcomes["compiled"]


def test_check_repro_under_event_engine(capsys):
    """The CLI reproducibility gate passes under the event engine."""
    from repro.cli import main

    assert main(["run", "fibonacci", "--check-repro"]) == 0
    out = capsys.readouterr().out
    assert "reproducible" in out


#: the backpressure matrix: (tiles, L1 bytes, MSHRs, DRAM latency) on the
#: Arria 10 board -- a 1 KB L1 with one MSHR keeps request_out full, and
#: fork-join workloads fill the outbound spawn buffer
BACKPRESSURE_CONFIGS = [(1, 1024, 1, 270), (3, 1024, 1, 300)]


def test_backpressure_configs_agree():
    """Every workload under heavy memory and spawn backpressure: the
    compiled kernel, which parks blocked TXU instances until their
    resource has room, must match the dense oracle (which retries them
    every cycle) on the full outcome, and the matrix must reach every
    park kind."""
    from repro.accel import ARRIA_10
    from repro.memory.cache import CacheParams

    parks = {"memory": 0, "spawn": 0, "epilogue": 0}
    for tiles, size, mshrs, dram in BACKPRESSURE_CONFIGS:
        for name in REGISTRY.names():
            workload = REGISTRY.get(name)
            outcomes = {}
            for engine in ("dense", "compiled"):
                config = workload.default_config(
                    tiles, engine=engine, board=ARRIA_10,
                    cache=CacheParams(size_bytes=size, mshr_count=mshrs),
                    dram_latency_cycles=dram)
                accel = workload.build(config)
                prepared = workload.prepare(accel.memory, 1)
                result = accel.run(prepared.function, prepared.args)
                outcomes[engine] = (
                    prepared.check(accel.memory, result.retval),
                    result.cycles, result.retval, _strip(result.stats),
                    _digest(accel.memory))
            point = (name, tiles, size, mshrs, dram)
            assert outcomes["dense"][0], point
            assert outcomes["dense"] == outcomes["compiled"], point
            engine_stats = result.stats["engine"]
            assert engine_stats["compiled_fallback"] is None, point
            for kind, count in engine_stats["instance_parks"].items():
                parks[kind] += count
    assert all(parks.values()), parks
