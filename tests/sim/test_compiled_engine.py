"""Compiled-engine specifics: codegen determinism, content-addressed
kernel caching, and the instrumentation fallback matrix.

The on-disk kernel cache (marshalled code behind a magic + SHA-256
header) is exercised across processes and against corrupt entries.

Bit-identity of the compiled kernel against the dense oracle and the
event engine is covered by the three-engine matrix in
``tests/sim/test_engine_diff.py`` and the hypothesis parity properties
in ``tests/property/test_prop_engines.py``; this file owns everything
about *how* the kernel is produced, cached and bypassed.
"""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

import repro.exp.cache
from repro.accel import AcceleratorConfig, build_accelerator
from repro.frontend import compile_source
from repro.obs import Observer
from repro.sim.compile import (
    clear_kernel_cache,
    generate_source,
    kernel_cache_dir,
    kernel_digest,
    prepare_kernel,
)
from repro.telemetry.spans import TRACER
from repro.workloads import REGISTRY

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

FIB = """
func fib(n: i32) -> i32 {
  if (n < 2) {
    return n;
  }
  var x: i32 = spawn fib(n - 1);
  var y: i32 = spawn fib(n - 2);
  sync;
  return x + y;
}
"""


def _build(tiles=2, source=FIB, name="fib", engine="compiled"):
    module = compile_source(source, name)
    return build_accelerator(
        module, AcceleratorConfig(default_ntiles=tiles, engine=engine))


class TestCodegenDeterminism:
    def test_same_design_yields_byte_identical_source(self):
        """Two independent elaborations of the same design must generate
        byte-identical kernel source — the precondition for
        content-addressed caching to ever hit."""
        first = generate_source(_build().sim)
        second = generate_source(_build().sim)
        assert first == second
        assert kernel_digest(first) == kernel_digest(second)

    def test_generation_is_repeatable_on_one_sim(self):
        sim = _build().sim
        assert generate_source(sim) == generate_source(sim)

    def test_different_designs_yield_different_source(self):
        assert (generate_source(_build(tiles=1).sim)
                != generate_source(_build(tiles=4).sim))


class TestKernelCache:
    def test_digest_folds_code_fingerprint(self, monkeypatch):
        """Mirrors the ResultCache discipline (tests/exp/test_cache.py):
        an edit anywhere under src/repro rolls every kernel digest, so a
        stale kernel can never be replayed against newer semantics."""
        source = generate_source(_build().sim)
        before = kernel_digest(source)
        monkeypatch.setattr(repro.exp.cache, "_fingerprint", "f" * 64)
        after = kernel_digest(source)
        assert before != after

    def test_digest_folds_source(self):
        assert (kernel_digest("cycle = 0\n")
                != kernel_digest("cycle = 1\n"))

    def test_kernel_source_mirrored_to_cache_dir(self):
        """prepare_kernel writes the generated module to
        <cache-dir>/kernels/<digest>.py for offline inspection, and the
        file content round-trips the generated source exactly."""
        sim = _build().sim
        kernel, reason = prepare_kernel(sim)
        assert reason is None and kernel is not None
        source = generate_source(sim)
        digest = sim.compiled_digest
        assert digest == kernel_digest(source)
        path = kernel_cache_dir() / (digest + ".py")
        assert path.exists()
        assert path.read_text(encoding="utf-8") == source

    def test_module_cache_reuses_compiled_module(self):
        clear_kernel_cache()
        from repro.sim import compile as compile_mod

        prepare_kernel(_build().sim)
        assert len(compile_mod._MODULES) == 1
        prepare_kernel(_build().sim)  # same design: no recompilation
        assert len(compile_mod._MODULES) == 1
        prepare_kernel(_build(tiles=4).sim)  # new design: new module
        assert len(compile_mod._MODULES) == 2


def _saxpy_run(engine="compiled"):
    """One saxpy run from a fresh build: the kernel's origin and digest
    (None off the compiled kernel), cycles, retval and the SHA-256 of
    the final memory image."""
    workload = REGISTRY.get("saxpy")
    accel = workload.build(workload.default_config(2, engine=engine))
    prepared = workload.prepare(accel.memory, 1)
    result = accel.run(prepared.function, prepared.args)
    assert prepared.check(accel.memory, result.retval)
    engine_stats = result.stats["engine"]
    return {"origin": engine_stats.get("kernel_origin"),
            "digest": engine_stats.get("kernel_digest"),
            "cycles": result.cycles, "retval": result.retval,
            "memory": hashlib.sha256(accel.memory.data).hexdigest()}


def _same_result(a, b):
    return all(a[key] == b[key] for key in ("cycles", "retval", "memory"))


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    """A fresh cache directory and a cold in-process kernel cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_kernel_cache()
    yield tmp_path / "cache"
    clear_kernel_cache()


class TestDiskCache:
    """``<cache-dir>/kernels/<digest>.code``: a second process loads the
    marshalled kernel instead of compiling it, and a bad entry is only
    ever a recompile."""

    def _code_path(self, digest):
        return kernel_cache_dir() / (digest + ".code")

    def test_origin_memory_then_disk(self, cache_root):
        first = _saxpy_run()
        assert first["origin"] == "compiled"
        assert self._code_path(first["digest"]).exists()
        assert _saxpy_run()["origin"] == "memory"
        clear_kernel_cache()
        again = _saxpy_run()
        assert again["origin"] == "disk"
        assert again["digest"] == first["digest"]
        assert _same_result(again, first)

    def test_second_process_loads_from_disk(self, cache_root):
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_root),
                   PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                               ROOT]))
        script = ("import json\n"
                  "from tests.sim.test_compiled_engine import _saxpy_run\n"
                  "print(json.dumps(_saxpy_run()))\n")
        runs = [json.loads(subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True).stdout.splitlines()[-1])
            for _ in range(2)]
        assert [run["origin"] for run in runs] == ["compiled", "disk"]
        assert runs[0]["digest"] == runs[1]["digest"]
        dense = _saxpy_run("dense")
        for run in runs:
            assert _same_result(run, dense)

    @pytest.mark.parametrize("damage", [
        "truncated", "flipped_byte", "wrong_magic", "empty", "bad_marshal"])
    def test_corrupt_entry_is_recompiled_and_rewritten(self, cache_root,
                                                       damage):
        first = _saxpy_run()
        path = self._code_path(first["digest"])
        good = path.read_bytes()
        magic = importlib.util.MAGIC_NUMBER
        header = len(magic) + 32
        # a flipped byte marshal still loads: "make_kernel" -> "Make_kernel"
        name = good.index(b"make_kernel", header)
        bad = {
            "truncated": good[:header + (len(good) - header) // 2],
            "flipped_byte": good[:name] + b"M" + good[name + 1:],
            "wrong_magic": bytes([magic[0] ^ 0xFF]) + good[1:],
            "empty": b"",
            # a valid header over bytes marshal rejects
            "bad_marshal": magic + hashlib.sha256(b"\xff").digest() + b"\xff",
        }[damage]
        path.write_bytes(bad)
        clear_kernel_cache()
        again = _saxpy_run()
        assert again["origin"] == "compiled"
        assert _same_result(again, first)
        assert path.read_bytes() == good  # rewritten
        clear_kernel_cache()
        assert _saxpy_run()["origin"] == "disk"

    def test_code_copied_from_another_cache_dir_is_recompiled(
            self, cache_root, tmp_path, monkeypatch):
        """A code file's co_filename is its own cache's source mirror, so
        tracebacks through a kernel read a file that exists."""
        first = _saxpy_run()
        moved = tmp_path / "moved"
        shutil.copytree(cache_root, moved)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(moved))
        clear_kernel_cache()
        again = _saxpy_run()
        assert again["origin"] == "compiled"
        assert _same_result(again, first)
        clear_kernel_cache()
        assert _saxpy_run()["origin"] == "disk"

    def test_fingerprint_rollover_makes_old_entry_unreachable(
            self, cache_root, monkeypatch):
        first = _saxpy_run()
        monkeypatch.setattr(repro.exp.cache, "_fingerprint", "f" * 64)
        clear_kernel_cache()
        rolled = _saxpy_run()
        assert rolled["origin"] == "compiled"
        assert rolled["digest"] != first["digest"]
        assert self._code_path(first["digest"]).exists()
        assert _same_result(rolled, first)

    def test_unwritable_cache_dir_compiles_every_time(
            self, cache_root, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        first = _saxpy_run()
        clear_kernel_cache()
        second = _saxpy_run()
        assert first["origin"] == second["origin"] == "compiled"
        assert _same_result(first, second)

    def test_spans_carry_the_origin(self, cache_root):
        _saxpy_run()
        clear_kernel_cache()
        was_enabled = TRACER.enabled
        TRACER.reset()
        TRACER.enable()
        try:
            _saxpy_run()
        finally:
            TRACER.enabled = was_enabled
        spans = {span.name: span for span in TRACER.spans}
        TRACER.reset()
        assert "kernel.codegen" in spans
        assert spans["kernel.compile"].args == {"origin": "disk"}


class TestFallbackMatrix:
    """Instrumentation the kernel cannot specialize routes the run
    through the event engine, with the reason recorded on
    ``Simulator.compiled_fallback`` (still bit-identical, just slower).
    docs/observability.md documents this matrix."""

    def test_plain_run_does_not_fall_back(self):
        workload = REGISTRY.get("fibonacci")
        config = workload.default_config(2, engine="compiled")
        result = workload.run(config)
        assert result.correct
        assert result.stats["engine"]["name"] == "compiled"
        assert result.stats["engine"]["compiled_fallback"] is None

    def test_observer_falls_back_to_event(self):
        accel = _build()
        kernel, reason = prepare_kernel(accel.sim)
        assert kernel is not None
        accel.sim.attach_observer(Observer())
        kernel, reason = prepare_kernel(accel.sim)
        assert kernel is None and "observer" in reason

    def test_observer_fallback_still_bit_identical(self):
        """An observed compiled run must equal an observed dense run —
        the fallback path keeps the instrumentation contract."""
        workload = REGISTRY.get("fibonacci")
        outcomes = {}
        observers = {}
        for engine in ("dense", "compiled"):
            observer = Observer()
            config = workload.default_config(2, engine=engine)
            result = workload.run(config, observer=observer)
            stats = dict(result.stats)
            engine_stats = stats.pop("engine")
            outcomes[engine] = (result.cycles, result.retval, stats)
            observers[engine] = observer
            if engine == "compiled":
                # the observer forced the event kernel underneath
                assert "observer" in engine_stats["compiled_fallback"]
        assert outcomes["dense"] == outcomes["compiled"]
        assert (observers["dense"].as_dict()
                == observers["compiled"].as_dict())

    def test_host_profile_falls_back(self):
        accel = _build()
        accel.sim.enable_host_profile()
        kernel, reason = prepare_kernel(accel.sim)
        assert kernel is None and "host profiling" in reason

    def test_unknown_component_falls_back(self):
        from repro.sim import Component, Simulator

        class Exotic(Component):
            def tick(self, cycle):
                pass

        sim = Simulator(engine="compiled")
        sim.add_component(Exotic("weird"))
        kernel, reason = prepare_kernel(sim)
        assert kernel is None and "Exotic" in reason

    def test_fallback_reason_recorded_on_run(self):
        accel = _build()
        accel.sim.attach_observer(Observer())
        module = compile_source(FIB, "fib")
        function = module.functions[0]
        accel.run(function.name, [10])
        assert accel.sim.compiled_fallback is not None
        assert "observer" in accel.sim.compiled_fallback

    def test_clean_run_records_no_fallback(self):
        accel = _build()
        module = compile_source(FIB, "fib")
        accel.run(module.functions[0].name, [10])
        assert accel.sim.compiled_fallback is None
        assert accel.sim.compiled_digest


class TestStepAccounting:
    """The kernel steps a TXU instance only on a cycle on which it can
    act: a backpressured memory issue, spawn/call or epilogue store
    parks the instance until its resource has room, instead of retrying
    it every cycle. The step counts are deterministic."""

    def _engine(self, name, scale):
        workload = REGISTRY.get(name)
        result = workload.run(workload.default_config(engine="compiled"),
                              scale=scale)
        assert result.correct
        return result.stats["engine"]

    def test_fibonacci_steps(self):
        """fibonacci, scale 1, paper tiles: 5,118 instance steps. The
        parent kernel made 19,162 stepper calls (34,047 counting its
        epilogue-store retries and retirements, as instance_steps does)."""
        steps = self._engine("fibonacci", 1)["instance_steps"]
        assert steps <= 5_630
        assert steps < 0.6 * 19_162

    def test_mergesort_steps(self):
        """mergesort, scale 3, paper tiles: 24,353 instance steps. The
        parent kernel made 54,152 stepper calls (54,438 counting its
        retirements). At scale 1 there is too little spawn backpressure
        to show (6,277 against 6,988)."""
        steps = self._engine("mergesort", 3)["instance_steps"]
        assert steps <= 26_790
        assert steps < 0.6 * 54_152

    def test_parks_are_reported_per_resource(self):
        engine = self._engine("fibonacci", 1)
        assert set(engine["instance_parks"]) == {"memory", "spawn",
                                                 "epilogue"}
        assert all(count > 0 for count in engine["instance_parks"].values())

    def test_fallback_run_reports_no_steps(self):
        workload = REGISTRY.get("saxpy")
        result = workload.run(workload.default_config(engine="compiled"),
                              observer=Observer())
        assert result.stats["engine"]["compiled_fallback"]
        assert "instance_steps" not in result.stats["engine"]


def test_deadlock_postmortem_parity_on_generated_kernel():
    """The generated kernel embeds its own idle-window deadlock
    detector; on a design the codegen fully supports it must fail at
    the same cycle with the same message and postmortem as the dense
    oracle (the fallback path is covered in test_engine_diff.py)."""
    import glob
    import os

    from repro.cli import _default_profile_args
    from repro.errors import DeadlockError

    path = glob.glob(os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "programs",
        "deadlock_ring.cilk"))[0]
    with open(path) as handle:
        source = handle.read()
    outcomes = {}
    for engine in ("dense", "compiled"):
        module = compile_source(source, "deadlock_ring")
        accel = build_accelerator(
            module, AcceleratorConfig(default_ntiles=2, engine=engine))
        function = module.functions[0]
        args = _default_profile_args(function, accel.memory, 8)
        with pytest.raises(DeadlockError) as excinfo:
            accel.run(function.name, args)
        outcomes[engine] = (excinfo.value.cycle, str(excinfo.value),
                            excinfo.value.postmortem)
        if engine == "compiled":
            assert accel.sim.compiled_fallback is None
    assert outcomes["dense"] == outcomes["compiled"]


@pytest.mark.parametrize("engine", ["dense", "event"])
def test_membound_parity(engine):
    """The memory-bound regime (tiny cache, one MSHR, long DRAM
    latency) under the compiled kernel, against both other engines."""
    from repro.accel import ARRIA_10
    from repro.memory.cache import CacheParams

    workload = REGISTRY.get("saxpy")
    outcomes = {}
    for eng in (engine, "compiled"):
        config = workload.default_config(
            2, engine=eng, board=ARRIA_10,
            cache=CacheParams(size_bytes=1024, mshr_count=1),
            dram_latency_cycles=200)
        result = workload.run(config, scale=4)
        assert result.correct
        stats = dict(result.stats)
        stats.pop("engine")
        outcomes[eng] = (result.cycles, result.retval, stats)
    assert outcomes[engine] == outcomes["compiled"]
