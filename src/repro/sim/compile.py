"""Compiled engine: per-design specialized flat kernels.

The third engine (``Simulator(engine="compiled")``) flattens an
elaborated netlist into ONE generated Python module specialized for that
exact design: every task unit / TXU tile is inlined down to straight-line
per-dataflow-node code (operand reads, two's-complement wrap masks,
handshake checks and latency literals baked in as constants), while the
rarely-hot plumbing components (arbiters, demuxes, cache, DRAM,
scratchpad, data boxes) are inlined too, statement for statement, but
run behind *no-op guards* — start-of-cycle state checks that are
provably false exactly when the tick could not change any architectural
state. Pure IR ops are not written here: their statements come from the
:mod:`repro.ir.opsem` table, which the interpreting engines run too.

The contract is the same bit-identity the dense and event engines share:
cycle counts, architectural stats, channel traffic and error behaviour
are identical, enforced by the ``repro diff`` matrix and the hypothesis
engine-parity property tests. All speed comes from removing Python
interpretation overhead (attribute lookups, dict dispatch, dead guard
re-evaluation), never from changing semantics: the kernel operates on
the *real* simulator objects (channels, task queues, instances,
messages), so any state it leaves behind is exactly the state the dense
engine would have produced.

Caching: the generated source is content-addressed. The digest folds the
source itself (a pure function of the elaborated design: topology,
parameters, IR, memory layout) together with
:func:`repro.exp.cache.code_fingerprint` — the same discipline as
``ResultCache`` — so editing anything under ``src/repro`` rolls every
kernel over and a stale kernel can never be replayed. Kernels are kept
in an in-process module cache and mirrored to
``<cache-dir>/kernels/<digest>.py`` for inspection.

Designs or instrumentation the codegen does not cover (observers, host
profiling, value probes, analysis traces, unrecognized component
classes, exotic IR) fall back to the event engine — still bit-identical,
just slower — with the reason recorded in
``Simulator.compiled_fallback``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.ir import opsem
from repro.ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Br,
    Cast,
    CondBr,
    Detach,
    FCmp,
    ICmp,
    Load,
    Reattach,
    Ret,
    Select,
    Sync,
)
from repro.ir.values import Constant, GlobalVariable
from repro.memory.arbiter import Demux, RoundRobinArbiter
from repro.memory.cache import Cache
from repro.memory.databox import DataBox
from repro.memory.dram import DRAMModel
from repro.memory.scratchpad import Scratchpad
from repro.sim.engine import DEADLOCK_WINDOW, STALL_WINDOW
from repro.task.task_unit import OUTBOUND_BUFFER, TaskUnit
from repro.task.txu import TXUTile

__all__ = [
    "prepare_kernel",
    "generate_source",
    "kernel_digest",
    "kernel_cache_dir",
    "clear_kernel_cache",
]


class UnsupportedDesign(Exception):
    """Raised (internally) when a design cannot be specialized; the
    caller turns it into an event-engine fallback with this reason."""


#: in-process cache: digest -> exec'd module namespace (holds make_kernel)
_MODULES: Dict[str, dict] = {}

def kernel_cache_dir() -> Path:
    """On-disk home of generated kernel sources (content-addressed)."""
    from repro.exp.cache import default_cache_dir

    return default_cache_dir() / "kernels"


def kernel_digest(source: str) -> str:
    """Content address of a generated kernel: the specialized source
    (a pure function of the elaborated design) plus the ``src/repro``
    code fingerprint, so editing the simulator invalidates every cached
    kernel — the ``ResultCache`` hashing discipline."""
    from repro.exp.cache import code_fingerprint

    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\0")
    digest.update(code_fingerprint().encode("ascii"))
    return digest.hexdigest()


def clear_kernel_cache():
    """Drop the in-process kernel module cache (tests)."""
    _MODULES.clear()


def _store_kernel_source(digest: str, source: str) -> Optional[Path]:
    """Mirror the kernel source to disk (atomic, best-effort)."""
    try:
        root = kernel_cache_dir()
        path = root / (digest + ".py")
        if path.exists():
            return path
        root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(source)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path
    except OSError:
        return None


def _fallback_reason(sim) -> Optional[str]:
    """Instrumentation / topology checks that force the event engine.

    Everything here is either observably different under the compiled
    kernel (per-cycle observers, host-time attribution, value probes,
    analysis traces) or structurally unknown to the codegen.
    """
    if sim.observer is not None:
        return "observer attached (per-cycle sampling needs real ticks)"
    if sim.host_profile is not None:
        return "host profiling enabled (per-component attribution)"
    if TXUTile.value_probe is not None:
        return "TXU value probe installed (range checker)"
    known = (RoundRobinArbiter, Demux, Cache, DRAMModel, Scratchpad,
             DataBox, TaskUnit)
    for comp in sim.components:
        if not isinstance(comp, known):
            return f"unsupported component class {type(comp).__name__}"
        if isinstance(comp, TaskUnit) and comp.trace is not None:
            return "analysis trace enabled (dynamic checker events)"
    return None


def prepare_kernel(sim):
    """Return ``(kernel, None)`` for a supported design, else
    ``(None, reason)``. ``kernel(sim, done, start, max_cycles, mlog)``
    runs the simulation exactly like the dense engine would."""
    reason = _fallback_reason(sim)
    if reason is not None:
        return None, reason
    try:
        source, ctx = _generate(sim)
    except UnsupportedDesign as exc:
        return None, str(exc)
    digest = kernel_digest(source)
    module = _MODULES.get(digest)
    if module is None:
        path = _store_kernel_source(digest, source)
        filename = str(path) if path is not None else f"<kernel {digest[:12]}>"
        module = {"__name__": f"repro_kernel_{digest[:12]}"}
        exec(compile(source, filename, "exec"), module)
        _MODULES[digest] = module
    sim.compiled_digest = digest
    return module["make_kernel"](ctx), None


def generate_source(sim) -> str:
    """The specialized kernel source for ``sim``'s design. Deterministic:
    the same elaborated design always yields byte-identical source (the
    precondition for content-addressed caching)."""
    return _generate(sim)[0]


# ---------------------------------------------------------------------------
# codegen
# ---------------------------------------------------------------------------
#
# The generated module has the shape
#
#     def make_kernel(ctx):
#         (_o0, _o1, ...) = ctx["objects"]   # per-sim object references
#         def kernel(sim, done, start, max_cycles, mlog):
#             <aliases, per-block stepper defs, dispatch dicts>
#             try:
#                 while True:           # one iteration per executed cycle
#                     <guarded component ticks, registration order>
#                     <inline commit over sim._dirty_channels>
#                     <idle/quiet accounting, stall check>
#                     <quiescent fast-forward>
#             finally:
#                 <sync scalar counters back onto sim>
#         return kernel
#
# Everything design-shaped (node indices, dependency chains, wrap masks,
# latencies, capacities, frame layout, global addresses) is baked into the
# source as literals; everything per-simulation (channel/component/IR
# objects) arrives through ctx, so the same design always yields
# byte-identical source and one cached module serves every sim of it.

_PARKED = 1 << 60  # txu PARKED == the missing-dep sentinel (1 << 60)


class _Emitter:
    """Collects ctx objects and source lines with deterministic naming.

    Channels are addressed by their index in ``sim.channels``
    (registration order): the kernel keeps pending-push / pending-pop /
    moved-counter state in flat preallocated lists (``CP``/``CQ``/``CU``/
    ``CO``) indexed by that integer, and ``c<K>i`` aliases channel K's
    item deque (``_items`` is assigned once in the constructor). A push
    is ``CP[K] = msg`` plus appending K to the moved-list ``dl``; a pop
    is ``CQ[K] = 1`` plus the same append — the end-of-cycle commit
    walks ``dl`` only."""

    def __init__(self, channels):
        self.objs: List[object] = []
        self._obj_names: Dict[int, str] = {}
        self.pre: List[str] = []    # kernel preamble (aliases, bound methods)
        self.channels = list(channels)
        self._chan_idx = {id(ch): k for k, ch in enumerate(self.channels)}
        self._chan_alias: set = set()

    def ref(self, obj) -> str:
        """Name of ``obj`` in the ctx object tuple (registered on first use;
        the objs list keeps every referenced object alive so id() keys
        stay unique)."""
        name = self._obj_names.get(id(obj))
        if name is None:
            name = "_o%d" % len(self.objs)
            self._obj_names[id(obj)] = name
            self.objs.append(obj)
        return name

    # -- flat channel ops --------------------------------------------------

    def ci(self, ch) -> int:
        """Flat index of ``ch`` (emits its item-deque alias on first use)."""
        k = self._chan_idx.get(id(ch))
        if k is None:
            raise UnsupportedDesign(
                f"channel {ch.name} not registered with the simulator")
        if k not in self._chan_alias:
            self._chan_alias.add(k)
            self.pre.append("c%di = CI[%d]" % (k, k))
        return k

    def items(self, ch) -> str:
        return "c%di" % self.ci(ch)

    def can_push(self, ch) -> str:
        k = self.ci(ch)
        return "len(c%di) < %d and CP[%d] is None" % (k, ch.capacity, k)

    def can_pop(self, ch) -> str:
        k = self.ci(ch)
        return "c%di and not CQ[%d]" % (k, k)

    def push(self, ch, expr: str, ind: str) -> List[str]:
        k = self.ci(ch)
        return [ind + "CP[%d] = %s" % (k, expr),
                ind + "dl.append(%d)" % k]


def _fmt_const(value) -> Optional[str]:
    """Literal source for a constant, or None when it cannot be spelled
    (non-finite floats go through ctx instead)."""
    if isinstance(value, bool):
        return None  # be conservative: route bools through ctx
    if isinstance(value, int):
        return "(%r)" % (value,)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return None
        return "(%r)" % (value,)
    return None


class _StepperGen:
    """Emits one specialized stepper function per (tile, block): the
    straight-line unrolling of ``TXUTile._step_instance`` +
    ``_maybe_transition`` for that block's dataflow graph, with the
    tile's memory port (request channel index, SID, tile index, port)
    baked in so ``_fire_memory`` and ``_finish`` are inlined flat ops."""

    def __init__(self, em: _Emitter, unit, compiled, latencies,
                 tile, tile_index: int, tn: str, ep: str, un: str):
        self.em = em
        self.unit = unit
        self.compiled = compiled
        self.latencies = latencies
        self.tile = tile
        self.ti = tile_index
        self.tn = tn          # kernel alias of the tile object
        self.ep = ep          # name of the tile's epilogue-store closure
        self.un = un          # kernel alias of the owning task unit
        self.ro = em.ci(tile.request_out)
        self.rocap = tile.request_out.capacity

    # -- value resolution (mirrors TXUTile._resolve) -----------------------

    def rv(self, v) -> str:
        if isinstance(v, Constant):
            lit = _fmt_const(v.value)
            return lit if lit is not None else self.em.ref(v.value)
        if isinstance(v, GlobalVariable):
            if v.address is None:
                raise UnsupportedDesign(
                    f"global @{v.name} has no address at codegen time")
            return "(%r)" % (v.address,)
        return "env[%s]" % self.em.ref(v)

    def rvi(self, v) -> str:
        """Resolve in an ``int(...)`` context, skipping the coercion when
        the operand is statically an int literal."""
        if isinstance(v, Constant) and isinstance(v.value, int) \
                and not isinstance(v.value, bool):
            return "(%r)" % (v.value,)
        if isinstance(v, GlobalVariable):
            if v.address is None:
                raise UnsupportedDesign(
                    f"global @{v.name} has no address at codegen time")
            return "(%r)" % (int(v.address),)
        return "int(%s)" % self.rv(v)

    def rvf(self, v) -> str:
        if isinstance(v, Constant) and isinstance(v.value, (int, float)) \
                and not isinstance(v.value, bool):
            lit = _fmt_const(float(v.value))
            if lit is not None:
                return lit
        return "float(%s)" % self.rv(v)

    # -- helpers -----------------------------------------------------------

    def _lat(self, kind: str) -> int:
        return self.latencies.get(kind, 1)

    # -- node firing (mirrors TXUTile._fire) -------------------------------

    def fire_lines(self, node, ind: str) -> List[str]:
        ir = node.inst
        kind = node.kind
        tgt = "env[%s]" % self.em.ref(ir)
        L: List[str] = []

        if kind == "regread":
            L.append(ind + "%s = inst.regs.get(%s, 0)"
                     % (tgt, self.em.ref(ir.pointer)))
        elif kind == "regwrite":
            L.append(ind + "inst.regs[%s] = %s"
                     % (self.em.ref(ir.pointer), self.rv(ir.value)))
        elif kind == "nop":
            if not isinstance(ir, Alloca):
                raise UnsupportedDesign(f"nop node is not an alloca: {ir!r}")
            if ir.in_frame:
                if self.unit.frame_size == 0:
                    L.append(ind + "raise SimulationError(%r)"
                             % (f"{self.unit.name}: task has no frame "
                                f"storage",))
                else:
                    offset = self.compiled.frame_offsets[ir]
                    L.append(ind + "%s = %d + inst.entry.dyid * %d + %d"
                             % (tgt, self.unit.frame_base,
                                self.unit.frame_size, offset))
            else:
                L.append(ind + "%s = _RegSlot(%s)" % (tgt, self.em.ref(ir)))
        elif isinstance(ir, (BinaryOp, ICmp, FCmp, Cast, Select)):
            L.extend(self._op_lines(ir, tgt, ind))
        elif isinstance(ir, GEP):
            L.extend(self._gep_lines(ir, tgt, ind))
        else:
            raise UnsupportedDesign(
                f"TXU codegen cannot execute {type(ir).__name__}")

        # chained assignment keeps the hoisted per-node local in sync so a
        # 0-latency dependent sees the fresh deadline within the same call
        L.append(ind + "nd[%d] = dn%d = cycle + %d"
                 % (node.index, node.index, self._lat(kind)))
        return L

    def _op_lines(self, ir, tgt: str, ind: str) -> List[str]:
        """The op's statements from the :mod:`repro.ir.opsem` table, with
        operands rendered in the entry's domain."""
        op = ir.predicate if isinstance(ir, (ICmp, FCmp)) else ir.opcode
        try:
            read = {"int": self.rvi, "float": self.rvf,
                    "raw": self.rv}[opsem.domain(op)]
            lines = opsem.render(op, ir.type,
                                 [read(v) for v in ir.operands], tgt)
        except SimulationError as exc:
            raise UnsupportedDesign(str(exc)) from None
        return [ind + line for line in lines]

    def _gep_lines(self, ir, tgt: str, ind: str) -> List[str]:
        terms = [(self.rvi(idx), "%d" % stride)
                 for idx, stride in zip(ir.indices, ir.strides)]
        base = ir.base
        if isinstance(base, (Constant, GlobalVariable)):
            return [ind + opsem.render_gep(self.rvi(base), terms, tgt)]
        return [ind + "ba = %s" % self.rv(base),
                ind + "if type(ba) is _RegSlot:",
                ind + "    raise SimulationError(%r)"
                % ("address arithmetic on a register slot — scalar allocas "
                   "may only be loaded/stored directly",),
                ind + opsem.render_gep("int(ba)", terms, tgt)]

    # -- inlined _fire_memory / _finish ------------------------------------

    def mem_fire_lines(self, node, key: str, ind: str) -> List[str]:
        """The ``elif``-chain tail of a load/store node attempt (mirrors
        ``TXUTile._fire_memory``): already-issued and backpressure checks,
        then the flat push of the request."""
        ir = node.inst
        ro, tn = self.ro, self.tn
        L = [ind + "elif %s._mem_issued_this_cycle:" % tn,
             ind + "    b = 1",
             ind + "elif len(c%di) < %d and CP[%d] is None:"
             % (ro, self.rocap, ro)]
        ptr = ir.pointer
        if isinstance(ptr, (Constant, GlobalVariable)):
            addr = self.rvi(ptr)
        else:
            L.append(ind + "    a_ = %s" % self.rv(ptr))
            L.append(ind + "    if type(a_) is _RegSlot:")
            L.append(ind + "        raise SimulationError(%r)"
                     % ("register access classified as memory op",))
            addr = "int(a_)"
        tag = "MemTag(%d, %d, inst.uid, %d)" % (self.unit.sid, self.ti,
                                                node.index)
        if isinstance(ir, Load):
            req = ('MemRequest(tag=%s, op="load", addr=%s, size=%d, port=%d)'
                   % (tag, addr, ir.type.size_bytes, self.unit.port))
        else:
            req = ('MemRequest(tag=%s, op="store", addr=%s, size=%d, '
                   'data=_v2r(%s, %s), port=%d)'
                   % (tag, addr, ir.value.type.size_bytes,
                      self.em.ref(ir.value.type), self.rv(ir.value),
                      self.unit.port))
        L.append(ind + "    CP[%d] = %s" % (ro, req))
        L.append(ind + "    dl.append(%d)" % ro)
        L.append(ind + "    %s._mem_issued_this_cycle = True" % tn)
        L.append(ind + "    pm.add(%d)" % node.index)
        L.append(ind + "    fired.add(%s)" % key)
        L.append(ind + "    f = 1")
        L.append(ind + "else:")
        L.append(ind + "    %s._mem_blocked = True" % tn)
        L.append(ind + "    b = 1")
        return L

    def finish_lines(self, retval_expr: str, ind: str) -> List[str]:
        """Inlined ``TXUTile._finish``: record the return value and either
        enter the epilogue store (shared-cache return) or complete."""
        if retval_expr == "None":
            return [ind + "inst.retval = None",
                    ind + 'inst.phase = "done"']
        return [ind + "rv_ = %s" % retval_expr,
                ind + "inst.retval = rv_",
                ind + "if inst.entry.ret_ptr is not None "
                      "and rv_ is not None:",
                ind + '    inst.phase = "epilogue_issue"',
                ind + "    %s(inst, cycle)" % self.ep,
                ind + "else:",
                ind + '    inst.phase = "done"']

    # -- block entry (mirrors TXUTile._enter_block) ------------------------

    def enter_lines(self, target, ind: str) -> List[str]:
        if not self.compiled.owns_block(target):
            return [ind + "raise SimulationError(%r)"
                    % (f"task {self.compiled.name}: control left the task "
                       f"region into {target.name}",)]
        return [ind + "inst.block = %s" % self.em.ref(target),
                ind + "inst.node_done = {}",
                ind + "inst.pending_mem = set()",
                ind + "inst.pending_call = set()",
                ind + "inst.block_entry_cycle = cycle + 1"]

    # -- the whole stepper -------------------------------------------------

    def stepper(self, name: str, block) -> List[str]:
        em = self.em
        dfg = self.compiled.dfg(block)
        nodes = dfg.nodes
        body = nodes[:-1]
        term_node = nodes[-1]
        has_mem = any(n.kind in ("load", "store") for n in body)
        has_call = any(n.kind == "call" for n in body)

        L = ["def %s(inst, cycle):" % name,
             "    nonlocal act",
             "    nd = inst.node_done",
             "    g = nd.get",
             "    env = inst.env",
             "    fired = %sf" % self.tn]
        if has_mem:
            L.append("    pm = inst.pending_mem")
        if has_call:
            L.append("    pc = inst.pending_call")
        L.extend(["    f = 0", "    d = 0", "    b = 0",
                  "    m = 0", "    blk = 0"])
        # hoist each body node's done-cycle into a local: one dict probe
        # per node per call instead of one per membership test plus one
        # per dependent. The sentinel B comes back by identity when the
        # node has not fired, so ``dnX is B`` is the not-in-nd test.
        for node in body:
            L.append("    dn%d = g(%d, B)" % (node.index, node.index))

        def deps(node) -> str:
            return " and ".join("dn%d <= cycle" % dep
                                for dep in node.deps)

        for node in body:
            idx = node.index
            key = em.ref((block, idx))
            cond = "dn%d is B" % idx
            if node.kind in ("load", "store"):
                cond += " and %d not in pm" % idx
            elif node.kind == "call":
                cond += " and %d not in pc" % idx
            dc = deps(node)
            if dc:
                cond += " and " + dc
            L.append("    if %s:" % cond)
            L.append("        if %s in fired:" % key)
            L.append("            d = 1")
            if node.kind in ("load", "store"):
                L.extend(self.mem_fire_lines(node, key, "        "))
            elif node.kind == "call":
                L.append("        elif %sfc(inst, %s, cycle):"
                         % (self.tn, em.ref(node)))
                L.append("            fired.add(%s)" % key)
                L.append("            f = 1")
                L.append("        else:")
                L.append("            b = 1")
            else:
                L.append("        else:")
                L.extend(self.fire_lines(node, "            "))
                L.append("            fired.add(%s)" % key)
                L.append("            f = 1")

        # -- transition (mirrors _maybe_transition) ------------------------
        trans = ["dn%d <= cycle" % n.index for n in body]
        if has_mem:
            trans.append("not pm")
        else:
            trans.append("not inst.pending_mem")
        if has_call:
            trans.append("not pc")
        else:
            trans.append("not inst.pending_call")
        tdeps = deps(term_node)
        if tdeps:
            trans.append(tdeps)
        L.append("    if %s:" % " and ".join(trans))
        term = term_node.inst
        if isinstance(term, Detach):
            # inlined _fire_spawn + TaskUnit.issue_spawn: the spawn spec
            # (dest SID, marshalled args, ret pointer) is static, so the
            # SpawnMessage fields are baked in as literals/env reads.
            # analysis_event is skipped (trace is None by _fallback_reason).
            spec = self.compiled.spawn_specs[term]
            args = ", ".join(self.rv(v) for v in spec.arg_values)
            if args:
                args += ","
            ret_ptr = ("int(%s)" % self.rv(spec.ret_ptr_value)
                       if spec.ret_ptr_value is not None else "None")
            L.append("        if len(%sso) >= %d:"
                     % (self.un, OUTBOUND_BUFFER))
            L.append("            %s._spawn_blocked = True" % self.tn)
            L.append("            blk = 1")
            L.append("        else:")
            L.append("            en_ = inst.entry")
            L.append("            %sso.append(SpawnMessage(dest_sid=%d, "
                     "args=(%s), parent_sid=%d, parent_dyid=en_.dyid, "
                     'join_kind="sync", ret_ptr=%s, parent_gid=en_.gid, '
                     "spawn_seq=None))"
                     % (self.un, spec.dest_sid, args, self.unit.sid,
                        ret_ptr))
            L.append("            en_.child_count += 1")
            L.append("            %s.spawns_issued += 1" % self.un)
            L.append("            inst.spawned += 1")
            L.extend(self.enter_lines(term.continuation, "            "))
            L.append("            m = 1")
        elif isinstance(term, Sync):
            L.append("        if inst.entry.child_count > 0:")
            L.append("            %ssu(inst, %s)"
                     % (self.tn, em.ref(term.continuation)))
            L.append("        else:")
            L.extend(self.enter_lines(term.continuation, "            "))
            L.append("        m = 1")
        elif isinstance(term, Br):
            L.extend(self.enter_lines(term.dest, "        "))
            L.append("        m = 1")
        elif isinstance(term, CondBr):
            L.append("        if %s:" % self.rv(term.cond))
            L.extend(self.enter_lines(term.if_true, "            "))
            L.append("        else:")
            L.extend(self.enter_lines(term.if_false, "            "))
            L.append("        m = 1")
        elif isinstance(term, Reattach):
            L.extend(self.finish_lines("None", "        "))
            L.append("        m = 1")
        elif isinstance(term, Ret):
            retval = (self.rv(term.value)
                      if term.value is not None else "None")
            L.extend(self.finish_lines(retval, "        "))
            L.append("        m = 1")
        else:
            raise UnsupportedDesign(
                f"terminator {type(term).__name__} not supported")

        # -- wake bookkeeping (mirrors _step_instance's epilogue) ----------
        L.extend([
            "    if f or m:",
            "        act = 1",
            '    if m or f or d or b or blk or inst.phase != "run":',
            "        inst.wake_at = cycle + 1",
            '        if inst.phase != "run":',
            "            return P",
            "        if m or f or d:",
            "            return cycle + 1",
            "        return P",
            "    w = P",
            "    for x in nd.values():",
            "        if x > cycle and x < w:",
            "            w = x",
            "    if w is P and not inst.pending_mem and not inst.pending_call:",
            "        w = cycle + 1",
            "    inst.wake_at = w",
            "    return w",
        ])
        return L


def _emit_plumbing(em: _Emitter, k: int, comp, tick, busy, skip):
    """Fully inlined tick for a non-TXU component, behind a no-op guard:
    a start-of-cycle state check that is false exactly when the tick
    could not change architectural state. The inlined bodies mirror the
    real ``tick()`` methods statement for statement, with channel
    handshakes turned into flat-array ops and static config (latencies,
    capacities, fan-in) baked in as literals."""
    x = "x%d" % k
    em.pre.append("%s = %s" % (x, em.ref(comp)))
    if isinstance(comp, RoundRobinArbiter):
        _emit_arbiter(em, x, comp, tick, busy, skip)
    elif isinstance(comp, Demux):
        _emit_demux(em, x, comp, tick, busy, skip)
    elif isinstance(comp, Cache):
        _emit_cache(em, x, comp, tick, busy, skip)
    elif isinstance(comp, DRAMModel):
        _emit_dram(em, x, comp, tick, busy, skip)
    elif isinstance(comp, Scratchpad):
        _emit_scratchpad(em, x, comp, tick, busy, skip)
    elif isinstance(comp, DataBox):
        _emit_databox(em, x, comp, tick, busy, skip)
    else:  # pragma: no cover - _fallback_reason filters these earlier
        raise UnsupportedDesign(
            f"unsupported component class {type(comp).__name__}")


def _emit_arbiter(em, x, comp, tick, busy, skip):
    em.pre.append("%sp = %s._pipe" % (x, x))
    out = em.ci(comp.output)
    ins = [em.ci(c) for c in comp.inputs]
    lev = comp.levels
    tick.append("if %s:" % " or ".join(
        [x + "p"] + ["c%di" % i for i in ins]))
    tick.append("    if %sp and %sp[0][0] <= cycle and len(c%di) < %d "
                "and CP[%d] is None:" % (x, x, out, comp.output.capacity, out))
    tick.append("        CP[%d] = %sp.popleft()[1]" % (out, x))
    tick.append("        dl.append(%d)" % out)
    tick.append("    if len(%sp) <= %d:" % (x, lev))
    n = len(ins)
    if n == 1:
        i0 = ins[0]
        tick.append("        if c%di and not CQ[%d]:" % (i0, i0))
        tick.append("            CQ[%d] = 1" % i0)
        tick.append("            dl.append(%d)" % i0)
        tick.append("            %sp.append((cycle + %d, c%di[0]))"
                    % (x, lev, i0))
        tick.append("            %s.grants += 1" % x)
    else:
        em.pre.append("%sq = (%s)" % (x, ", ".join(
            "(c%di, %d)" % (i, i) for i in ins)))
        tick.append("        j = %s._next" % x)
        tick.append("        for _ in range(%d):" % n)
        tick.append("            dq, kk = %sq[j]" % x)
        tick.append("            if dq and not CQ[kk]:")
        tick.append("                CQ[kk] = 1")
        tick.append("                dl.append(kk)")
        tick.append("                %sp.append((cycle + %d, dq[0]))"
                    % (x, lev))
        tick.append("                %s._next = j + 1 if j + 1 < %d else 0"
                    % (x, n))
        tick.append("                %s.grants += 1" % x)
        tick.append("                break")
        tick.append("            j = j + 1 if j + 1 < %d else 0" % n)
    busy.append(x + "p")
    skip.extend(_pipe_deadline(x + "p"))


def _emit_demux(em, x, comp, tick, busy, skip):
    em.pre.append("%sp = %s._pipe" % (x, x))
    em.pre.append("%sr = %s.route" % (x, x))
    inp = em.ci(comp.input)
    outs = [(em.ci(c), c.capacity) for c in comp.outputs]
    em.pre.append("%so = (%s%s)" % (x, ", ".join(
        "(c%di, %d, %d)" % (o, o, cap) for o, cap in outs),
        "," if len(outs) == 1 else ""))
    tick.append("if %sp or c%di:" % (x, inp))
    tick.append("    if %sp and %sp[0][0] <= cycle:" % (x, x))
    tick.append("        msg = %sp[0][1]" % x)
    tick.append("        prt = %sr(msg)" % x)
    tick.append("        if prt < 0 or prt >= %d:" % len(outs))
    tick.append("            raise SimulationError(%r %% prt)"
                % ("demux %s: bad port %%d of %d"
                   % (comp.name, len(outs)),))
    tick.append("        dq, kk, cap = %so[prt]" % x)
    tick.append("        if len(dq) < cap and CP[kk] is None:")
    tick.append("            %sp.popleft()" % x)
    tick.append("            CP[kk] = msg")
    tick.append("            dl.append(kk)")
    tick.append("            %s.routed += 1" % x)
    tick.append("    if c%di and not CQ[%d] and len(%sp) <= %d:"
                % (inp, inp, x, comp.levels))
    tick.append("        CQ[%d] = 1" % inp)
    tick.append("        dl.append(%d)" % inp)
    tick.append("        %sp.append((cycle + %d, c%di[0]))"
                % (x, comp.levels, inp))
    busy.append(x + "p")
    skip.extend(_pipe_deadline(x + "p"))


def _emit_dram(em, x, comp, tick, busy, skip):
    em.pre.append("%sf = %s._in_flight" % (x, x))
    rq = em.ci(comp.request_in)
    rs = em.ci(comp.response_out)
    tick.append("if %sf or c%di:" % (x, rq))
    tick.append("    while %sf and %sf[0][0] <= cycle:" % (x, x))
    tick.append("        msg = %sf[0][1]" % x)
    tick.append('        if msg.op != "load":')
    tick.append("            %sf.popleft()" % x)
    tick.append("            continue")
    tick.append("        if len(c%di) < %d and CP[%d] is None:"
                % (rs, comp.response_out.capacity, rs))
    tick.append("            %sf.popleft()" % x)
    tick.append("            CP[%d] = msg" % rs)
    tick.append("            dl.append(%d)" % rs)
    tick.append("        break")
    tick.append("    if c%di and not CQ[%d]:" % (rq, rq))
    tick.append("        CQ[%d] = 1" % rq)
    tick.append("        dl.append(%d)" % rq)
    tick.append("        %sf.append((cycle + %d, c%di[0]))"
                % (x, comp.latency, rq))
    tick.append("        %s.accesses += 1" % x)
    busy.append(x + "f")
    skip.extend(_pipe_deadline(x + "f"))


def _emit_scratchpad(em, x, comp, tick, busy, skip):
    em.pre.append("%sp = %s._pipe" % (x, x))
    em.pre.append("%sb = %s.backing" % (x, x))
    rq = em.ci(comp.request_in)
    rs = em.ci(comp.response_out)
    tick.append("if %sp or c%di:" % (x, rq))
    tick.append("    if %sp and %sp[0][0] <= cycle and len(c%di) < %d "
                "and CP[%d] is None:" % (x, x, rs, comp.response_out.capacity,
                                         rs))
    tick.append("        CP[%d] = %sp.popleft()[1]" % (rs, x))
    tick.append("        dl.append(%d)" % rs)
    tick.append("    if c%di and not CQ[%d]:" % (rq, rq))
    tick.append("        req = c%di[0]" % rq)
    tick.append("        CQ[%d] = 1" % rq)
    tick.append("        dl.append(%d)" % rq)
    tick.append("        %s.accesses += 1" % x)
    tick.append('        if req.op == "load":')
    tick.append("            data = %sb.read_int(req.addr, req.size, "
                "signed=False)" % x)
    tick.append("        else:")
    tick.append("            %sb.write_int(req.addr, req.size, "
                "req.data or 0)" % x)
    tick.append("            data = None")
    tick.append("        %sp.append((cycle + %d, MemResponse(req.tag, data, "
                "port=req.port)))" % (x, comp.latency))
    busy.append(x + "p")
    skip.extend(_pipe_deadline(x + "p"))


def _emit_cache(em, x, comp, tick, busy, skip):
    em.pre.append("%sr = %s._ready_responses" % (x, x))
    em.pre.append("%sm = %s._mshrs" % (x, x))
    em.pre.append("%sw = %s._pending_writebacks" % (x, x))
    em.pre.append("%sfn = %s._functional" % (x, x))
    em.pre.append("%slk = %s._lookup" % (x, x))
    em.pre.append("%saf = %s._apply_fill" % (x, x))
    rq = em.ci(comp.request_in)
    rs = em.ci(comp.response_out)
    dq = em.ci(comp.dram_request)
    ds = em.ci(comp.dram_response)
    p = comp.params
    lb, hl = p.line_bytes, p.hit_latency
    tick.append("if %sr or %sm or %sw or c%di or c%di:" % (x, x, x, rq, ds))
    tick.append("    %s._blocked = None" % x)
    # _drain_writebacks
    tick.append("    if %sw and len(c%di) < %d and CP[%d] is None:"
                % (x, dq, comp.dram_request.capacity, dq))
    tick.append("        CP[%d] = %sw.popleft()" % (dq, x))
    tick.append("        dl.append(%d)" % dq)
    tick.append("        %s.writebacks += 1" % x)
    # _handle_fill
    tick.append("    if c%di and not CQ[%d]:" % (ds, ds))
    tick.append("        fl = c%di[0]" % ds)
    tick.append("        CQ[%d] = 1" % ds)
    tick.append("        dl.append(%d)" % ds)
    tick.append("        %saf(fl, cycle)" % x)
    # _accept_request
    tick.append("    if c%di and not CQ[%d]:" % (rq, rq))
    tick.append("        req = c%di[0]" % rq)
    tick.append("        la = req.addr // %d" % lb)
    tick.append("        way = %slk(la)" % x)
    tick.append("        if way is not None:")
    tick.append("            CQ[%d] = 1" % rq)
    tick.append("            dl.append(%d)" % rq)
    tick.append("            data = %sfn(req)" % x)
    tick.append("            way.last_used = cycle")
    tick.append('            if req.op != "load":')
    tick.append("                way.dirty = True")
    tick.append("            %s.hits += 1" % x)
    tick.append("            %sr.append((cycle + %d + (0 if (req.size >= 4 "
                "and req.addr %% 4 == 0) else %d), MemResponse(req.tag, "
                "data, port=req.port)))"
                % (x, hl, p.subword_penalty))
    tick.append("        else:")
    tick.append("            mh = %sm.get(la)" % x)
    tick.append("            if mh is not None:")
    tick.append("                CQ[%d] = 1" % rq)
    tick.append("                dl.append(%d)" % rq)
    tick.append("                mh.waiters.append((req, %sfn(req)))" % x)
    tick.append("                %s.misses += 1" % x)
    tick.append("            elif len(%sm) >= %d:" % (x, p.mshr_count))
    tick.append('                %s._blocked = "mshr-full"' % x)
    tick.append("            elif len(c%di) < %d and CP[%d] is None:"
                % (dq, comp.dram_request.capacity, dq))
    tick.append("                CQ[%d] = 1" % rq)
    tick.append("                dl.append(%d)" % rq)
    tick.append("                data = %sfn(req)" % x)
    tick.append("                %sm[la] = _MSHR(la, [(req, data)])" % x)
    tick.append('                CP[%d] = MemRequest(tag=la, op="load", '
                "addr=la * %d, size=%d)" % (dq, lb, lb))
    tick.append("                dl.append(%d)" % dq)
    tick.append("                %s.misses += 1" % x)
    tick.append("            else:")
    tick.append('                %s._blocked = "dram-backpressure"' % x)
    # _send_response
    tick.append("    if %sr and %sr[0][0] <= cycle and len(c%di) < %d "
                "and CP[%d] is None:" % (x, x, rs, comp.response_out.capacity,
                                         rs))
    tick.append("        CP[%d] = %sr.popleft()[1]" % (rs, x))
    tick.append("        dl.append(%d)" % rs)
    busy.append("%sr or %sm or %sw" % (x, x, x))
    skip.extend(_pipe_deadline(x + "r"))


def _emit_databox(em, x, comp, tick, busy, skip):
    fc = em.ci(comp.from_cache)
    tc = em.ci(comp.to_cache)
    rts = [(em.ci(c), c.capacity) for c in comp.tile_response]
    rqs = [em.ci(c) for c in comp.tile_request]
    ent = comp.entries
    em.pre.append("%st = (%s%s)" % (x, ", ".join(
        "(c%di, %d, %d)" % (o, o, cap) for o, cap in rts),
        "," if len(rts) == 1 else ""))
    tick.append("if %s:" % " or ".join(
        ["c%di" % fc] + ["c%di" % q for q in rqs]))
    # _catch_up: stalled-cycle attribution over the skipped gap
    tick.append("    st = %s._synced_to" % x)
    tick.append("    if st < cycle - 1 and %s._outstanding >= %d:" % (x, ent))
    tick.append("        %s.stalled_cycles += cycle - 1 - st" % x)
    tick.append("    %s._synced_to = cycle" % x)
    # response path
    tick.append("    if c%di and not CQ[%d]:" % (fc, fc))
    tick.append("        resp = c%di[0]" % fc)
    tick.append("        dq, kk, cap = %st[resp.tag.tile]" % x)
    tick.append("        if len(dq) < cap and CP[kk] is None:")
    tick.append("            CQ[%d] = 1" % fc)
    tick.append("            dl.append(%d)" % fc)
    tick.append("            CP[kk] = resp")
    tick.append("            dl.append(kk)")
    tick.append("            %s._outstanding -= 1" % x)
    # request path
    tick.append("    o = %s._outstanding" % x)
    tick.append("    if o >= %d:" % ent)
    tick.append("        %s.stalled_cycles += 1" % x)
    tick.append("    elif len(c%di) < %d and CP[%d] is None:"
                % (tc, comp.to_cache.capacity, tc))
    n = len(rqs)
    if n == 1:
        q0 = rqs[0]
        tick.append("        if c%di and not CQ[%d]:" % (q0, q0))
        tick.append("            CQ[%d] = 1" % q0)
        tick.append("            dl.append(%d)" % q0)
        tick.append("            CP[%d] = c%di[0]" % (tc, q0))
        tick.append("            dl.append(%d)" % tc)
        tick.append("            o += 1")
        tick.append("            %s._outstanding = o" % x)
        tick.append("            %s.forwarded += 1" % x)
        tick.append("            if o > %s.peak_outstanding:" % x)
        tick.append("                %s.peak_outstanding = o" % x)
    else:
        em.pre.append("%sq = (%s)" % (x, ", ".join(
            "(c%di, %d)" % (q, q) for q in rqs)))
        tick.append("        j = %s._rr" % x)
        tick.append("        for _ in range(%d):" % n)
        tick.append("            dq, kk = %sq[j]" % x)
        tick.append("            if dq and not CQ[kk]:")
        tick.append("                CQ[kk] = 1")
        tick.append("                dl.append(kk)")
        tick.append("                CP[%d] = dq[0]" % tc)
        tick.append("                dl.append(%d)" % tc)
        tick.append("                %s._rr = j + 1 if j + 1 < %d else 0"
                    % (x, n))
        tick.append("                o += 1")
        tick.append("                %s._outstanding = o" % x)
        tick.append("                %s.forwarded += 1" % x)
        tick.append("                if o > %s.peak_outstanding:" % x)
        tick.append("                    %s.peak_outstanding = o" % x)
        tick.append("                break")
        tick.append("            j = j + 1 if j + 1 < %d else 0" % n)
    busy.append("%s._outstanding > 0" % x)
    # next_wake is NEVER: every databox stall resolves via a channel


def _pipe_deadline(name: str) -> List[str]:
    """Fast-forward contribution of a deadline deque (pipes, DRAM
    in-flight, cache ready-responses): the head entry's due cycle if it
    is not yet overdue. The comparison is ``>=`` because the skip runs
    after the cycle increment while the event engine's ``next_wake``
    sees the just-executed cycle: a head due exactly now clamps the
    target to the current cycle (no skip). An overdue head is
    backpressure — channel-driven, like the components' next_wake."""
    return ["if %s:" % name,
            "    w = %s[0][0]" % name,
            "    if w >= cycle and w < tw:",
            "        tw = w"]


def _emit_unit(em: _Emitter, k: int, unit, tick, busy, skip, sdefs):
    """Fully inlined TaskUnit tick: queue/join plumbing via guarded real
    helper calls, tile instance stepping via the per-block steppers."""
    compiled = unit.tiles[0].compiled if unit.tiles else None
    if compiled is None:
        raise UnsupportedDesign(f"{unit.name}: task unit has no tiles")
    for t in unit.tiles:
        if t.compiled is not compiled:
            raise UnsupportedDesign(
                f"{unit.name}: tiles disagree on compiled task")
        if t.latencies != unit.tiles[0].latencies:
            raise UnsupportedDesign(
                f"{unit.name}: tiles disagree on latency table")

    u = "u%d" % k
    em.pre.append("%s = %s" % (u, em.ref(unit)))
    em.pre.append("%sq = %s.queue" % (u, u))
    em.pre.append("%sqf = %sq._free" % (u, u))
    em.pre.append("%sqr = %sq._ready" % (u, u))
    em.pre.append("%sjr = %s._join_ready" % (u, u))
    em.pre.append("%sso = %s._spawn_outbuf" % (u, u))
    em.pre.append("%sjo = %s._join_outbuf" % (u, u))
    em.pre.append("%saj = %s._apply_join" % (u, u))
    em.pre.append("%sas = %s._apply_spawn" % (u, u))
    em.pre.append("%sqe = %sq.entries" % (u, u))
    em.pre.append("%ssj = %s._send_join" % (u, u))
    em.pre.append("%sfi = %s.instance_finished" % (u, u))
    si, ji = em.ci(unit.spawn_in), em.ci(unit.join_in)
    so, jo = em.ci(unit.spawn_out), em.ci(unit.join_out)

    tiles = []
    for ti, t in enumerate(unit.tiles):
        tn = "%s_t%d" % (u, ti)
        em.pre.append("%s = %s" % (tn, em.ref(t)))
        em.pre.append("%si = %s.instances" % (tn, tn))
        em.pre.append("%sb = %s._by_uid" % (tn, tn))
        em.pre.append("%sf = %s._fired" % (tn, tn))
        em.pre.append("%spr = %s._apply_response" % (tn, tn))
        em.pre.append("%sfc = %s._fire_call" % (tn, tn))
        em.pre.append("%ssu = %s._suspend" % (tn, tn))
        tiles.append((tn, em.ci(t.response_in), t))

    # -- per-tile epilogue closures, steppers, dispatch dicts --------------
    rettype = compiled.task.function.return_type
    for ti, (tn, _rc, t) in enumerate(tiles):
        ep = "_e%d_%d" % (k, ti)
        if rettype.is_void():
            # unreachable: a void task never has (ret_ptr, retval) set
            sdefs.append("def %s(inst, cycle):" % ep)
            sdefs.append("    raise SimulationError(%r)"
                         % ("epilogue store for void task",))
        else:
            ro = em.ci(t.request_out)
            sdefs.append("def %s(inst, cycle):" % ep)
            sdefs.append("    if %s._mem_issued_this_cycle:" % tn)
            sdefs.append("        return")
            sdefs.append("    if len(c%di) < %d and CP[%d] is None:"
                         % (ro, t.request_out.capacity, ro))
            sdefs.append('        CP[%d] = MemRequest(tag=MemTag(%d, %d, '
                         'inst.uid, -1), op="store", '
                         "addr=int(inst.entry.ret_ptr), size=%d, "
                         "data=_v2r(%s, inst.retval), port=%d)"
                         % (ro, unit.sid, ti, rettype.size_bytes,
                            em.ref(rettype), unit.port))
            sdefs.append("        dl.append(%d)" % ro)
            sdefs.append("        %s._mem_issued_this_cycle = True" % tn)
            sdefs.append('        inst.phase = "epilogue_wait"')
            sdefs.append("    else:")
            sdefs.append("        %s._mem_blocked = True" % tn)
        gen = _StepperGen(em, unit, compiled, t.latencies, t, ti, tn, ep, u)
        entries = []
        for bi, block in enumerate(compiled.blocks):
            if not compiled.owns_block(block):
                continue
            name = "_s%d_%d_%d" % (k, ti, bi)
            sdefs.extend(gen.stepper(name, block))
            entries.append("%s: %s" % (em.ref(block), name))
        sdefs.append("%sd = {%s}" % (tn, ", ".join(entries)))

    # -- the tick section --------------------------------------------------
    guard = ["c%di" % ji, "c%di" % si, u + "jr", u + "so", u + "jo",
             u + "qr"]
    for tn, rc, _t in tiles:
        guard.extend([tn + "i", "c%di" % rc, "%s._min_wake <= cycle" % tn])
    tick.append("if %s:" % " or ".join(guard))
    tick.append("    st = %s._synced_to" % u)
    tick.append("    if st < cycle - 1:")
    tick.append("        gap = cycle - 1 - st")
    for tn, _rc, _t in tiles:
        tick.append("        if %si:" % tn)
        tick.append("            %s.busy_cycles += gap" % tn)
    tick.append("    %s._synced_to = cycle" % u)
    tick.append("    wk_ = 0")
    tick.append("    if c%di and not CQ[%d]:" % (ji, ji))
    tick.append("        msg = c%di[0]" % ji)
    tick.append("        CQ[%d] = 1" % ji)
    tick.append("        dl.append(%d)" % ji)
    tick.append("        %saj(msg, cycle)" % u)
    tick.append("        wk_ = 1")
    tick.append("    if c%di and not CQ[%d] and %sqf:" % (si, si, u))
    tick.append("        msg = c%di[0]" % si)
    tick.append("        CQ[%d] = 1" % si)
    tick.append("        dl.append(%d)" % si)
    tick.append("        %sas(msg, cycle)" % u)
    # inlined TaskUnit._dispatch: round-robin over the (static) tile
    # list for a tile with capacity, pop one READY entry, start it
    take = ("%sqr.pop()" if unit.queue.policy == "lifo"
            else "%sqr.popleft()") % u
    nt = len(unit.tiles)
    tick.append("    if %sqr:" % u)
    if nt == 1:
        tn0, _rc0, t0 = tiles[0]
        tick.append("        if len(%si) < %d:" % (tn0, t0.max_inflight))
        tick.append("            dyid_ = %s" % take)
        tick.append("            en_ = %sqe[dyid_]" % u)
        tick.append('            if en_.state != "READY":')
        tick.append("                raise SimulationError(")
        tick.append('                    "task queue %s: ready-list entry '
                    '%%d in state %%s" %% (dyid_, en_.state))'
                    % unit.queue.name.replace("%", "%%"))
        tick.append('            en_.state = "EXE"')
        tick.append("            %s.start(%s._uid_counter, en_, cycle)"
                    % (tn0, u))
        tick.append("            %s._uid_counter += 1" % u)
        tick.append("            wk_ = 1")
        tick.append("            if %s.first_dispatch_cycle is None:" % u)
        tick.append("                %s.first_dispatch_cycle = cycle" % u)
    else:
        em.pre.append("%stl = (%s)" % (u, ", ".join(
            "(%s, %si, %d)" % (tn, tn, t.max_inflight)
            for tn, _rc, t in tiles)))
        tick.append("        ix_ = %s._dispatch_rr" % u)
        tick.append("        for _ in range(%d):" % nt)
        tick.append("            tt_ = %stl[ix_]" % u)
        tick.append("            if len(tt_[1]) < tt_[2]:")
        tick.append("                if not %sqr:" % u)
        tick.append("                    break")
        tick.append("                dyid_ = %s" % take)
        tick.append("                en_ = %sqe[dyid_]" % u)
        tick.append('                if en_.state != "READY":')
        tick.append("                    raise SimulationError(")
        tick.append('                        "task queue %s: ready-list '
                    'entry %%d in state %%s" %% (dyid_, en_.state))'
                    % unit.queue.name.replace("%", "%%"))
        tick.append('                en_.state = "EXE"')
        tick.append("                tt_[0].start(%s._uid_counter, en_, "
                    "cycle)" % u)
        tick.append("                %s._uid_counter += 1" % u)
        tick.append("                wk_ = 1")
        tick.append("                %s._dispatch_rr = ix_ + 1 if ix_ + 1 "
                    "< %d else 0" % (u, nt))
        tick.append("                if %s.first_dispatch_cycle is None:"
                    % u)
        tick.append("                    %s.first_dispatch_cycle = cycle"
                    % u)
        tick.append("                break")
        tick.append("            ix_ = ix_ + 1 if ix_ + 1 < %d else 0" % nt)
    for ti, (tn, rc, _t) in enumerate(tiles):
        # the instance loop is a pure no-op (each instance would hit its
        # cycle < wake_at early-out) unless a wake event happened: a
        # memory response or join arrived, a dispatch started/resumed an
        # instance, a blocked epilogue store must retry (%sw, persisted
        # across cycles), or a node-latency deadline (_min_wake) is due.
        em.pre.append("%sw = 1" % tn)
        em.pre.append("%sn = 0" % tn)
        tick.append("    if %sf:" % tn)
        tick.append("        %sf.clear()" % tn)
        tick.append("    %s._mem_issued_this_cycle = False" % tn)
        tick.append("    %s._mem_blocked = False" % tn)
        tick.append("    %s._spawn_blocked = False" % tn)
        tick.append("    rs_ = wk_")
        tick.append("    if c%di and not CQ[%d]:" % (rc, rc))
        tick.append("        resp = c%di[0]" % rc)
        tick.append("        CQ[%d] = 1" % rc)
        tick.append("        dl.append(%d)" % rc)
        tick.append("        %spr(resp, cycle)" % tn)
        tick.append("        rs_ = 1")
        tick.append("    if %si:" % tn)
        tick.append("        %s.busy_cycles += 1" % tn)
        tick.append("        if rs_ or %sw or cycle >= %sn:" % (tn, tn))
        tick.append("            %sw = 0" % tn)
        tick.append("            mw = P")
        tick.append("            nw_ = P")
        tick.append("            fin = None")
        tick.append("            for inst in %si[:]:" % tn)
        tick.append("                ph = inst.phase")
        tick.append('                if ph == "run":')
        tick.append("                    wa = inst.wake_at")
        tick.append("                    if cycle < wa:")
        tick.append("                        if wa < mw:")
        tick.append("                            mw = wa")
        tick.append("                        if wa < nw_:")
        tick.append("                            nw_ = wa")
        tick.append("                        continue")
        tick.append("                    _w = %sd[inst.block](inst, cycle)"
                    % tn)
        tick.append('                elif ph == "epilogue_issue":')
        tick.append("                    _e%d_%d(inst, cycle)" % (k, ti))
        tick.append("                    _w = P")
        tick.append("                else:")
        tick.append("                    _w = P")
        tick.append("                ph = inst.phase")
        tick.append('                if ph == "done":')
        tick.append("                    if fin is None:")
        tick.append("                        fin = [inst]")
        tick.append("                    else:")
        tick.append("                        fin.append(inst)")
        tick.append("                else:")
        tick.append('                    if ph == "epilogue_issue":')
        tick.append("                        %sw = 1" % tn)
        tick.append('                    elif ph == "run":')
        tick.append("                        wa = inst.wake_at")
        tick.append("                        if wa < nw_:")
        tick.append("                            nw_ = wa")
        tick.append("                    if _w < mw:")
        tick.append("                        mw = _w")
        tick.append("            %sn = nw_" % tn)
        tick.append("            %s._min_wake = mw" % tn)
        tick.append("            if fin is not None:")
        tick.append("                for inst in fin:")
        tick.append("                    %si.remove(inst)" % tn)
        tick.append("                    del %sb[inst.uid]" % tn)
        tick.append("                    %s.completed_instances += 1" % tn)
        tick.append("                    %sfi(inst)" % u)
        tick.append("    else:")
        tick.append("        %s._min_wake = P" % tn)
    tick.append("    if %sjr:" % u)
    tick.append("        %ssj(cycle)" % u)
    tick.append("    if %sso and len(c%di) < %d and CP[%d] is None:"
                % (u, so, unit.spawn_out.capacity, so))
    tick.append("        CP[%d] = %sso.popleft()" % (so, u))
    tick.append("        dl.append(%d)" % so)
    tick.append("    if %sjo and len(c%di) < %d and CP[%d] is None:"
                % (u, jo, unit.join_out.capacity, jo))
    tick.append("        CP[%d] = %sjo.popleft()" % (jo, u))
    tick.append("        dl.append(%d)" % jo)

    # -- is_busy -----------------------------------------------------------
    terms = ["%sso" % u, "%sjo" % u, "%sjr" % u,
             "len(%sqf) < %d" % (u, unit.queue.depth)]
    terms.extend("%si" % tn for tn, _rc, _t in tiles)
    busy.append(" or ".join(terms))

    # -- fast-forward contribution (mirrors TaskUnit.next_wake) ------------
    caps = " or ".join("len(%si) < %d" % (tn, t.max_inflight)
                       for tn, _rc, t in tiles)
    skip.append("if %sjr or (c%di and %sqf) or (%sqr and (%s)):"
                % (u, si, u, u, caps))
    skip.append("    tw = cycle")
    skip.append("else:")
    first = True
    for tn, _rc, _t in tiles:
        if first:
            skip.append("    w = %s._min_wake" % tn)
            first = False
        else:
            skip.append("    w2 = %s._min_wake" % tn)
            skip.append("    if w2 < w:")
            skip.append("        w = w2")
    skip.append("    if w <= cycle:")
    skip.append("        tw = cycle")
    skip.append("    elif w < tw and w < P:")
    skip.append("        tw = w")


def _generate(sim) -> Tuple[str, dict]:
    """Walk the elaborated netlist and emit (source, ctx) for its
    specialized kernel. Deterministic for a given design: iteration is
    over registration-order lists only, names are assigned by traversal
    index, and nothing depends on id()/hash ordering."""
    from repro.ir.opsem import value_to_raw as _value_to_raw
    from repro.memory.cache import _MSHR as _MSHRCls
    from repro.memory.databox import MemTag as _MemTagCls
    from repro.memory.messages import MemRequest as _MemRequestCls
    from repro.memory.messages import MemResponse as _MemResponseCls
    from repro.task.messages import SpawnMessage as _SpawnMessageCls
    from repro.task.txu import _RegSlot as _RegSlotCls

    em = _Emitter(sim.channels)
    tick: List[str] = []   # per-cycle component sections (base indent 0)
    busy: List[str] = []   # is_busy terms, registration order
    skip: List[str] = []   # fast-forward deadline contributions
    sdefs: List[str] = []  # stepper defs + dispatch dicts

    comps = list(sim.components)
    for k, comp in enumerate(comps):
        if isinstance(comp, TaskUnit):
            _emit_unit(em, k, comp, tick, busy, skip, sdefs)
        else:
            _emit_plumbing(em, k, comp, tick, busy, skip)

    busy_expr = " or ".join("(%s)" % t for t in busy) if busy else "0"
    stalled = "idle > %d or quiet > %d" % (DEADLOCK_WINDOW, STALL_WINDOW)
    nch = len(em.channels)

    body: List[str] = []
    w = body.append
    w("P = %d" % _PARKED)
    w("B = P")
    body.extend(opsem.PRELUDE)
    w("limit = start + max_cycles")
    w("cycle = sim.cycle")
    w("idle = sim._idle_cycles")
    w("quiet = sim._quiet_cycles")
    w("act = 1 if sim._activity_flag else 0")
    w("sim._activity_flag = False")
    w("ticks = 0")
    w("ff = 0")
    w("dirty = sim._dirty_channels")
    # flat channel state: item deques, pending push/pop, moved counters
    w("CI = tuple([c._items for c in CH])")
    w("CN = tuple([c.name for c in CH])")
    w("CP = [None] * %d" % nch)
    w("CQ = [0] * %d" % nch)
    w("CU = [0] * %d" % nch)
    w("CO = [0] * %d" % nch)
    w("dl = []")
    # absorb pre-existing pending channel state (the host pushes the
    # root spawn before run()) into the flat arrays so the first commit
    # sees it exactly like the dense engine's dirty list would
    w("i = 0")
    w("for c in CH:")
    w("    c._dirty = False")
    w("    if c._pending_pop:")
    w("        CQ[i] = 1")
    w("        c._pending_pop = False")
    w("        dl.append(i)")
    w("    v = c._pending_push")
    w("    if v is not None:")
    w("        CP[i] = v")
    w("        c._pending_push = None")
    w("        dl.append(i)")
    w("    i += 1")
    w("del dirty[:]")
    # cold-path helper: fold the flat moved-counters back into the real
    # channel objects (stall post-mortems and stats() read them there)
    w("def _sync_totals():")
    w("    i = 0")
    w("    for c in CH:")
    w("        c.total_pushed += CU[i]")
    w("        CU[i] = 0")
    w("        c.total_popped += CO[i]")
    w("        CO[i] = 0")
    w("        i += 1")
    body.extend(em.pre)
    body.extend(sdefs)
    # the hot loop allocates only acyclic objects (messages, instances,
    # small lists); pausing the cyclic collector avoids threshold-driven
    # generation-0 sweeps every few hundred cycles
    w("_gc_on = _gc.isenabled()")
    w("if _gc_on:")
    w("    _gc.disable()")
    w("try:")
    w("    while True:")
    w("        sim.cycle = cycle")
    w("        if done():")
    w("            break")
    w("        if cycle >= limit:")
    w("            raise SimulationError(")
    w('                f"simulation exceeded {max_cycles} cycles '
      'without finishing")')
    w("        act = 0")
    body.extend("        " + line for line in tick)
    w("        ticks += 1")
    w("        if dl:")
    w("            if mlog is None:")
    w("                for k in dl:")
    w("                    if CQ[k]:")
    w("                        CI[k].popleft()")
    w("                        CO[k] += 1")
    w("                        CQ[k] = 0")
    w("                    v = CP[k]")
    w("                    if v is not None:")
    w("                        CI[k].append(v)")
    w("                        CU[k] += 1")
    w("                        CP[k] = None")
    w("            else:")
    w("                nm = set()")
    w("                for k in dl:")
    w("                    if CQ[k]:")
    w("                        CI[k].popleft()")
    w("                        CO[k] += 1")
    w("                        CQ[k] = 0")
    w("                    v = CP[k]")
    w("                    if v is not None:")
    w("                        CI[k].append(v)")
    w("                        CU[k] += 1")
    w("                        CP[k] = None")
    w("                    nm.add(CN[k])")
    w("                if len(mlog) < 1000000:")
    w("                    mlog.append((cycle, tuple(sorted(nm))))")
    w("            del dl[:]")
    w("            cycle += 1")
    w("            quiet = 0")
    w("            idle = 0")
    w("            continue")
    w("        cycle += 1")
    w("        if act:")
    w("            quiet = 0")
    w("        else:")
    w("            quiet += 1")
    w("        if %s:" % busy_expr)
    w("            idle = 0")
    w("            busy = 1")
    w("        else:")
    w("            idle += 1")
    w("            busy = 0")
    w("        if %s:" % stalled)
    w("            sim.cycle = cycle")
    w("            sim._idle_cycles = idle")
    w("            sim._quiet_cycles = quiet")
    w("            _sync_totals()")
    w("            sim._check_stalls()")
    w("        if act:")
    w("            continue")
    w("        tw = limit")
    body.extend("        " + line for line in skip)
    w("        if not busy:")
    w("            w = cycle + %d - idle" % (DEADLOCK_WINDOW + 1))
    w("            if w < tw:")
    w("                tw = w")
    w("        w = cycle + %d - quiet" % (STALL_WINDOW + 1))
    w("        if w < tw:")
    w("            tw = w")
    w("        span = tw - cycle")
    w("        if span > 0:")
    w("            cycle += span")
    w("            quiet += span")
    w("            if not busy:")
    w("                idle += span")
    w("            ff += span")
    w("            if %s:" % stalled)
    w("                sim.cycle = cycle")
    w("                sim._idle_cycles = idle")
    w("                sim._quiet_cycles = quiet")
    w("                _sync_totals()")
    w("                sim._check_stalls()")
    w("finally:")
    w("    if _gc_on:")
    w("        _gc.enable()")
    w("    sim.cycle = cycle")
    w("    sim._idle_cycles = idle")
    w("    sim._quiet_cycles = quiet")
    w("    sim._ticks_executed += ticks")
    w("    sim._component_ticks += ticks * %d" % len(comps))
    w("    sim._fast_forwarded_cycles += ff")
    w("    _sync_totals()")
    # error-state parity: a mid-cycle exception leaves this cycle's
    # pending pushes/pops on the real channel objects, exactly as the
    # dense engine would (uncommitted, marked dirty)
    w("    for k in dl:")
    w("        c = CH[k]")
    w("        if CQ[k]:")
    w("            c._pending_pop = True")
    w("            CQ[k] = 0")
    w("        v = CP[k]")
    w("        if v is not None:")
    w("            c._pending_push = v")
    w("            CP[k] = None")
    w("        if not c._dirty:")
    w("            c._dirty = True")
    w("            dirty.append(c)")

    lines = ['"""Autogenerated compiled-engine kernel. Do not edit: '
             'regenerated from the',
             'elaborated design by repro.sim.compile (content-addressed '
             'by source +',
             'code fingerprint)."""',
             "",
             "",
             "def make_kernel(ctx):"]
    if em.objs:
        lines.append("    (%s,) = ctx[\"objects\"]"
                     % ", ".join("_o%d" % i for i in range(len(em.objs))))
    lines.append('    CH = ctx["channels"]')
    lines.append('    SimulationError = ctx["SimulationError"]')
    lines.append('    _RegSlot = ctx["RegSlot"]')
    lines.append('    _pk = ctx["pack"]')
    lines.append('    _up = ctx["unpack"]')
    lines.append('    MemRequest = ctx["MemRequest"]')
    lines.append('    MemResponse = ctx["MemResponse"]')
    lines.append('    MemTag = ctx["MemTag"]')
    lines.append('    _MSHR = ctx["MSHR"]')
    lines.append('    _v2r = ctx["v2r"]')
    lines.append('    SpawnMessage = ctx["SpawnMessage"]')
    lines.append("    import gc as _gc")
    lines.append("    def kernel(sim, done, start, max_cycles, mlog):")
    lines.extend("        " + line for line in body)
    lines.append("    return kernel")
    source = "\n".join(lines) + "\n"
    ctx = {
        "objects": tuple(em.objs),
        "channels": tuple(em.channels),
        "SimulationError": opsem.HELPERS["SimulationError"],
        "RegSlot": _RegSlotCls,
        "pack": opsem.HELPERS["_pk"],
        "unpack": opsem.HELPERS["_up"],
        "MemRequest": _MemRequestCls,
        "MemResponse": _MemResponseCls,
        "MemTag": _MemTagCls,
        "MSHR": _MSHRCls,
        "v2r": _value_to_raw,
        "SpawnMessage": _SpawnMessageCls,
    }
    return source, ctx
