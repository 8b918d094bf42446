"""IR optimisations: the "Concurrency Opt" / "Task Opt" boxes of Fig 3.

Four conservative, hardware-motivated transforms:

* **constant folding** — a folded operation is a wire, not a functional
  unit: it costs zero ALMs and zero latency in the TXU;
* **dead-code elimination** — unused pure operations would synthesise
  real hardware (the elaborator instantiates every DFG node);
* **block-local CSE** — duplicate pure operations in one block become a
  single functional unit with fan-out, which is exactly what a Chisel
  elaborator would share;
* **dominator-scoped value numbering (GVN)** — duplicate pure
  operations whose first occurrence dominates the later ones collapse
  across blocks too, without any code motion.  Detached regions are a
  sharing barrier: a value computed outside a region is never forwarded
  into it, so task live-in sets (and the marshalled spawn arguments)
  are unchanged.

All four preserve the parallel markers untouched and never touch memory
operations, calls, or anything with side effects.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    GEP,
    BinaryOp,
    Cast,
    Detach,
    FCmp,
    ICmp,
    Instruction,
    Select,
)
from repro.ir.module import Module
from repro.ir.opsem import eval_binop, eval_cast, eval_fcmp, eval_icmp, eval_select
from repro.ir.values import Constant, Value

#: instruction classes that are pure (no side effects, no memory)
_PURE = (BinaryOp, ICmp, FCmp, Select, Cast, GEP)


def _fold(inst: Instruction):
    """Return a Constant replacing ``inst`` if all operands are constants."""
    if not all(isinstance(op, Constant) for op in inst.operands):
        return None
    vals = [op.value for op in inst.operands]
    try:
        if isinstance(inst, BinaryOp):
            return Constant(inst.type, eval_binop(inst.op, inst.type, *vals))
        if isinstance(inst, ICmp):
            return Constant(inst.type, eval_icmp(inst.predicate, *vals))
        if isinstance(inst, FCmp):
            return Constant(inst.type, eval_fcmp(inst.predicate, *vals))
        if isinstance(inst, Select):
            return Constant(inst.type, eval_select(*vals))
        if isinstance(inst, Cast):
            return Constant(inst.type, eval_cast(inst.kind, vals[0], inst.type))
    except Exception:
        return None  # e.g. constant division by zero: leave it to run time
    return None


def _replace_everywhere(function: Function, old: Instruction, new: Value) -> int:
    count = 0
    for block in function.blocks:
        for inst in block.instructions:
            count += inst.replace_operand(old, new)
    return count


def constant_fold(function: Function) -> int:
    """Fold constant expressions; returns the number of folds."""
    folded = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for inst in list(block.body()):
                if not isinstance(inst, _PURE):
                    continue
                replacement = _fold(inst)
                if replacement is None:
                    continue
                _replace_everywhere(function, inst, replacement)
                block.instructions.remove(inst)
                folded += 1
                changed = True
    return folded


def eliminate_dead_code(function: Function) -> int:
    """Remove pure instructions whose results are never used."""
    removed = 0
    changed = True
    while changed:
        changed = False
        used: Set[Value] = set()
        for block in function.blocks:
            for inst in block.instructions:
                for op in inst.operands:
                    used.add(op)
        for block in function.blocks:
            for inst in list(block.body()):
                if isinstance(inst, _PURE) and inst not in used:
                    block.instructions.remove(inst)
                    removed += 1
                    changed = True
    return removed


def _value_index(function: Function) -> Dict[Value, int]:
    """Stable per-function ordinal for every value an operand can name.

    Arguments come first (by position), then instructions in program
    order.  The ordinal is what commutative operand sorting keys on, so
    CSE results are identical across runs and interpreters — unlike the
    previous ``id()``-based sort, which ordered operands by memory
    address.
    """
    index: Dict[Value, int] = {}
    for arg in function.arguments:
        index[arg] = len(index)
    for block in function.blocks:
        for inst in block.instructions:
            index[inst] = len(index)
    return index


def _operand_key(op: Value, index: Dict[Value, int]):
    """A hashable, totally ordered, run-stable key for one operand."""
    if isinstance(op, Constant):
        return ("c", str(op.type), repr(op.value))
    pos = index.get(op)
    if pos is not None:
        return ("v", pos)
    # globals and other module-level values: key by name
    return ("g", getattr(op, "name", "") or repr(op))


def _cse_key(inst: Instruction, index: Dict[Value, int]):
    """A structural hash for pure operations."""
    ids = tuple(_operand_key(op, index) for op in inst.operands)
    if isinstance(inst, BinaryOp):
        ops = ids
        if inst.op in ("add", "mul", "and", "or", "xor",
                       "fadd", "fmul", "smin", "smax"):
            ops = tuple(sorted(ids))  # commutative
        return ("bin", inst.op, ops)
    if isinstance(inst, ICmp):
        return ("icmp", inst.predicate, ids)
    if isinstance(inst, FCmp):
        return ("fcmp", inst.predicate, ids)
    if isinstance(inst, Select):
        return ("select", ids)
    if isinstance(inst, Cast):
        return ("cast", inst.kind, str(inst.type), ids)
    if isinstance(inst, GEP):
        return ("gep", tuple(inst.strides), ids)
    return None


def common_subexpression_elimination(function: Function) -> int:
    """Share duplicate pure operations within each block."""
    shared = 0
    index = _value_index(function)
    for block in function.blocks:
        seen: Dict[tuple, Instruction] = {}
        for inst in list(block.body()):
            if not isinstance(inst, _PURE):
                continue
            key = _cse_key(inst, index)
            if key is None:
                continue
            original = seen.get(key)
            if original is None:
                seen[key] = inst
                continue
            _replace_everywhere(function, inst, original)
            block.instructions.remove(inst)
            shared += 1
    return shared


def global_value_numbering(function: Function) -> int:
    """Share duplicate pure operations across dominated blocks.

    A preorder walk of the dominator tree carries a scoped table of
    available expressions: a pure op whose key already has an entry in a
    dominating block is replaced by that entry (pure fan-out, no code
    motion, so this is always safe for ``_PURE`` ops).

    Detach edges are a sharing barrier.  The walk enters a detached
    region's entry block with an *empty* table, so a value computed in
    the parent region is never forwarded into the spawned task — that
    would add a live-in and change the marshalled spawn arguments.
    """
    from repro.passes.dominators import compute_dominators

    if not function.blocks:
        return 0
    dom = compute_dominators(function)
    order = {b: i for i, b in enumerate(function.blocks)}
    children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    for block, parent in dom.idom.items():
        if parent is not None:
            children[parent].append(block)
    for kids in children.values():
        kids.sort(key=lambda b: order[b])

    detach_entries: Set[BasicBlock] = set()
    for block in function.blocks:
        term = block.terminator
        if isinstance(term, Detach):
            detach_entries.add(term.detached)

    index = _value_index(function)
    shared = 0
    # Explicit stack: (block, inherited-table).  Tables are shared down
    # the tree by copy-on-entry, which is fine at these CFG sizes.
    stack: List[Tuple[BasicBlock, Dict[tuple, Instruction]]] = [
        (function.entry, {})]
    while stack:
        block, inherited = stack.pop()
        table = {} if block in detach_entries else dict(inherited)
        for inst in list(block.body()):
            if not isinstance(inst, _PURE):
                continue
            key = _cse_key(inst, index)
            if key is None:
                continue
            original = table.get(key)
            if original is None:
                table[key] = inst
                continue
            _replace_everywhere(function, inst, original)
            block.instructions.remove(inst)
            shared += 1
        for child in reversed(children[block]):
            stack.append((child, table))
    return shared


def optimize_function(function: Function) -> Dict[str, int]:
    """Run the full pipeline to a fixpoint; returns per-pass counts."""
    totals = {"folded": 0, "cse": 0, "gvn": 0, "dce": 0}
    while True:
        folded = constant_fold(function)
        cse = common_subexpression_elimination(function)
        gvn = global_value_numbering(function)
        dce = eliminate_dead_code(function)
        totals["folded"] += folded
        totals["cse"] += cse
        totals["gvn"] += gvn
        totals["dce"] += dce
        if folded + cse + gvn + dce == 0:
            return totals


def optimize_module(module: Module) -> Dict[str, int]:
    """Optimise every function; returns summed per-pass counts."""
    totals = {"folded": 0, "cse": 0, "gvn": 0, "dce": 0}
    for function in module.functions:
        counts = optimize_function(function)
        for key in totals:
            totals[key] += counts[key]
    return totals
