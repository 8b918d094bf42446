"""Interprocedural value-range analysis and minimal-bitwidth inference.

TAPAS emits a uniform-width datapath per operation; real HLS flows narrow
datapaths and channels to the widths the program can actually produce
(TAPA / Chi et al. make the same move for task-parallel HLS).  This module
infers, for every integer IR value and every register/frame cell, a sound
interval of the values it can take at runtime, and from that a minimal
bitwidth.  The results feed

* the width-aware resource/power models (:mod:`repro.reports.resources`),
* the ``TAP-WIDTH-*`` lint rules (:mod:`repro.analysis.lint`), and
* the dynamic cross-validator that asserts every simulated value stays
  inside its static interval (:mod:`repro.analysis.dynamic`).

Design: a classic flow-sensitive interval analysis per function CFG with
per-bound widening at natural-loop headers, a few narrowing passes, branch
refinement on ``condbr``/``icmp`` edges, and a constant-trip-count
accumulator refinement that bounds ``s = s + delta`` reductions.  The
interprocedural layer iterates function summaries (argument joins over
spawn/call sites, return ranges, frame-cell contents) to a fixpoint with
the same widening operator.  Soundness contract: for every *completing*
execution, every dynamically produced integer value of an instruction lies
inside ``range_of(inst)``; the exact two's-complement semantics being
over-approximated are those of :mod:`repro.ir.opsem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Call,
    Cast,
    CondBr,
    Detach,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Ret,
    Select,
    Store,
)
from repro.ir.types import IntType
from repro.ir.values import Argument, Constant, Value
from repro.passes.cfg import predecessor_map, reverse_post_order
from repro.passes.loops import find_loops

#: joins at a loop header before the widening operator kicks in
WIDEN_AFTER = 3
#: decreasing (narrowing) passes run after the widened fixpoint
NARROW_PASSES = 3
#: rounds of the interprocedural summary fixpoint before forced widening
SUMMARY_ROUNDS = 8


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (both bounds inclusive)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def widen(self, new: "Interval", full: "Interval") -> "Interval":
        """Per-bound widening: only an unstable bound jumps to the type
        extreme, so stable bounds survive (and narrowing recovers the
        rest)."""
        lo = self.lo if new.lo >= self.lo else full.lo
        hi = self.hi if new.hi <= self.hi else full.hi
        return Interval(lo, hi)

    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def full_range(type_) -> Optional[Interval]:
    """The type's whole value set, or None for non-integer types."""
    if isinstance(type_, IntType):
        return Interval(type_.min_value, type_.max_value)
    return None


def bits_for(interval: Interval) -> int:
    """Minimal datapath width for the interval: unsigned when the interval
    is non-negative, two's-complement signed otherwise."""
    if interval.lo >= 0:
        return max(1, interval.hi.bit_length())
    return 1 + max((-interval.lo - 1).bit_length(), max(interval.hi, 0).bit_length())


# ---------------------------------------------------------------------------
# Transfer functions (must over-approximate repro.ir.opsem exactly)
# ---------------------------------------------------------------------------

def _fits(lo: int, hi: int, full: Interval) -> Optional[Interval]:
    """Candidate bounds survive only if no wrap can occur."""
    if full.lo <= lo and hi <= full.hi:
        return Interval(lo, hi)
    return full


def _tdiv(a: int, b: int) -> int:
    """Truncating (toward-zero) division, matching opsem's sdiv."""
    return abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)


def transfer_binop(op: str, a: Interval, b: Interval, type_: IntType) -> Interval:
    full = Interval(type_.min_value, type_.max_value)
    bits = type_.bits
    if op == "add":
        return _fits(a.lo + b.lo, a.hi + b.hi, full)
    if op == "sub":
        return _fits(a.lo - b.hi, a.hi - b.lo, full)
    if op == "mul":
        corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return _fits(min(corners), max(corners), full)
    if op == "sdiv":
        # Divisor 0 traps (SimulationError), so completing runs never see it.
        divisors = {d for d in (b.lo, b.hi, -1, 1)
                    if d != 0 and b.lo <= d <= b.hi}
        if not divisors:
            return full
        corners = [_tdiv(x, d) for x in (a.lo, a.hi) for d in divisors]
        if a.lo <= type_.min_value and -1 in divisors:
            corners.append(type_.min_value)  # INT_MIN / -1 wraps to INT_MIN
        return _fits(min(corners), max(corners), full)
    if op == "srem":
        m = max(abs(b.lo), abs(b.hi))
        if m == 0:
            return full
        lo = 0 if a.lo >= 0 else max(a.lo, -(m - 1))
        hi = 0 if a.hi <= 0 else min(a.hi, m - 1)
        return Interval(lo, hi)
    if op == "and":
        if a.lo >= 0 and b.lo >= 0:
            return Interval(0, min(a.hi, b.hi))
        if a.lo >= 0:
            return Interval(0, a.hi)
        if b.lo >= 0:
            return Interval(0, b.hi)
        return full
    if op in ("or", "xor"):
        if a.lo >= 0 and b.lo >= 0:
            top = max(a.hi, b.hi)
            ceiling = (1 << top.bit_length()) - 1
            lo = max(a.lo, b.lo) if op == "or" else 0
            return _fits(lo, ceiling, full)
        return full
    if op == "shl":
        if 0 <= b.lo and b.hi <= bits - 1:
            corners = [a.lo << b.lo, a.lo << b.hi, a.hi << b.lo, a.hi << b.hi]
            return _fits(min(corners), max(corners), full)
        return full  # shift amount gets masked; bounds scramble
    if op == "ashr":
        if 0 <= b.lo and b.hi <= bits - 1:
            corners = [a.lo >> b.lo, a.lo >> b.hi, a.hi >> b.lo, a.hi >> b.hi]
            return Interval(min(corners), max(corners))
        return full
    if op == "lshr":
        if 0 <= b.lo and b.hi <= bits - 1:
            if a.lo >= 0:
                return Interval(a.lo >> b.hi, a.hi >> b.lo)
            if b.lo >= 1:
                return Interval(0, ((1 << bits) - 1) >> b.lo)
        return full
    if op == "smin":
        return Interval(min(a.lo, b.lo), min(a.hi, b.hi))
    if op == "smax":
        return Interval(max(a.lo, b.lo), max(a.hi, b.hi))
    return full


def transfer_icmp(predicate: str, a: Optional[Interval],
                  b: Optional[Interval]) -> Interval:
    """icmp result: [0, 1], pinned when the ranges decide the comparison."""
    if a is None or b is None:
        return Interval(0, 1)
    decided = {
        "eq": (1, 1) if a.is_singleton() and a == b else
              ((0, 0) if a.meet(b) is None else None),
        "ne": (0, 0) if a.is_singleton() and a == b else
              ((1, 1) if a.meet(b) is None else None),
        "slt": (1, 1) if a.hi < b.lo else ((0, 0) if a.lo >= b.hi else None),
        "sle": (1, 1) if a.hi <= b.lo else ((0, 0) if a.lo > b.hi else None),
        "sgt": (1, 1) if a.lo > b.hi else ((0, 0) if a.hi <= b.lo else None),
        "sge": (1, 1) if a.lo >= b.hi else ((0, 0) if a.hi < b.lo else None),
    }.get(predicate)
    if decided is None:
        return Interval(0, 1)
    return Interval(*decided)


def transfer_cast(kind: str, value: Optional[Interval], src_type,
                  to_type) -> Optional[Interval]:
    full = full_range(to_type)
    if full is None:
        return None  # sitofp / bitcast-to-float: not an integer result
    if kind == "fptosi" or value is None:
        return full
    if kind == "bitcast":
        if isinstance(src_type, IntType) and src_type.bits == to_type.bits:
            return value
        return full
    # opsem's table wraps trunc/sext/zext uniformly to the target width:
    # widening casts preserve the signed value (including "zext"), and
    # trunc keeps it when it already fits.
    if full.lo <= value.lo and value.hi <= full.hi:
        return value
    return full


_NEGATE = {"eq": "ne", "ne": "eq", "slt": "sge", "sge": "slt",
           "sle": "sgt", "sgt": "sle"}


def _at_most(interval: Interval, bound: int) -> Optional[Interval]:
    if interval.lo > bound:
        return None
    return Interval(interval.lo, min(interval.hi, bound))


def _at_least(interval: Interval, bound: int) -> Optional[Interval]:
    if interval.hi < bound:
        return None
    return Interval(max(interval.lo, bound), interval.hi)


def refine_by_predicate(predicate: str, a: Interval,
                        b: Interval) -> Tuple[Optional[Interval], Optional[Interval]]:
    """Refined (a, b) assuming ``a <predicate> b`` holds; None = infeasible."""
    if predicate == "eq":
        met = a.meet(b)
        return met, met
    if predicate == "ne":
        return a, b  # intervals cannot represent a hole
    if predicate == "slt":
        return _at_most(a, b.hi - 1), _at_least(b, a.lo + 1)
    if predicate == "sle":
        return _at_most(a, b.hi), _at_least(b, a.lo)
    if predicate == "sgt":
        return _at_least(a, b.lo + 1), _at_most(b, a.hi - 1)
    if predicate == "sge":
        return _at_least(a, b.lo), _at_most(b, a.hi)
    return a, b


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class ModuleRanges:
    """Inferred intervals for one module, plus per-cell/channel widths.

    ``value_ranges`` maps every integer-typed instruction/argument to a
    sound interval; ``cell_ranges`` maps register and frame allocas to the
    interval of values the cell can ever hold.
    """

    module: object
    entry: Optional[str] = None
    value_ranges: Dict[Value, Interval] = field(default_factory=dict)
    cell_ranges: Dict[Alloca, Interval] = field(default_factory=dict)
    arg_ranges: Dict[Function, List[Optional[Interval]]] = field(default_factory=dict)
    ret_ranges: Dict[Function, Optional[Interval]] = field(default_factory=dict)

    def range_of(self, value: Value) -> Optional[Interval]:
        """Sound interval for ``value``, or None for non-integer values."""
        if isinstance(value, Constant):
            if isinstance(value.type, IntType):
                return Interval(value.value, value.value)
            return None
        found = self.value_ranges.get(value)
        if found is not None:
            return found
        return full_range(value.type)

    def bits_of(self, value: Value) -> Optional[int]:
        interval = self.range_of(value)
        return None if interval is None else bits_for(interval)

    def cell_bits(self, alloca: Alloca) -> Optional[int]:
        interval = self.cell_ranges.get(alloca)
        return None if interval is None else bits_for(interval)

    def channel_bits(self, task) -> List[int]:
        """Minimal payload width, in bits, of each spawn-channel argument
        of ``task`` (declared type width when nothing narrower is known)."""
        widths = []
        for value in task.args:
            inferred = self.bits_of(value)
            declared = value.type.size_bytes * 8
            widths.append(min(inferred, declared) if inferred else declared)
        return widths


# ---------------------------------------------------------------------------
# Per-function flow-sensitive analysis
# ---------------------------------------------------------------------------

class _FunctionAnalysis:
    """One function's interval fixpoint, parameterised by summaries."""

    def __init__(self, function: Function, summaries: "_Summaries"):
        self.fn = function
        self.summaries = summaries
        self.rpo = reverse_post_order(function)
        self.preds = predecessor_map(function)
        self.headers = {loop.header for loop in find_loops(function)}
        self.loops = find_loops(function)
        self.register_cells = self._find_register_cells()
        self.env: Dict[Value, Interval] = {}
        #: block -> facts at entry (cells + SSA refinements)
        self.in_facts: Dict[object, Dict[object, Interval]] = {}
        #: (pred, succ) -> facts propagated along that edge
        self.edge_facts: Dict[Tuple[object, object], Dict[object, Interval]] = {}
        self._join_counts: Dict[object, int] = {}
        #: (loop, cell, bound) accumulator clamps from the trip refinement
        self._acc_clamps: List[tuple] = []

    def _find_register_cells(self) -> Set[Alloca]:
        cells = set()
        for inst in self.fn.instructions():
            if isinstance(inst, Alloca) and not inst.in_frame:
                if isinstance(inst.allocated_type, IntType):
                    cells.add(inst)
        return cells

    # -- operand evaluation --------------------------------------------------

    def _operand(self, value: Value, facts: Dict[object, Interval]) -> Optional[Interval]:
        if isinstance(value, Constant):
            if isinstance(value.type, IntType):
                return Interval(value.value, value.value)
            return None
        base = None
        if isinstance(value, Argument):
            args = self.summaries.arg_ranges.get(self.fn)
            if args is not None and value.index < len(args):
                base = args[value.index]
            if base is None:
                base = full_range(value.type)
        else:
            base = self.env.get(value, full_range(value.type))
        if base is None:
            return None
        refined = facts.get(value)
        if refined is not None:
            met = base.meet(refined)
            return met if met is not None else refined
        return base

    # -- block transfer ------------------------------------------------------

    def _transfer(self, block, facts: Dict[object, Interval]):
        """Run the block; returns per-successor out-facts.  ``facts`` is
        mutated as stores update cells; SSA results land in ``self.env``."""
        facts = dict(facts)
        #: cell -> index of last Store to it in this block (branch-refine guard)
        last_store_pos: Dict[Alloca, int] = {}
        load_pos: Dict[Instruction, int] = {}

        for pos, inst in enumerate(block.instructions):
            if isinstance(inst, BinaryOp):
                if isinstance(inst.type, IntType):
                    a = self._operand(inst.lhs, facts)
                    b = self._operand(inst.rhs, facts)
                    if a is None or b is None:
                        result = full_range(inst.type)
                    else:
                        result = transfer_binop(inst.op, a, b, inst.type)
                    self.env[inst] = result
            elif isinstance(inst, ICmp):
                self.env[inst] = transfer_icmp(
                    inst.predicate,
                    self._operand(inst.lhs, facts),
                    self._operand(inst.rhs, facts))
            elif isinstance(inst, FCmp):
                self.env[inst] = Interval(0, 1)
            elif isinstance(inst, Select):
                if isinstance(inst.type, IntType):
                    cond = self._operand(inst.operands[0], facts)
                    t = self._operand(inst.operands[1], facts)
                    f = self._operand(inst.operands[2], facts)
                    if cond == Interval(1, 1):
                        result = t
                    elif cond == Interval(0, 0):
                        result = f
                    else:
                        result = t.join(f) if t and f else None
                    self.env[inst] = result or full_range(inst.type)
            elif isinstance(inst, Cast):
                result = transfer_cast(
                    inst.kind, self._operand(inst.operands[0], facts),
                    inst.operands[0].type, inst.type)
                if result is not None:
                    self.env[inst] = result
            elif isinstance(inst, Load):
                if isinstance(inst.type, IntType):
                    self.env[inst] = self._load_range(inst, facts)
                    load_pos[inst] = pos
            elif isinstance(inst, Store):
                self._store(inst, facts)
                ptr = inst.pointer
                if isinstance(ptr, Alloca):
                    last_store_pos[ptr] = pos
            elif isinstance(inst, Call):
                if isinstance(inst.type, IntType):
                    ret = self.summaries.ret_ranges.get(inst.callee)
                    self.env[inst] = ret or full_range(inst.type)

        return self._successor_facts(block, facts, last_store_pos, load_pos)

    def _load_range(self, inst: Load, facts) -> Interval:
        ptr = inst.pointer
        if isinstance(ptr, Alloca):
            if ptr in self.register_cells:
                cell = facts.get(ptr, Interval(0, 0))
                return cell
            interval = self.summaries.frame_cells.get(ptr)
            if interval is not None:
                return interval
        # real memory (arrays, globals): contents unknown, bounded by type
        return full_range(inst.type)

    def _store(self, inst: Store, facts):
        ptr = inst.pointer
        if isinstance(ptr, Alloca) and ptr in self.register_cells:
            stored = self._operand(inst.value, facts)
            if stored is None:
                stored = full_range(ptr.allocated_type)
            facts[ptr] = stored

    def _successor_facts(self, block, facts, last_store_pos, load_pos):
        term = block.terminator
        outs = {}
        if term is None:
            return outs

        if isinstance(term, CondBr) and isinstance(term.cond, ICmp):
            cmp_ = term.cond
            for succ, assume_true in ((term.if_true, True), (term.if_false, False)):
                branch = dict(facts)
                pred = cmp_.predicate if assume_true else _NEGATE[cmp_.predicate]
                a = self._operand(cmp_.lhs, facts)
                b = self._operand(cmp_.rhs, facts)
                if a is not None and b is not None:
                    ra, rb = refine_by_predicate(pred, a, b)
                    self._apply_refinement(branch, cmp_.lhs, ra, last_store_pos, load_pos)
                    self._apply_refinement(branch, cmp_.rhs, rb, last_store_pos, load_pos)
                # both-successors-same guard: join rather than overwrite
                if succ in outs:
                    outs[succ] = self._join_facts(outs[succ], branch)
                else:
                    outs[succ] = branch
            return outs

        for succ in term.successors():
            out = dict(facts)
            if isinstance(term, Detach) and succ is term.detached:
                # the detached region runs in its own task unit: register
                # cells it never wrote read as 0 there, so weaken to cover
                # both the inherited and the fresh-zero state.
                for key in list(out):
                    if isinstance(key, Alloca):
                        out[key] = out[key].join(Interval(0, 0))
            if succ in outs:
                outs[succ] = self._join_facts(outs[succ], out)
            else:
                outs[succ] = out
        return outs

    def _apply_refinement(self, branch, operand, refined, last_store_pos, load_pos):
        if refined is None or isinstance(operand, Constant):
            return
        current = branch.get(operand)
        branch[operand] = refined if current is None else (
            current.meet(refined) or refined)
        # Propagate to the register cell when the compared value is a load
        # of that cell in this same block with no intervening store.
        if isinstance(operand, Load):
            ptr = operand.pointer
            if (isinstance(ptr, Alloca) and ptr in self.register_cells
                    and operand in load_pos
                    and last_store_pos.get(ptr, -1) < load_pos[operand]):
                cell = branch.get(ptr, Interval(0, 0))
                branch[ptr] = cell.meet(refined) or refined

    @staticmethod
    def _join_facts(a: Dict[object, Interval], b: Dict[object, Interval]):
        """Pointwise join; a key missing on either side is dropped unless it
        is a cell (cells default to [0,0] only at function entry, so a
        missing cell here means 'unknown' and must widen to the join of
        what we have — dropping it is the sound default for SSA
        refinements, full type range is recovered lazily for cells)."""
        out = {}
        for key in a.keys() & b.keys():
            out[key] = a[key].join(b[key])
        for key in (a.keys() ^ b.keys()):
            if isinstance(key, Alloca):
                # one path never constrained the cell: fall back to type range
                source = a.get(key, b.get(key))
                cell_full = full_range(key.allocated_type)
                out[key] = source.join(cell_full) if cell_full else source
        return out

    # -- fixpoint ------------------------------------------------------------

    def run(self):
        entry_facts = {cell: Interval(0, 0) for cell in self.register_cells}
        self.in_facts = {self.fn.entry: entry_facts}
        worklist = list(self.rpo)
        visits = 0
        cap = max(200, 40 * len(self.rpo))
        while worklist:
            block = worklist.pop(0)
            facts = self.in_facts.get(block)
            if facts is None:
                continue
            visits += 1
            outs = self._transfer(block, facts)
            for succ, out in outs.items():
                self.edge_facts[(block, succ)] = out
                old = self.in_facts.get(succ)
                if old is None:
                    new = out
                else:
                    new = self._join_facts(old, out)
                    if succ in self.headers or visits > cap:
                        count = self._join_counts.get(succ, 0) + 1
                        self._join_counts[succ] = count
                        if count >= WIDEN_AFTER:
                            new = self._widen_facts(old, new)
                if new != old:
                    self.in_facts[succ] = new
                    if succ not in worklist:
                        worklist.append(succ)
        # narrowing: decreasing re-evaluation from the widened fixpoint
        for _ in range(NARROW_PASSES):
            changed = False
            for block in self.rpo:
                outs = self._transfer(block, self.in_facts.get(block, {}))
                for succ, out in outs.items():
                    self.edge_facts[(block, succ)] = out
            for block in self.rpo:
                if block is self.fn.entry:
                    continue
                incoming = [self.edge_facts[(p, block)]
                            for p in self.preds.get(block, [])
                            if (p, block) in self.edge_facts]
                if not incoming:
                    continue
                joined = incoming[0]
                for other in incoming[1:]:
                    joined = self._join_facts(joined, other)
                if joined != self.in_facts.get(block):
                    self.in_facts[block] = joined
                    changed = True
            if not changed:
                break
        # final clean pass so env reflects the converged facts
        for block in self.rpo:
            outs = self._transfer(block, self.in_facts.get(block, {}))
            for succ, out in outs.items():
                self.edge_facts[(block, succ)] = out
        self._refine_accumulators()
        if self._acc_clamps:
            # one more pass so downstream blocks (e.g. the post-loop return)
            # see the clamped cell ranges, then re-pin the in-loop values
            for block in self.rpo:
                outs = self._transfer(block, self.in_facts.get(block, {}))
                for succ, out in outs.items():
                    self.edge_facts[(block, succ)] = out
            for loop, cell, bound in self._acc_clamps:
                self._clamp_cell(loop, cell, bound)

    @staticmethod
    def _widen_facts(old, new):
        out = {}
        for key in old.keys() & new.keys():
            type_ = key.allocated_type if isinstance(key, Alloca) else key.type
            full = full_range(type_)
            out[key] = old[key].widen(new[key], full) if full else new[key]
        for key in (old.keys() ^ new.keys()):
            if isinstance(key, Alloca):
                full = full_range(key.allocated_type)
                if full:
                    out[key] = full
        return out

    # -- constant-trip accumulator refinement --------------------------------

    def _refine_accumulators(self):
        """Bound ``s = s +/- delta`` reductions in constant-trip loops:
        the widened fixpoint sends such accumulators to the type extreme,
        but ``T`` trips of a delta in ``[dlo, dhi]`` keep them inside
        ``s_entry + T * [min(0, dlo), max(0, dhi)]``."""
        for loop in self.loops:
            trip = self._trip_bound(loop)
            if trip is None:
                continue
            induction_cell, trips = trip
            for cell in self.register_cells:
                if cell is induction_cell:
                    continue
                bound = self._accumulator_bound(loop, cell, trips)
                if bound is None:
                    continue
                self._acc_clamps.append((loop, cell, bound))
                self._clamp_cell(loop, cell, bound)

    def _loop_entry_facts(self, loop):
        incoming = []
        for pred in self.preds.get(loop.header, []):
            if pred in loop.blocks:
                continue
            facts = self.edge_facts.get((pred, loop.header))
            if facts is not None:
                incoming.append(facts)
        if loop.header is self.fn.entry:
            incoming.append({cell: Interval(0, 0) for cell in self.register_cells})
        if not incoming:
            return None
        joined = incoming[0]
        for other in incoming[1:]:
            joined = self._join_facts(joined, other)
        return joined

    def _trip_bound(self, loop) -> Optional[Tuple[Alloca, int]]:
        """(induction cell, max trips) for ``while (i <lt/le> K)`` loops
        whose only in-loop updates are ``i = i + positive-const``."""
        term = loop.header.terminator
        if not isinstance(term, CondBr) or not isinstance(term.cond, ICmp):
            return None
        cmp_ = term.cond
        if cmp_.predicate not in ("slt", "sle"):
            return None
        if not isinstance(cmp_.lhs, Load) or not isinstance(cmp_.rhs, Constant):
            return None
        cell = cmp_.lhs.pointer
        if not isinstance(cell, Alloca) or cell not in self.register_cells:
            return None
        if cmp_.lhs.parent is not loop.header or term.if_true in (None,):
            return None
        if term.if_true not in loop.blocks:
            return None  # loop continues on the false edge: unusual, skip
        limit = cmp_.rhs.value + (1 if cmp_.predicate == "sle" else 0)
        step = None
        for block in loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, Store) and inst.pointer is cell:
                    s = self._step_of(inst.value, cell)
                    if s is None or s <= 0 or (step is not None and s != step):
                        return None
                    step = s
        if step is None:
            return None
        entry = self._loop_entry_facts(loop)
        if entry is None:
            return None
        start = entry.get(cell, Interval(0, 0))
        trips = max(0, -(-(limit - start.lo) // step))  # ceil division
        return cell, trips

    @staticmethod
    def _step_of(value: Value, cell: Alloca) -> Optional[int]:
        """``value`` is ``load cell + const`` -> the constant, else None."""
        if not isinstance(value, BinaryOp) or value.op != "add":
            return None
        lhs, rhs = value.lhs, value.rhs
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if (isinstance(a, Load) and a.pointer is cell
                    and isinstance(b, Constant)):
                return b.value
        return None

    def _accumulator_bound(self, loop, cell: Alloca, trips: int) -> Optional[Interval]:
        deltas = []
        stores = []
        for block in loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, Store) and inst.pointer is cell:
                    stores.append(inst)
        if not stores:
            return None
        for store in stores:
            value = store.value
            if not isinstance(value, BinaryOp) or value.op not in ("add", "sub"):
                return None
            lhs, rhs = value.lhs, value.rhs
            if isinstance(lhs, Load) and lhs.pointer is cell:
                delta = rhs
            elif (value.op == "add" and isinstance(rhs, Load)
                  and rhs.pointer is cell):
                delta = lhs
            else:
                return None
            if self._depends_on_cell(delta, cell):
                return None
            drange = self.env.get(delta) if isinstance(delta, Instruction) else (
                Interval(delta.value, delta.value)
                if isinstance(delta, Constant) and isinstance(delta.type, IntType)
                else None)
            if drange is None:
                return None
            if value.op == "sub":
                drange = Interval(-drange.hi, -drange.lo)
            deltas.append(drange)
        entry = self._loop_entry_facts(loop)
        if entry is None:
            return None
        start = entry.get(cell, Interval(0, 0))
        dlo = min(d.lo for d in deltas)
        dhi = max(d.hi for d in deltas)
        lo = start.lo + trips * min(0, dlo)
        hi = start.hi + trips * max(0, dhi)
        full = full_range(cell.allocated_type)
        if full is None or lo < full.lo or hi > full.hi:
            return None  # could genuinely wrap: keep the widened range
        return Interval(lo, hi)

    def _depends_on_cell(self, value: Value, cell: Alloca, depth: int = 0) -> bool:
        if depth > 16:
            return True  # conservatively assume dependence
        if isinstance(value, Load) and value.pointer is cell:
            return True
        if isinstance(value, Instruction):
            return any(self._depends_on_cell(op, cell, depth + 1)
                       for op in value.operands)
        return False

    def _clamp_cell(self, loop, cell: Alloca, bound: Interval):
        """Meet the cell, in-loop loads of it, and the accumulating stores'
        values with ``bound`` (all stay within it for any <=T trips)."""
        for block in loop.blocks:
            for inst in block.instructions:
                if isinstance(inst, Load) and inst.pointer is cell:
                    old = self.env.get(inst)
                    if old is not None:
                        self.env[inst] = old.meet(bound) or bound
                elif isinstance(inst, Store) and inst.pointer is cell:
                    value = inst.value
                    if isinstance(value, Instruction):
                        old = self.env.get(value)
                        if old is not None:
                            self.env[value] = old.meet(bound) or bound
        for facts in list(self.in_facts.values()) + list(self.edge_facts.values()):
            old = facts.get(cell)
            if old is not None:
                facts[cell] = old.meet(bound) or bound

    # -- summary extraction ---------------------------------------------------

    def cell_summary(self) -> Dict[Alloca, Interval]:
        """Join of every value each register cell can hold."""
        out: Dict[Alloca, Interval] = {}
        for cell in self.register_cells:
            joined = Interval(0, 0)  # initial contents
            for facts in self.edge_facts.values():
                held = facts.get(cell)
                if held is not None:
                    joined = joined.join(held)
            for facts in self.in_facts.values():
                held = facts.get(cell)
                if held is not None:
                    joined = joined.join(held)
            out[cell] = joined
        return out

    def ret_summary(self) -> Optional[Interval]:
        if not isinstance(self.fn.return_type, IntType):
            return None
        joined = None
        for block in self.fn.blocks:
            term = block.terminator
            if isinstance(term, Ret) and term.value is not None:
                facts = self.in_facts.get(block)
                if facts is None:
                    continue  # unreachable return
                interval = self._operand(term.value, dict(facts))
                if interval is None:
                    return full_range(self.fn.return_type)
                joined = interval if joined is None else joined.join(interval)
        return joined if joined is not None else full_range(self.fn.return_type)


# ---------------------------------------------------------------------------
# Interprocedural driver
# ---------------------------------------------------------------------------

class _Summaries:
    def __init__(self):
        self.arg_ranges: Dict[Function, List[Optional[Interval]]] = {}
        self.ret_ranges: Dict[Function, Optional[Interval]] = {}
        self.frame_cells: Dict[Alloca, Interval] = {}


def _frame_cell_escapes(alloca: Alloca, function: Function) -> bool:
    """True unless every use of the frame cell is a direct load or store
    address (the direct-spawn return path stores through it directly, so
    it stays non-escaping)."""
    for inst in function.instructions():
        for op in inst.operands:
            if op is not alloca:
                continue
            if isinstance(inst, Load) and inst.pointer is alloca:
                continue
            if isinstance(inst, Store) and inst.pointer is alloca and inst.value is not alloca:
                continue
            return True
    return False


def infer_module_ranges(module, design=None, entry: Optional[str] = None) -> ModuleRanges:
    """Infer sound intervals for every integer value in ``module``.

    ``entry`` names the only host-invocable function: its arguments are
    unconstrained, while every other function's arguments are the join of
    its spawn/call-site argument ranges.  With ``entry=None`` (the build
    gate, where any function may be offloaded) all function arguments are
    unconstrained.  ``design`` (a GeneratedDesign) supplies direct-spawn
    return-pointer wiring for frame-cell ranges.
    """
    summaries = _Summaries()
    entry_fn = None
    if entry is not None:
        for function in module.functions:
            if function.name == entry:
                entry_fn = function
    for function in module.functions:
        if entry_fn is None or function is entry_fn:
            summaries.arg_ranges[function] = [
                full_range(a.type) for a in function.arguments]
        else:
            summaries.arg_ranges[function] = [None] * len(function.arguments)

    analyses: Dict[Function, _FunctionAnalysis] = {}
    prev_state = None
    for round_no in range(SUMMARY_ROUNDS + 2):
        analyses = {}
        for function in module.functions:
            analysis = _FunctionAnalysis(function, summaries)
            analysis.run()
            analyses[function] = analysis
        # recompute summaries from this round's results
        new_rets: Dict[Function, Optional[Interval]] = {}
        for function, analysis in analyses.items():
            new_rets[function] = analysis.ret_summary()
        new_args: Dict[Function, List[Optional[Interval]]] = {}
        for function in module.functions:
            if entry_fn is None or function is entry_fn:
                new_args[function] = [full_range(a.type) for a in function.arguments]
            else:
                new_args[function] = [None] * len(function.arguments)
        if entry_fn is not None:
            for function, analysis in analyses.items():
                for inst in function.instructions():
                    callee = None
                    args = ()
                    if isinstance(inst, Call):
                        callee, args = inst.callee, inst.args
                    if callee is None or callee is entry_fn:
                        continue
                    self_args = new_args[callee]
                    for i, arg in enumerate(args):
                        interval = analysis.env.get(arg) if isinstance(arg, Instruction) \
                            else analysis._operand(arg, {})
                        if interval is None:
                            interval = full_range(arg.type)
                        if interval is None:
                            continue
                        current = self_args[i]
                        self_args[i] = interval if current is None else current.join(interval)
                if design is not None:
                    for task in design.graph.tasks:
                        if task.function is not function:
                            continue
                        for spawn in task.direct_spawns.values():
                            if spawn.callee is entry_fn:
                                continue
                            self_args = new_args[spawn.callee]
                            for i, arg in enumerate(spawn.args):
                                interval = analysis.env.get(arg) \
                                    if isinstance(arg, Instruction) \
                                    else analysis._operand(arg, {})
                                if interval is None:
                                    interval = full_range(arg.type)
                                if interval is None:
                                    continue
                                current = self_args[i]
                                self_args[i] = interval if current is None \
                                    else current.join(interval)
            # a function nobody calls keeps None args; treat as unreachable
            # but analyse with full ranges for reporting
            for function in module.functions:
                new_args[function] = [
                    (a if a is not None else full_range(arg.type))
                    for a, arg in zip(new_args[function], function.arguments)]
        # frame cells: direct stores + spawn returns
        new_frames: Dict[Alloca, Interval] = {}
        spawn_writers: Dict[Alloca, List[Function]] = {}
        if design is not None:
            for task in design.graph.tasks:
                for spawn in task.direct_spawns.values():
                    if isinstance(spawn.ret_ptr, Alloca):
                        spawn_writers.setdefault(spawn.ret_ptr, []).append(spawn.callee)
        for function, analysis in analyses.items():
            for inst in function.instructions():
                if not isinstance(inst, Alloca) or not inst.in_frame:
                    continue
                if not isinstance(inst.allocated_type, IntType):
                    continue
                full = full_range(inst.allocated_type)
                if _frame_cell_escapes(inst, function):
                    new_frames[inst] = full
                    continue
                joined = Interval(0, 0)
                for user in function.instructions():
                    if isinstance(user, Store) and user.pointer is inst:
                        stored = analysis.env.get(user.value) \
                            if isinstance(user.value, Instruction) \
                            else analysis._operand(user.value, {})
                        joined = joined.join(stored if stored else full)
                for callee in spawn_writers.get(inst, []):
                    ret = new_rets.get(callee)
                    joined = joined.join(ret if ret else full)
                new_frames[inst] = joined

        state = (
            {f.name: r for f, r in new_rets.items()},
            {f.name: list(map(repr, a)) for f, a in new_args.items()},
            {id(k): repr(v) for k, v in new_frames.items()},
        )
        converged = state == prev_state
        if round_no >= SUMMARY_ROUNDS and not converged:
            # force-widen unstable summaries so the loop terminates soundly
            for function in module.functions:
                old = summaries.ret_ranges.get(function)
                if old != new_rets.get(function):
                    new_rets[function] = full_range(function.return_type)
                old_args = summaries.arg_ranges.get(function, [])
                for i, arg in enumerate(function.arguments):
                    if i < len(old_args) and old_args[i] != new_args[function][i]:
                        new_args[function][i] = full_range(arg.type)
            for cell, interval in list(new_frames.items()):
                if summaries.frame_cells.get(cell) != interval:
                    new_frames[cell] = full_range(cell.allocated_type)
            summaries.ret_ranges = new_rets
            summaries.arg_ranges = new_args
            summaries.frame_cells = new_frames
            # one last round under the widened summaries
            analyses = {}
            for function in module.functions:
                analysis = _FunctionAnalysis(function, summaries)
                analysis.run()
                analyses[function] = analysis
            break
        summaries.ret_ranges = new_rets
        summaries.arg_ranges = new_args
        summaries.frame_cells = new_frames
        if converged:
            break
        prev_state = state

    result = ModuleRanges(module=module, entry=entry)
    result.arg_ranges = dict(summaries.arg_ranges)
    result.ret_ranges = dict(summaries.ret_ranges)
    for function, analysis in analyses.items():
        for value, interval in analysis.env.items():
            if isinstance(value.type, IntType):
                result.value_ranges[value] = interval
        for arg, interval in zip(function.arguments,
                                 summaries.arg_ranges.get(function, [])):
            if interval is not None:
                result.value_ranges[arg] = interval
        result.cell_ranges.update(analysis.cell_summary())
    for cell, interval in summaries.frame_cells.items():
        result.cell_ranges[cell] = interval
    return result


def infer_design_ranges(design, entry: Optional[str] = None) -> ModuleRanges:
    """Range analysis for a :class:`~repro.accel.generator.GeneratedDesign`
    (post-optimisation module + task graph, i.e. exactly what the TXUs
    execute)."""
    return infer_module_ranges(design.module, design=design, entry=entry)
