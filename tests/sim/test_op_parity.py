"""Adversarial op parity over the ``repro.ir.opsem`` table.

Every table op runs as a one-op design (load the operands, apply the op,
store the result, return it) on edge operands: NaN, ±0.0, ±inf, INT_MIN,
INT_MAX, -1 and shift amounts at and beyond the type width. The dense,
event and compiled engines must agree on the stored bits, the return
value and the cycle count; the multicore CPU baseline (its own timing
model) must agree on the stored bits and the return value. Operations
that fault (a zero divisor, ``fptosi`` of a non-finite value) must raise
the same ``SimulationError`` at the same cycle everywhere.
"""

import struct

import pytest

from repro.accel import AcceleratorConfig, build_accelerator
from repro.baselines import MulticoreCPU
from repro.errors import SimulationError
from repro.ir import F32, I1, I8, I32, Function, IRBuilder, Module, ptr
from repro.ir.instructions import (
    CAST_KINDS,
    FCMP_PREDICATES,
    FLOAT_BINOPS,
    ICMP_PREDICATES,
    INT_BINOPS,
)
from repro.ir.opsem import eval_binop, eval_cast
from repro.memory.backing import MainMemory

NAN, INF = float("nan"), float("inf")
INT_MIN, INT_MAX = -(1 << 31), (1 << 31) - 1
INTS = (INT_MIN, INT_MAX, -1, 0, 1)
FLOATS = (NAN, 0.0, -0.0, INF, -INF, 1.5)
SHIFT_AMOUNTS = (0, 31, 32, 33, -1)
ENGINES = ("dense", "event", "compiled")
P32 = ptr(I32)
#: every op of the table, plus gep (rendered by opsem.render_gep)
TABLE_OPS = sorted(INT_BINOPS | FLOAT_BINOPS | ICMP_PREDICATES
                   | FCMP_PREDICATES | CAST_KINDS | {"select"}) + ["gep"]


def _pairs(values):
    return [(a, b) for a in values for b in values]


def _cases(op):
    """(operand types, result type, operand tuples) for one table op."""
    if op in ("sdiv", "srem"):
        return (I32, I32), I32, [p for p in _pairs(INTS) if p[1] != 0]
    if op in ("shl", "ashr", "lshr"):
        return (I32, I32), I32, [(a, s) for a in (INT_MIN, INT_MAX, -1, 1)
                                 for s in SHIFT_AMOUNTS]
    if op in INT_BINOPS:
        return (I32, I32), I32, _pairs(INTS)
    if op in FLOAT_BINOPS:
        return (F32, F32), F32, _pairs(FLOATS)
    if op in ICMP_PREDICATES:
        return (I32, I32), I1, _pairs(INTS)
    if op in FCMP_PREDICATES:
        return (F32, F32), I1, _pairs(FLOATS)
    return {
        "trunc": ((I32,), I8, [(v,) for v in INTS + (128, 255, -129)]),
        "sext": ((I8,), I32, [(v,) for v in (-128, 127, -1, 0)]),
        "zext": ((I1,), I32, [(0,), (1,)]),
        "sitofp": ((I32,), F32, [(v,) for v in INTS + ((1 << 25) + 1,)]),
        "fptosi": ((F32,), I32, [(v,) for v in (0.0, -0.0, 1.5, -1.5,
                                                 2.0 ** 31, -2.0 ** 31)]),
        "bitcast": ((P32,), ptr(I8), [(v,) for v in (64, 1 << 40)]),
        "select": ((I1, I32, I32), I32, [(c, INT_MIN, INT_MAX)
                                         for c in (0, 1)]),
        "gep": ((P32, I32), P32, [(4096, i) for i in INTS]),
    }[op]


def _probe_module(op, operand_types, result_type):
    """``probe(p0, .., q)``: load each operand from its pointer, apply
    ``op`` once, store the result through ``q`` and return it."""
    names = ["p%d" % k for k in range(len(operand_types))] + ["q"]
    function = Function("probe", [ptr(t) for t in operand_types]
                        + [ptr(result_type)], names, result_type)
    module = Module("probe_" + op)
    module.add_function(function)
    b = IRBuilder(function.add_block("entry"))
    *pointers, out = function.arguments
    vals = [b.load(p) for p in pointers]
    if op == "gep":
        r = b.gep(vals[0], [vals[1]], [4])
    elif op in INT_BINOPS or op in FLOAT_BINOPS:
        r = b.binop(op, *vals)
    elif op in ICMP_PREDICATES:
        r = b.icmp(op, *vals)
    elif op in FCMP_PREDICATES:
        r = b.fcmp(op, *vals)
    elif op in CAST_KINDS:
        r = b.cast(op, vals[0], result_type)
    else:
        r = b.select(*vals)
    b.store(r, out)
    b.ret(r)
    return module


def _bits(value):
    """Comparable identity of a value: floats by bit pattern (NaN == NaN,
    -0.0 != 0.0)."""
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value))
    return value


class _Probe:
    """One op under every engine and the CPU baseline, each with its
    operand and result slots allocated once and rewritten per case."""

    def __init__(self, op, operand_types, result_type):
        self.op = op
        self.types = operand_types + (result_type,)
        self.targets = {
            engine: build_accelerator(
                _probe_module(op, operand_types, result_type),
                AcceleratorConfig(default_ntiles=1, engine=engine))
            for engine in ENGINES}
        self.targets["cpu"] = MulticoreCPU(
            _probe_module(op, operand_types, result_type), MainMemory(1 << 16))
        self.slots = {name: [target.memory.alloc(8) for _ in self.types]
                      for name, target in self.targets.items()}

    def outcome(self, name, operands):
        """(stored bytes, return value, cycles) or ("raised", message,
        cycle); the CPU baseline reports no cycles (own timing model)."""
        target, slots = self.targets[name], self.slots[name]
        memory = target.memory
        for slot, type_, value in zip(slots, self.types, operands + (0,)):
            memory.write_value(slot, type_, value)
        sim = getattr(target, "sim", None)
        try:
            result = target.run("probe", slots)
        except SimulationError as exc:
            return "raised", str(exc), sim and sim.cycle
        if name == "compiled":  # the kernel itself ran, not a fallback
            assert sim.compiled_fallback is None, sim.compiled_fallback
        stored = memory.read_bytes(slots[-1], self.types[-1].size_bytes)
        return stored, _bits(result.retval), sim and result.cycles


def _assert_parity(probe, operands):
    """Run one case everywhere; returns the dense outcome."""
    dense = probe.outcome("dense", tuple(operands))
    for name in ENGINES[1:] + ("cpu",):
        outcome = probe.outcome(name, tuple(operands))
        width = 2 if name == "cpu" else 3
        assert outcome[:width] == dense[:width], (
            f"{probe.op}{tuple(operands)!r}: {name} {outcome!r} "
            f"vs dense {dense!r}")
    return dense


def test_cases_cover_the_table():
    from repro.ir.opsem import OPS

    assert sorted(OPS) + ["gep"] == TABLE_OPS


@pytest.mark.parametrize("op", TABLE_OPS)
def test_every_table_op_agrees_on_edge_operands(op):
    operand_types, result_type, cases = _cases(op)
    probe = _Probe(op, operand_types, result_type)
    for operands in cases:
        _assert_parity(probe, operands)


@pytest.mark.parametrize("op,a,b", [
    ("fmin", -0.0, 0.0),
    ("fmin", NAN, 1.0),
    ("fmax", 0.0, -0.0),
    ("fmax", NAN, 1.0),
])
def test_fmin_fmax_signed_zero_and_nan(op, a, b):
    """The engines once disagreed here: the reference rule keeps the
    first operand unless the second is strictly smaller (larger)."""
    stored, retval, _ = _assert_parity(_Probe(op, (F32, F32), F32), (a, b))
    assert stored == struct.pack("<f", a)
    assert retval == _bits(a)


@pytest.mark.parametrize("op,operand_types,result_type,operands,message", [
    ("sdiv", (I32, I32), I32, (7, 0), "integer division by zero"),
    ("srem", (I32, I32), I32, (INT_MIN, 0), "integer remainder by zero"),
    ("fptosi", (F32,), I32, (NAN,), "fptosi of a non-finite value"),
    ("fptosi", (F32,), I32, (INF,), "fptosi of a non-finite value"),
    ("fptosi", (F32,), I32, (-INF,), "fptosi of a non-finite value"),
])
def test_faulting_ops_raise_the_same_error(op, operand_types, result_type,
                                           operands, message):
    outcome = _assert_parity(_Probe(op, operand_types, result_type),
                             operands)
    assert outcome[:2] == ("raised", message)


def test_spec_decisions():
    """The table's documented choices (docs/language.md)."""
    assert struct.pack("<f", eval_binop("fdiv", F32, 1.0, -0.0)) \
        == struct.pack("<f", -INF)
    assert eval_binop("fdiv", F32, -1.0, -0.0) == INF
    assert eval_binop("fdiv", F32, 0.0, 0.0) != eval_binop(
        "fdiv", F32, 0.0, 0.0)  # NaN
    assert eval_cast("sitofp", (1 << 25) + 1, F32) == float(1 << 25)
    with pytest.raises(SimulationError, match="non-finite"):
        eval_cast("fptosi", NAN, I32)
