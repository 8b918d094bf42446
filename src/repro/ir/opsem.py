"""Functional semantics of IR operations: the one executable definition.

Every pure op (binops, ``icmp``/``fcmp``, casts, ``select``) is an entry
of :data:`OPS`, written as Python statement templates (``gep``'s address
sum is :func:`render_gep` for the kernel, :func:`eval_gep` otherwise). The
interpreter (:func:`eval_binop` and friends: TXU, CPU baseline, constant
folding, golden models) compiles each (op, type) once from that text and
the compiled engine inlines the same text into its kernels, so — as in
the paper's FPGA-vs-i7 comparison (§V) — every timing model runs one
semantics. Fields: ``{a}``/``{b}``/``{c}`` are operands already in the
entry's domain (``int(x)``, ``float(x)`` or raw), ``{t}`` the target,
``{sh}``/``{mask}`` are bits - 1 and 2**bits - 1 of an integer result,
``{smask}`` is 2**bits - 1 of a cast's integer source; a :data:`WRAP`
line wraps local ``r`` into ``{t}``. Templates may use only
their locals and the names of :data:`PRELUDE` and :data:`HELPERS`. The
spec decisions are listed in ``docs/language.md`` ("Operation semantics").
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.ir.instructions import (
    CAST_KINDS,
    FCMP_PREDICATES,
    FLOAT_BINOPS,
    ICMP_PREDICATES,
    INT_BINOPS,
)
from repro.ir.types import FloatType, IntType, PointerType, Type

#: the float constants the templates use; the compiled kernel emits these
#: lines verbatim, the interpreter executes them
PRELUDE = ('_INF = float("inf")', '_NINF = float("-inf")', '_NAN = float("nan")',
           # FLT_MAX plus half an ulp: the smallest magnitude f32 rounds to inf
           "_F32 = %r" % float(2 ** 128 - 2 ** 103), "_NF32 = -_F32")

#: the rest of the templates' namespace (the kernel binds these via ctx)
HELPERS = {"_pk": struct.pack, "_up": struct.unpack,
           "SimulationError": SimulationError}

#: marker line: two's-complement wrap of local ``r`` into ``{t}``
WRAP = "{wrap}"
WRAP_LINES = ("r &= {mask}", "if r >= {half}:", "    r -= {full}", "{t} = r")
WRAP_I1 = ("{t} = r & 1",)  # i1 keeps 0/1, as IntType.wrap does

#: round a double to single precision, as 32-bit hardware keeps it: a
#: finite value beyond f32 range becomes ±inf (IEEE-754), where
#: ``struct.pack`` would raise; ``{x}`` must be a local name
F32 = ('(_up("<f", _pk("<f", {x}))[0] if _NF32 < {x} < _F32 or {x} != {x}'
       ' else _INF if {x} > 0.0 else _NINF)')

_QUOT = "abs(ia) // abs(ib) * (1 if (ia >= 0) == (ib >= 0) else -1)"


def _int2(*body: str):
    return "int", ("ia = {a}", "ib = {b}") + body + (WRAP,)


def _flt2(*body: str):
    return "float", ("fa = {a}", "fb = {b}") + body + ("{t} = " + F32.format(x="r"),)


def _cmp(domain: str, relation: str):
    return domain, ("{t} = 1 if {a} %s {b} else 0" % relation,)


#: op name -> (operand domain, statement templates)
OPS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "add": _int2("r = ia + ib"),
    "sub": _int2("r = ia - ib"),
    "mul": _int2("r = ia * ib"),
    "and": _int2("r = ia & ib"),
    "or": _int2("r = ia | ib"),
    "xor": _int2("r = ia ^ ib"),
    "sdiv": _int2("if ib == 0:",
                  "    raise SimulationError('integer division by zero')",
                  "r = " + _QUOT),
    "srem": _int2("if ib == 0:",
                  "    raise SimulationError('integer remainder by zero')",
                  "r = ia - (%s) * ib" % _QUOT),
    "shl": _int2("r = ia << (ib & {sh})"),
    "ashr": _int2("r = ia >> (ib & {sh})"),
    "lshr": _int2("r = (ia & {mask}) >> (ib & {sh})"),
    "smin": _int2("r = ia if ia < ib else ib"),
    "smax": _int2("r = ia if ia > ib else ib"),
    "fadd": _flt2("r = fa + fb"),
    "fsub": _flt2("r = fa - fb"),
    "fmul": _flt2("r = fa * fb"),
    # x / ±0.0: NaN for a NaN or zero x, else inf signed sign(x) xor sign(0.0)
    "fdiv": _flt2("if fb != 0.0:",
                  "    r = fa / fb",
                  "elif fa != fa or fa == 0.0:",
                  "    r = _NAN",
                  "else:",
                  "    r = _INF if (fa > 0.0) == (_pk('<f', fb)[3] < 128) else _NINF"),
    # b wins only when strictly smaller (larger): a NaN operand makes the
    # result depend on operand order, unlike LLVM minnum/maxnum
    "fmin": _flt2("r = fb if fb < fa else fa"),
    "fmax": _flt2("r = fb if fb > fa else fa"),
    "eq": _cmp("int", "=="),
    "ne": _cmp("int", "!="),
    "slt": _cmp("int", "<"),
    "sle": _cmp("int", "<="),
    "sgt": _cmp("int", ">"),
    "sge": _cmp("int", ">="),
    "oeq": _cmp("float", "=="),
    "one": _cmp("float", "!="),  # true on NaN, like C's != (LLVM une)
    "olt": _cmp("float", "<"),
    "ole": _cmp("float", "<="),
    "ogt": _cmp("float", ">"),
    "oge": _cmp("float", ">="),
    "trunc": ("int", ("r = {a}", WRAP)),
    "sext": ("int", ("r = {a}", WRAP)),
    # zero-extension reads the operand as unsigned in its own width
    "zext": ("int", ("r = {a} & {smask}", WRAP)),
    "sitofp": ("int", ("r = float({a})", "{t} = " + F32.format(x="r"))),
    "fptosi": ("float", ("fa = {a}",
                         "if fa != fa or fa == _INF or fa == _NINF:",
                         "    raise SimulationError('fptosi of a non-finite value')",
                         "r = int(fa)",
                         WRAP)),
    "bitcast": ("raw", ("{t} = {a}",)),
    "select": ("raw", ("{t} = ({b}) if ({a}) else ({c})",)),  # {a}: condition
}


def domain(op: str) -> str:
    """How ``op`` reads its operands: ``"int"``, ``"float"`` or ``"raw"``."""
    if op not in OPS:
        raise SimulationError(f"unknown operation {op}")
    return OPS[op][0]


def render(op: str, type_: Type, operands: Sequence[str], target: str,
           from_type: Optional[Type] = None) -> List[str]:
    """The statements computing ``op`` (result type ``type_``, operand
    type ``from_type`` for a cast) from operand expressions in
    :func:`domain` form into ``target``."""
    domain(op)
    templates = OPS[op][1]
    fields = dict(zip("abc", operands), t=target)
    if any("{smask}" in line for line in templates):
        if not isinstance(from_type, IntType):
            raise SimulationError(
                f"{op} needs an integer source type, got {from_type!r}")
        fields["smask"] = (1 << from_type.bits) - 1
    if WRAP in templates:
        if not isinstance(type_, IntType):
            raise SimulationError(f"{op} needs an integer result type, got {type_!r}")
        bits = type_.bits
        fields.update(sh=bits - 1, mask=(1 << bits) - 1,
                      half=1 << (bits - 1), full=1 << bits)
    lines: List[str] = []
    for line in templates:
        if line == WRAP:
            lines += [w.format(**fields) for w in (WRAP_I1 if bits == 1 else WRAP_LINES)]
        else:
            lines.append(line.format(**fields))
    return lines


def render_gep(base: str, terms: Sequence[Tuple[str, str]], target: str) -> str:
    """``target = base + index * stride + ...`` over (index, stride) pairs."""
    return "%s = %s" % (target, " + ".join([base] + ["%s * %s" % t for t in terms]))


# -- the interpreter: one function per (op, type), compiled from the table --

_NAMESPACE = dict(HELPERS)
exec("\n".join(PRELUDE), _NAMESPACE)


def _function(params: str, lines: List[str]) -> Callable:
    namespace = dict(_NAMESPACE)
    exec("def _op(%s):\n%s    return t\n"
         % (params, "".join("    %s\n" % line for line in lines)), namespace)
    return namespace["_op"]


def _op_function(op: str, type_: Type, *params: str,
                 from_type: Optional[Type] = None) -> Callable:
    convert = {"int": "int(%s)", "float": "float(%s)", "raw": "%s"}[domain(op)]
    return _function(", ".join(params),
                     render(op, type_, [convert % p for p in params], "t",
                            from_type))


_BINOP_FNS: Dict[tuple, Callable] = {}
_CAST_FNS: Dict[tuple, Callable] = {}


def eval_binop(op: str, type_: Type, a, b):
    """Evaluate a binary op with two's-complement / IEEE semantics."""
    fn = _BINOP_FNS.get((op, type_))
    if fn is None:
        if op not in _BINOPS:
            raise SimulationError(f"unknown operation {op}")
        fn = _BINOP_FNS[op, type_] = _op_function(op, type_, "a", "b")
    return fn(a, b)


def eval_cast(kind: str, value, to_type: Type, from_type: Type):
    """Convert ``value`` of type ``from_type`` to ``to_type``."""
    fn = _CAST_FNS.get((kind, to_type, from_type))
    if fn is None:
        if kind not in CAST_KINDS:
            raise SimulationError(f"unknown operation {kind}")
        fn = _CAST_FNS[kind, to_type, from_type] = _op_function(
            kind, to_type, "v", from_type=from_type)
    return fn(value)


_BINOPS = INT_BINOPS | FLOAT_BINOPS
_ICMP = {p: _op_function(p, None, "a", "b") for p in ICMP_PREDICATES}
_FCMP = {p: _op_function(p, None, "a", "b") for p in FCMP_PREDICATES}
eval_select = _op_function("select", None, "cond", "if_true", "if_false")


def eval_icmp(predicate: str, a, b) -> int:
    return _ICMP[predicate](a, b)


def eval_fcmp(predicate: str, a, b) -> int:
    return _FCMP[predicate](a, b)


def eval_gep(base: int, indices, strides) -> int:
    """``base + index * stride + ...``, the sum :func:`render_gep` emits."""
    addr = int(base)
    for index, stride in zip(indices, strides):
        addr += int(index) * stride
    return addr


to_f32 = _function("x", ["x = float(x)", "t = " + F32.format(x="x")])
to_f32.__doc__ = "Quantise a Python float to single precision (what memory stores)."


def value_to_raw(type_: Type, value) -> int:
    """Encode a typed value as the raw little-endian integer a store sends."""
    if isinstance(type_, FloatType):
        return struct.unpack("<I", struct.pack("<f", float(value)))[0]
    if isinstance(type_, PointerType):
        return int(value) & ((1 << 64) - 1)
    if isinstance(type_, IntType):
        return int(value) & ((1 << type_.bits) - 1)
    raise SimulationError(f"cannot encode value of type {type_!r}")


def raw_to_value(type_: Type, raw: int):
    """Decode a load response payload into a typed value."""
    if isinstance(type_, FloatType):
        return struct.unpack("<f", struct.pack("<I", raw & 0xFFFFFFFF))[0]
    if isinstance(type_, PointerType):
        return int(raw)
    if isinstance(type_, IntType):
        return type_.wrap(int(raw))
    raise SimulationError(f"cannot decode value of type {type_!r}")
