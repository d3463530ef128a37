"""Per-program instruction pre-decode for the PE hot loop.

``PE.step`` and ``PE.next_issue_lower_bound`` together dominate simulation
wall time, and both re-derive the same timing-invariant facts from each
:class:`~repro.isa.instructions.Instruction` on every visit: the dispatch
handler, the element size, which scalar registers gate issue, and which
stall sources (scratchpad ranges, vector pipe, LSU capacity, fences) the
opcode can hit.  A program's instructions never change after assembly, so
all of that is decoded once per :class:`~repro.isa.program.Program` into a
flat list of :class:`DecodedInstr` records (one slot-ed object per
instruction, indexed by pc) and cached on the program object itself.

The decode tables below are a transcription of the opcode cases in
``repro.pe.pe`` — the fast path must stall on exactly the same sources, in
the same order, as the reference path (enforced by
``tests/perf/test_fastpath_equiv.py``).

The scalar instructions that dominate control-heavy kernels (ALU in both
forms, ``mov``, ``mov.imm`` and conditional branches) also get two shared
module-level handlers, ``_alu`` and ``_branch``, that read pre-resolved
operands from their record instead of re-dispatching on ``sop`` and
re-reading the instruction.  They are twins of ``PE._exec_alu``/
``_exec_mov``/``_exec_movi``/``_exec_branch``, which remain the oracle for
``fast_path=False`` and traced runs; the exactness rules they follow are
listed in DESIGN.md §7.
"""

from __future__ import annotations

import operator

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.pe.scalar_unit import to_signed

# Scratchpad-range shape of the next instruction, for the issue lower bound.
SHAPE_NONE = 0
SHAPE_MV = 1
SHAPE_VV = 2
SHAPE_VS = 3
SHAPE_LDST_SRAM = 4

# Trailing structural-stall check needed by the issue lower bound.
TAIL_NONE = 0
TAIL_VEC_PIPE = 1
TAIL_V_DRAIN = 2
TAIL_MEMFENCE = 3
TAIL_LSU_CAP = 4

_SHAPES = {
    Opcode.MV: SHAPE_MV,
    Opcode.VV: SHAPE_VV,
    Opcode.VS: SHAPE_VS,
    Opcode.LD_SRAM: SHAPE_LDST_SRAM,
    Opcode.ST_SRAM: SHAPE_LDST_SRAM,
}

_TAILS = {
    Opcode.MV: TAIL_VEC_PIPE,
    Opcode.VV: TAIL_VEC_PIPE,
    Opcode.VS: TAIL_VEC_PIPE,
    Opcode.V_DRAIN: TAIL_V_DRAIN,
    Opcode.MEMFENCE: TAIL_MEMFENCE,
    Opcode.LD_SRAM: TAIL_LSU_CAP,
    Opcode.ST_SRAM: TAIL_LSU_CAP,
    Opcode.LD_REG: TAIL_LSU_CAP,
    Opcode.ST_REG: TAIL_LSU_CAP,
}


#: Signed 64-bit range: a value inside it is its own ``to_signed``.
_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63
_MASK = (1 << 64) - 1


def _sll(a: int, b: int) -> int:
    return (a & _MASK) << (b & 63)


def _srl(a: int, b: int) -> int:
    return (a & _MASK) >> (b & 63)


def _sra(a: int, b: int) -> int:
    return to_signed(a) >> (b & 63)


# ``scalar_alu``/``branch_taken`` resolved to plain functions; the ALU
# results are wrapped to signed 64 bits by the handler.
_ALU_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "sll": _sll,
    "srl": _srl,
    "sra": _sra,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}

_BRANCH_OPS = {
    "blt": operator.lt,
    "bge": operator.ge,
    "beq": operator.eq,
    "bne": operator.ne,
}


class DecodedInstr:
    """One instruction with its timing-invariant fields resolved.

    ``handler(pe, arg)`` executes the instruction: ``handler`` is either
    an unbound PE method from ``PE._DISPATCH`` (then ``arg`` is the
    instruction) or one of this module's scalar handlers (then ``arg`` is
    the record itself, whose ``op``/``srcs``/``rd``/``rs1``/``rs2``/``imm``
    slots it reads).  ``lb_simple`` marks records whose issue lower bound
    is just the clock raised by ``lb_regs`` (no scratchpad shape, no tail).
    """

    __slots__ = ("instr", "handler", "arg", "esz", "lb_regs", "lb_shape",
                 "lb_tail", "lb_simple", "op", "srcs", "rd", "rs1", "rs2",
                 "imm")

    def __init__(self, instr: Instruction, handler, esz: int,
                 lb_regs: tuple[int, ...], lb_shape: int, lb_tail: int):
        self.instr = instr
        self.handler = handler
        self.arg = instr
        self.esz = esz
        self.lb_regs = lb_regs
        self.lb_shape = lb_shape
        self.lb_tail = lb_tail
        self.lb_simple = lb_shape == SHAPE_NONE and lb_tail == TAIL_NONE
        self.op = None
        self.srcs: tuple[int, ...] = ()
        self.rd = instr.rd
        self.rs1 = instr.rs1
        self.rs2 = instr.rs2
        self.imm = instr.imm


def _lower_bound_regs(instr: Instruction) -> tuple[int, ...]:
    """The registers whose valid bits gate issue of ``instr``.

    Mirrors the opcode table in ``PE.next_issue_lower_bound``, then drops
    ``r0`` (its ready time is pinned to 0.0, which can never raise a bound)
    and duplicates (``max`` is idempotent) — both exact simplifications.
    """
    op = instr.opcode
    if op in (Opcode.MV, Opcode.VV, Opcode.VS, Opcode.LD_SRAM, Opcode.ST_SRAM):
        regs = (instr.rd, instr.rs1, instr.rs2)
    elif op in (Opcode.ALU, Opcode.BRANCH):
        regs = (instr.rs1, instr.rs2) if instr.imm is None else (instr.rs1,)
    elif op in (Opcode.MOV, Opcode.LD_REG, Opcode.LD_FE):
        regs = (instr.rs1,)
    elif op in (Opcode.ST_REG, Opcode.ST_FE):
        regs = (instr.rd, instr.rs1)
    elif op in (Opcode.SET_VL, Opcode.SET_MR) and instr.imm is None:
        regs = (instr.rs1,)
    else:
        regs = ()
    return _live_regs(regs)


def _live_regs(regs) -> tuple[int, ...]:
    """``regs`` without ``r0`` and without repeats, in first-seen order."""
    out: list[int] = []
    for r in regs:
        if r and r not in out:
            out.append(r)
    return tuple(out)


# -- pre-resolved scalar handlers ----------------------------------------
#
# Each is exact against its ``PE._exec_*`` twin: operand stalls accumulate
# per source register in the reference order (only r0, whose ready time
# is pinned to 0.0, and repeats, which cannot raise ``t`` again, are
# dropped); results are wrapped with ``to_signed`` semantics; branch
# operands compare after ``to_signed``; and the taken-branch clock is
# ``t + 1.0 + penalty`` with the penalty read from the PE's own config.


def _alu(pe, d: DecodedInstr) -> None:
    """``rd = op(rs1, rs2 or imm)``; ``rs2 is None`` selects ``imm``.

    ``mov`` is ``rs1 + 0`` and ``mov.imm`` is ``r0 + imm``: both issue,
    stall, write and count exactly like an immediate ALU op."""
    t = pe.clock
    reg_time = pe.reg_time
    for r in d.srcs:
        rt = reg_time[r]
        if rt > t:
            pe.counters.stall_operand += rt - t
            t = rt
    regs = pe.regs
    rs1, rs2 = d.rs1, d.rs2
    value = d.op(regs[rs1] if rs1 else 0,
                 d.imm if rs2 is None else regs[rs2] if rs2 else 0)
    if not _INT64_MIN <= value < _INT64_END:
        value = to_signed(value)
    clock = t + 1.0
    rd = d.rd
    if rd:
        regs[rd] = value
        reg_time[rd] = clock
    counters = pe.counters
    counters.scalar_instructions += 1
    counters.instructions += 1
    pe.clock = clock
    pe.pc += 1
    if clock > pe._end_time:
        pe._end_time = clock


def _branch(pe, d: DecodedInstr) -> None:
    t = pe.clock
    reg_time = pe.reg_time
    for r in d.srcs:
        rt = reg_time[r]
        if rt > t:
            pe.counters.stall_operand += rt - t
            t = rt
    regs = pe.regs
    rs1, rs2 = d.rs1, d.rs2
    a = regs[rs1] if rs1 else 0
    if not _INT64_MIN <= a < _INT64_END:
        a = to_signed(a)
    b = regs[rs2] if rs2 else 0
    if not _INT64_MIN <= b < _INT64_END:
        b = to_signed(b)
    counters = pe.counters
    counters.scalar_instructions += 1
    counters.branches += 1
    counters.instructions += 1
    if d.op(a, b):
        counters.branches_taken += 1
        pe.pc = d.imm
        clock = t + 1.0 + pe.config.branch_taken_penalty
    else:
        pe.pc += 1
        clock = t + 1.0
    pe.clock = clock
    if clock > pe._end_time:
        pe._end_time = clock


def _resolve_scalar(d: DecodedInstr) -> None:
    """Point a scalar record at its shared handler, when it has one.

    Records whose operation does not resolve (an unknown ``sop``, a
    missing immediate) keep the reference handler, so they fail exactly
    as the reference does.
    """
    instr = d.instr
    op = instr.opcode
    if op is Opcode.ALU:
        fn = _ALU_OPS.get(instr.sop)
        if fn is None:
            return
        handler = _alu
        if instr.imm is None:
            srcs = (instr.rs1, instr.rs2)
        else:
            srcs = (instr.rs1,)
            d.rs2 = None
    elif op is Opcode.MOV:
        fn, handler, srcs = operator.add, _alu, (instr.rs1,)
        d.rs2, d.imm = None, 0
    elif op is Opcode.MOVI:
        if instr.imm is None:
            return
        fn, handler, srcs = operator.add, _alu, ()
        d.rs1, d.rs2 = 0, None
    elif op is Opcode.BRANCH:
        fn = _BRANCH_OPS.get(instr.sop)
        if fn is None or instr.imm is None:
            return
        handler, srcs = _branch, (instr.rs1, instr.rs2)
    else:
        return
    d.handler = handler
    d.arg = d
    d.op = fn
    d.srcs = _live_regs(srcs)


def predecode(program: Program, dispatch) -> list[DecodedInstr]:
    """Decode every instruction of ``program`` against ``dispatch``.

    The result is cached on the program object (programs are immutable
    after assembly), so repeated ``PE.load`` of a shared kernel — the
    common case for the vault sweeps and the test suite — decodes once.
    """
    cached = getattr(program, "_predecoded", None)
    if cached is not None and cached[0] is dispatch:
        return cached[1]
    decoded = []
    for i in range(len(program)):
        instr = program[i]
        d = DecodedInstr(
            instr,
            dispatch[instr.opcode],
            instr.width // 8,
            _lower_bound_regs(instr),
            _SHAPES.get(instr.opcode, SHAPE_NONE),
            _TAILS.get(instr.opcode, TAIL_NONE),
        )
        _resolve_scalar(d)
        decoded.append(d)
    program._predecoded = (dispatch, decoded)
    return decoded
