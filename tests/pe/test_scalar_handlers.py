"""The pre-resolved scalar handlers against the reference interpreter.

``repro.pe.decode`` gives ALU (immediate and register forms), ``mov``,
``mov.imm`` and conditional branches shared handlers that read
pre-resolved operands.  Generated scalar programs — every ALU op in both
forms, r0 as source and destination, ``rd == rs1``, pre-staged
out-of-range register values and ready times that force operand stalls,
forward branches of every kind — must leave the PE in exactly the state
the reference ``_exec_*`` methods leave it in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import BRANCH_OPS, SCALAR_OPS, Instruction, Opcode
from repro.isa.program import Program
from repro.pe.config import PEConfig
from repro.pe.decode import predecode
from repro.pe.pe import PE

#: A small register window so sources, destinations and r0 collide often.
REGS = st.integers(0, 5)
#: Register values and immediates: small, anywhere in the signed 64-bit
#: range, and outside it on either side (the handlers must wrap those).
OUT_OF_RANGE = st.one_of(st.integers(1 << 63, 1 << 70),
                         st.integers(-(1 << 70), -(1 << 63) - 1))
VALUES = st.one_of(st.integers(-8, 8), st.integers(-(1 << 63), (1 << 63) - 1),
                   OUT_OF_RANGE)


@st.composite
def scalar_programs(draw):
    body = []
    n = draw(st.integers(1, 24))
    for pc in range(n):
        kind = draw(st.sampled_from(["alu_imm", "alu_reg", "mov", "movi",
                                     "branch"]))
        rd, rs1, rs2 = draw(REGS), draw(REGS), draw(REGS)
        if kind == "alu_imm":
            instr = Instruction(Opcode.ALU, rd=rd, rs1=rs1, imm=draw(VALUES),
                                sop=draw(st.sampled_from(SCALAR_OPS)))
        elif kind == "alu_reg":
            instr = Instruction(Opcode.ALU, rd=rd, rs1=rs1, rs2=rs2,
                                sop=draw(st.sampled_from(SCALAR_OPS)))
        elif kind == "mov":
            instr = Instruction(Opcode.MOV, rd=rd, rs1=rs1)
        elif kind == "movi":
            instr = Instruction(Opcode.MOVI, rd=rd, imm=draw(VALUES))
        else:
            # Forward targets only (up to the final halt), so every
            # program terminates.
            instr = Instruction(Opcode.BRANCH, rs1=rs1, rs2=rs2,
                                imm=draw(st.integers(pc + 1, n)),
                                sop=draw(st.sampled_from(BRANCH_OPS)))
        body.append(instr)
    body.append(Instruction(Opcode.HALT))
    # r0 is hardwired: its value and ready time are never staged.
    regs = [0] + [draw(VALUES) for _ in range(5)]
    reg_time = [0.0] + [draw(st.sampled_from([0.0, 0.5, 3.0, 7.25, 40.0]))
                        for _ in range(5)]
    clock = draw(st.sampled_from([0.0, 1.5, 6.0]))
    return Program(body), regs, reg_time, clock


def _run(program, regs, reg_time, clock, fast_path, penalty=1):
    pe = PE(PEConfig(fast_path=fast_path, branch_taken_penalty=penalty))
    pe.regs[:len(regs)] = regs
    pe.reg_time[:len(reg_time)] = reg_time
    pe.clock = clock
    result = pe.run(program)
    return {
        "regs": list(pe.regs),
        "reg_time": list(pe.reg_time),
        "clock": pe.clock,
        "pc": pe.pc,
        "end": result.cycles,
        "counters": result.counters,
    }


@settings(max_examples=300, deadline=None)
@given(scalar_programs())
def test_scalar_handlers_match_reference(case):
    program, regs, reg_time, clock = case
    reference = _run(program, regs, reg_time, clock, False)
    assert _run(program, regs, reg_time, clock, True) == reference


@settings(max_examples=100, deadline=None)
@given(scalar_programs())
def test_branch_penalty_is_not_baked_into_a_shared_program(case):
    """One Program object, decoded once, run under two configs."""
    program, regs, reg_time, clock = case
    for penalty in (1, 3, 1):
        reference = _run(program, regs, reg_time, clock, False, penalty)
        fast = _run(program, regs, reg_time, clock, True, penalty)
        assert fast == reference, penalty


def test_generator_covers_the_tricky_cases():
    """Pin the corner cases the property test relies on hypothesis to
    reach, so they run on every invocation."""
    big = (1 << 63) + 5
    body = [
        Instruction(Opcode.ALU, rd=0, rs1=1, imm=3, sop="add"),      # rd = r0
        Instruction(Opcode.ALU, rd=1, rs1=1, rs2=0, sop="sub"),      # rs2 = r0
        Instruction(Opcode.ALU, rd=2, rs1=2, rs2=2, sop="xor"),      # rd=rs1=rs2
        Instruction(Opcode.ALU, rd=3, rs1=3, imm=70, sop="sra"),     # wide shift
        Instruction(Opcode.MOV, rd=4, rs1=4),                        # wraps r4
        Instruction(Opcode.BRANCH, rs1=5, rs2=0, imm=7, sop="blt"),  # taken
        Instruction(Opcode.MOVI, rd=5, imm=big),                     # skipped
        Instruction(Opcode.BRANCH, rs1=0, rs2=5, imm=9, sop="bge"),  # taken
        Instruction(Opcode.MOVI, rd=5, imm=1),                       # skipped
        Instruction(Opcode.BRANCH, rs1=3, rs2=3, imm=10, sop="bne"), # not taken
        Instruction(Opcode.HALT),
    ]
    program = Program(body)
    # Every scalar record really runs through a shared handler.
    decoded = predecode(program, PE._DISPATCH)
    assert all(d.arg is d for d in decoded[:-1])
    regs = [0, big, -big, big * 4, -(1 << 64) - 1, big]
    reg_time = [0.0, 4.0, 9.5, 0.0, 12.0, 20.0]
    for penalty in (1, 2):
        reference = _run(program, regs, reg_time, 1.0, False, penalty)
        assert reference["counters"].branches_taken == 2
        assert reference["counters"].stall_operand > 0
        got = _run(program, regs, reg_time, 1.0, True, penalty)
        assert got == reference, penalty
