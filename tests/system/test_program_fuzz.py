"""Differential fuzzing of whole VIP programs across execution modes.

Hypothesis generates programs through ``repro.isa.builder``: scalar ALU
ops, bounded ``blt`` loops on a counter, forward skips, ``set.vl`` /
``set.mr`` / ``set.fx`` (by immediate and by register), bursts of
``m.v`` / ``v.v`` / ``v.s`` over overlapping scratchpad ranges (so
back-to-back vector ops meet RAW, WAR and WAW hazards), ``ld.sram`` /
``st.sram`` and ``ld.reg`` / ``st.reg`` against a shared DRAM window,
and rounds of ``ld.fe`` / ``st.fe`` handing tokens around a ring of
PEs.  Each case runs on a one-PE chip and on a four-PE vault.

The reference arm is the straight-line interpreter (``fast_path=False``)
with each PE's interval-list scratchpad timing trackers (``_SpanTimes``)
swapped for the per-byte ready-time arrays they document themselves
equivalent to, so the trackers every mode shares are checked against an
independent model too.  Every execution mode must then match the
reference on cycles, per-PE counters, registers and their ready times,
scratchpads, vector state and DRAM bytes.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.isa import ProgramBuilder
from repro.isa.encoding import IMM_MAX, IMM_MIN
from repro.isa.instructions import (
    BRANCH_OPS,
    ELEMENTWISE_OPS,
    HORIZONTAL_OPS,
    SCALAR_OPS,
    VERTICAL_OPS,
    WIDTHS,
)
from repro.pe.config import PEConfig
from repro.pe.pe import PEStatus
from repro.system.chip import Chip
from repro.system.config import VIPConfig

MODES = [False, True]
VAULT_PES = VIPConfig().pes_per_vault

#: Scratchpad address registers start close together so vector operands
#: overlap often; strides keep every operand inside the scratchpad.
SP_STARTS = (0, 2, 4, 8, 16, 32, 48)
SP_STRIDES = (2, 8, 16, 32)
#: The largest operand in bytes: m.v with mr=4, vl=8 at 64-bit width, or
#: ld.sram of 32 64-bit elements.
MAX_OPERAND = 256
SP_LIMIT = 4096 - MAX_OPERAND

DRAM_BASE = 0x40000
DRAM_BYTES = 0x2000
FE_BASE = 0x80000
NUM_SP, NUM_DRAM, NUM_DATA = 4, 2, 4

#: Small values, and the full immediate range (ALU ops grow them further).
DATA_VALUES = st.one_of(st.integers(-8, 8), st.integers(IMM_MIN, IMM_MAX))


class _Regs:
    """The register classes every generated program uses."""

    def __init__(self, b: ProgramBuilder):
        self.sp = [b.alloc_reg() for _ in range(NUM_SP)]
        self.dram = [b.alloc_reg() for _ in range(NUM_DRAM)]
        self.data = [b.alloc_reg() for _ in range(NUM_DATA)]
        self.count, self.shape, self.fe = (b.alloc_reg() for _ in range(3))
        self.i, self.n = b.alloc_reg(), b.alloc_reg()


# -- generation ------------------------------------------------------------


class _Bounds:
    """Static upper bounds on the address registers, so a stride is only
    drawn while every later operand stays in range."""

    def __init__(self, sp, dram):
        self.sp, self.dram = list(sp), list(dram)


def _vector_burst(draw):
    """Two to four back-to-back vector ops of one shape whose operands
    are drawn from the overlapping address registers."""
    kind = draw(st.sampled_from(["mv", "vv", "vs"]))
    width = draw(st.sampled_from(WIDTHS))
    if kind == "mv":
        vop = draw(st.sampled_from(VERTICAL_OPS))
        hop = draw(st.sampled_from(HORIZONTAL_OPS))
    else:
        vop, hop = draw(st.sampled_from(ELEMENTWISE_OPS)), None
    regs = st.integers(0, NUM_SP - 1)
    return [("vec", kind, vop, hop, width, draw(regs), draw(regs), draw(regs))
            for _ in range(draw(st.integers(2, 4)))]


def _item(draw, bounds: _Bounds, trips: int):
    kind = draw(st.sampled_from(
        ["alu", "alu", "movi", "set", "vec", "vec", "vec", "adv", "ldst",
         "ldst", "madv", "reg_mem", "misc"]))
    data = st.integers(0, NUM_DATA - 1)
    if kind == "alu":
        rs2 = draw(st.one_of(st.none(), data))
        imm = draw(DATA_VALUES) if rs2 is None else None
        return [("alu", draw(st.sampled_from(SCALAR_OPS)), draw(data),
                 draw(data), rs2, imm)]
    if kind == "movi":
        return [("movi", draw(data), draw(DATA_VALUES))]
    if kind == "set":
        which = draw(st.sampled_from(["vl", "mr", "fx"]))
        value = draw({"vl": st.integers(1, 8), "mr": st.integers(1, 4),
                      "fx": st.integers(0, 12)}[which])
        return [("set", which, value, which != "fx" and draw(st.booleans()))]
    if kind == "vec":
        return _vector_burst(draw)
    if kind == "adv":
        reg = draw(st.integers(0, NUM_SP - 1))
        stride = draw(st.sampled_from(SP_STRIDES))
        if bounds.sp[reg] + stride * trips > SP_LIMIT:
            return []
        bounds.sp[reg] += stride * trips
        return [("adv", reg, stride)]
    if kind == "ldst":
        return [("ldst", draw(st.sampled_from(["ld", "st"])),
                 draw(st.integers(0, NUM_SP - 1)),
                 draw(st.integers(0, NUM_DRAM - 1)),
                 draw(st.integers(0, 32)), draw(st.sampled_from(WIDTHS)))]
    if kind == "madv":
        reg = draw(st.integers(0, NUM_DRAM - 1))
        stride = draw(st.sampled_from((8, 64, 200)))
        if bounds.dram[reg] + stride * trips > DRAM_BYTES - MAX_OPERAND:
            return []
        bounds.dram[reg] += stride * trips
        return [("madv", reg, stride)]
    if kind == "reg_mem":
        return [(draw(st.sampled_from(["ld_reg", "st_reg"])), draw(data),
                 draw(st.integers(0, NUM_DRAM - 1)))]
    return [(draw(st.sampled_from(["drain", "nop", "fence"])),)]


def _block(draw, bounds: _Bounds, trips: int):
    """Straight-line items, with forward skips that stay inside it."""
    items = []
    for _ in range(draw(st.integers(1, 6))):
        items += _item(draw, bounds, trips)
    for _ in range(draw(st.integers(0, 2))):
        if not items:
            break
        at = draw(st.integers(0, len(items) - 1))
        span = draw(st.integers(1, len(items) - at))
        data = st.integers(0, NUM_DATA - 1)
        items.insert(at, ("skip", draw(st.sampled_from(BRANCH_OPS)),
                          draw(data), draw(data), span))
    return items


def _segment(draw, bounds: _Bounds):
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            trips = draw(st.integers(1, 4))
            parts.append(("loop", trips, _block(draw, bounds, trips)))
        else:
            parts.append(("block", _block(draw, bounds, 1)))
    return parts


def _program_spec(draw, rounds: int):
    sp = [draw(st.sampled_from(SP_STARTS)) for _ in range(NUM_SP)]
    dram = [draw(st.sampled_from(range(0, 512, 8))) for _ in range(NUM_DRAM)]
    bounds = _Bounds(sp, dram)
    data = [draw(DATA_VALUES) for _ in range(NUM_DATA)]
    segments = [_segment(draw, bounds) for _ in range(rounds + 1)]
    fe = [(draw(st.integers(0, NUM_DATA - 1)),
           draw(st.integers(0, NUM_DATA - 1))) for _ in range(rounds)]
    return {"sp": sp, "dram": dram, "data": data, "segments": segments,
            "fe": fe}


@st.composite
def cases(draw):
    """Per-PE program specs for a vault, plus the staging seed."""
    rounds = draw(st.integers(0, 2))
    specs = [_program_spec(draw, rounds) for _ in range(VAULT_PES)]
    return specs, draw(st.integers(0, 2**32 - 1))


# -- building --------------------------------------------------------------


def _emit_item(b: ProgramBuilder, r: _Regs, item) -> None:
    op = item[0]
    if op == "alu":
        _, sop, rd, rs1, rs2, imm = item
        b.alu(sop, r.data[rd], r.data[rs1],
              None if rs2 is None else r.data[rs2], imm)
    elif op == "movi":
        b.movi(r.data[item[1]], item[2])
    elif op == "set":
        _, which, value, by_reg = item
        if which == "fx":
            b.set_fx(value)
        elif by_reg:
            b.movi(r.shape, value)
            getattr(b, f"set_{which}")(reg=r.shape)
        else:
            getattr(b, f"set_{which}")(value)
    elif op == "vec":
        _, kind, vop, hop, width, dst, a, c = item
        dst, a, c = r.sp[dst], r.sp[a], r.sp[c]
        if kind == "mv":
            b.mv(vop, hop, dst=dst, matrix=a, vector=c, width=width)
        elif kind == "vv":
            b.vv(vop, dst=dst, a=a, b=c, width=width)
        else:
            b.vs(vop, dst=dst, a=a, scalar=c, width=width)
    elif op == "adv":
        b.add(r.sp[item[1]], r.sp[item[1]], imm=item[2])
    elif op == "madv":
        b.add(r.dram[item[1]], r.dram[item[1]], imm=item[2])
    elif op == "ldst":
        _, direction, sp, dram, count, width = item
        b.movi(r.count, count)
        move = b.ld_sram if direction == "ld" else b.st_sram
        move(r.sp[sp], r.dram[dram], r.count, width=width)
    elif op == "ld_reg":
        b.ld_reg(r.data[item[1]], r.dram[item[2]])
    elif op == "st_reg":
        b.st_reg(r.data[item[1]], r.dram[item[2]])
    elif op == "drain":
        b.v_drain()
    elif op == "nop":
        b.nop()
    else:
        b.memfence()


def _emit_block(b: ProgramBuilder, r: _Regs, items, tag: str) -> None:
    """Emit ``items``; a skip at index i jumps past the next ``span``."""
    targets: dict[int, list[str]] = {}
    for idx, item in enumerate(items):
        for name in targets.pop(idx, []):
            b.label(name)
        if item[0] == "skip":
            _, cond, rs1, rs2, span = item
            name = f"{tag}_skip{idx}"
            targets.setdefault(idx + 1 + span, []).append(name)
            b.branch(cond, r.data[rs1], r.data[rs2], name)
        else:
            _emit_item(b, r, item)
    for names in targets.values():
        for name in names:
            b.label(name)


def _fe_slot(round_: int, pe_id: int, num_pes: int) -> int:
    return FE_BASE + 8 * (round_ * num_pes + pe_id)


def build_program(spec, pe_id: int, num_pes: int):
    """One PE's program.  In fe round k every PE first stores a token to
    its own slot, then loads its ring predecessor's: all round-k stores
    precede every round-k load in program order, so the ring always
    makes progress."""
    b = ProgramBuilder()
    r = _Regs(b)
    for reg, value in zip(r.sp, spec["sp"]):
        b.movi(reg, value)
    for reg, value in zip(r.dram, spec["dram"]):
        b.movi(reg, DRAM_BASE + value)
    for reg, value in zip(r.data, spec["data"]):
        b.movi(reg, value)
    for k, segment in enumerate(spec["segments"]):
        if k:
            src, dst = spec["fe"][k - 1]
            b.movi(r.fe, _fe_slot(k - 1, pe_id, num_pes))
            b.st_fe(r.data[src], r.fe)
            b.movi(r.fe, _fe_slot(k - 1, (pe_id - 1) % num_pes, num_pes))
            b.ld_fe(r.data[dst], r.fe)
        for p, part in enumerate(segment):
            tag = f"s{k}p{p}"
            if part[0] == "block":
                _emit_block(b, r, part[1], tag)
                continue
            _, trips, items = part
            b.movi(r.i, 0)
            b.movi(r.n, trips)
            b.label(f"{tag}_loop")
            _emit_block(b, r, items, tag)
            b.add(r.i, r.i, imm=1)
            b.blt(r.i, r.n, f"{tag}_loop")
    b.halt()
    return b.build()


# -- running ---------------------------------------------------------------


class _ByteTimes:
    """Per-byte ready times: the model ``_SpanTimes`` must agree with."""

    def __init__(self, size: int):
        self.times = np.zeros(size)

    def record(self, start: int, end: int, time: float, now: float) -> None:
        if end > start:
            np.maximum(self.times[start:end], time,
                       out=self.times[start:end])

    def max_over(self, start: int, end: int, floor: float) -> float:
        return max(floor, float(self.times[start:end].max()))


def run_case(specs, seed: int, num_pes: int, fast_path, byte_times=False):
    """Run the first ``num_pes`` programs on a fresh chip and snapshot
    everything a mode difference could move."""
    chip = Chip(VIPConfig(pe=PEConfig(fast_path=fast_path)), num_pes=num_pes)
    rng = np.random.default_rng(seed)
    chip.hmc.store.write(DRAM_BASE, rng.integers(0, 256, DRAM_BYTES,
                                                 dtype=np.uint8))
    for pe in chip.pes:
        pe.scratchpad[:] = rng.integers(0, 256, pe.scratchpad.size,
                                        dtype=np.uint8)
        if byte_times:
            pe._sp_wtime = _ByteTimes(pe.scratchpad.size)
            pe._sp_rtime = _ByteTimes(pe.scratchpad.size)
    programs = [build_program(specs[i], i, num_pes) for i in range(num_pes)]
    result = chip.run(programs)
    assert all(pe.status is PEStatus.HALTED for pe in chip.pes)
    return {
        "cycles": result.cycles,
        "pe_cycles": result.pe_cycles,
        "counters": [pe.counters for pe in chip.pes],
        "clocks": [pe.clock for pe in chip.pes],
        "regs": [list(pe.regs) for pe in chip.pes],
        "reg_time": [list(pe.reg_time) for pe in chip.pes],
        "vector_state": [(pe.vl, pe.mr, pe.fx) for pe in chip.pes],
        "scratchpads": [pe.scratchpad.tobytes() for pe in chip.pes],
        "dram": chip.hmc.store.read(DRAM_BASE, DRAM_BYTES).tobytes(),
        "fe_left": {a: list(q) for a, q in chip._fe_queues.items() if q},
        "bytes_moved": chip.hmc.total_bytes_moved,
        "noc_messages": chip.noc.stats.messages,
    }


def assert_modes_agree(specs, seed: int) -> None:
    for num_pes in (1, VAULT_PES):
        want = run_case(specs, seed, num_pes, False, byte_times=True)
        for mode in MODES:
            got = run_case(specs, seed, num_pes, mode)
            for key in want:
                assert got[key] == want[key], (num_pes, mode, key)


def _one_block(sp, items):
    """Every vault PE runs one straight-line block over ``sp``."""
    spec = {"sp": sp, "dram": [0, 0], "data": [0] * NUM_DATA,
            "segments": [[("block", items)]], "fe": []}
    return [spec] * VAULT_PES, 0


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases())
# Shrunk from mutation runs.  RAW: the second m.v reads the byte the
# first one writes, so a deferred or batched write must land first.
@example(_one_block([0, 0, 0, 2], [("vec", "mv", "mul", "add", 8, 0, 0, 3),
                                   ("vec", "mv", "mul", "add", 8, 0, 0, 0)]))
# Adjacency: the second m.v reads [8, 16), which ends where the first
# one's write [16, 24) starts, so it must not wait for that write.
@example(_one_block([0, 16, 8, 0], [("vec", "mv", "mul", "add", 64, 1, 0, 0),
                                    ("vec", "mv", "mul", "add", 64, 0, 2, 0)]))
def test_execution_modes_agree_on_generated_programs(case):
    specs, seed = case
    assert_modes_agree(specs, seed)
