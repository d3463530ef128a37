"""``Chip.run`` against an independent reference scheduler.

Every ``fast_path`` mode runs through ``Chip.run``'s loop, so comparing
the modes with each other cannot catch a change in the scheduler itself.
``reference_run`` below is the conservative scheduler written as plainly
as possible: pop the PE with the smallest key; compute its issue lower
bound on every pop and, if another PE's key is smaller, push the bound
and pop again; otherwise step once, push the new clock, scan every
blocked PE for a full-empty value to wake it with, and report deadlock
when nothing is runnable.  No bound cache, no idle skip of the scan, no
heap shortcuts.  It runs on the reference interpreter
(``fast_path=False``), whose straight-line ``next_issue_lower_bound`` is
also independent of the pre-decoded bound tables.  ``Chip.run`` in every
mode must step the PEs in the same order and leave the chip in the same
state.
"""

import functools
import heapq

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.isa import ProgramBuilder
from repro.pe.config import PEConfig
from repro.pe.counters import PECounters
from repro.pe.memoryif import from_bytes
from repro.pe.pe import PEStatus
from repro.system.chip import BlockedReport, Chip
from repro.system.config import VIPConfig

MODES = [False, True]


def reference_run(chip, programs):
    """The conservative scheduler's semantics, one heap operation at a
    time."""
    if isinstance(programs, list):
        programs = dict(enumerate(programs))
    active = []
    for pe_id, program in programs.items():
        chip.pes[pe_id].load(program)
        heapq.heappush(active, (0.0, pe_id))
    blocked = set()
    while active:
        _, pe_id = heapq.heappop(active)
        pe = chip.pes[pe_id]
        if pe.status is PEStatus.RUNNING:
            bound = pe.next_issue_lower_bound()
            if active and bound > active[0][0]:
                heapq.heappush(active, (bound, pe_id))
                continue
            pe.step()
        if pe.status is PEStatus.RUNNING:
            heapq.heappush(active, (pe.clock, pe_id))
        elif pe.status is PEStatus.BLOCKED:
            blocked.add(pe_id)
        for waiting_id in sorted(blocked):
            waiter = chip.pes[waiting_id]
            addr = waiter.blocked_addr
            if addr is not None and chip.fe_pending(addr):
                value, ready = chip.fe_pop(addr)
                done = max(waiter.clock, ready) + waiter.memory._fe_latency(addr)
                waiter.resume_fe(done, value)
                blocked.discard(waiting_id)
                heapq.heappush(active, (waiter.clock, waiting_id))
        if not active and blocked:
            raise DeadlockError("reference: all PEs blocked",
                                report=chip.blocked_report(blocked))


def _snapshot(chip, dram_range):
    """Everything a scheduling difference could move."""
    base, nbytes = dram_range
    return {
        "clocks": [pe.clock for pe in chip.pes],
        "end_times": [pe._end_time for pe in chip.pes],
        "pcs": [pe.pc for pe in chip.pes],
        "status": [pe.status for pe in chip.pes],
        "regs": [list(pe.regs) for pe in chip.pes],
        "counters": [pe.counters for pe in chip.pes],
        "total": PECounters.sum(pe.counters for pe in chip.pes),
        "scratchpads": [pe.scratchpad.tobytes() for pe in chip.pes],
        "dram": chip.hmc.store.read(base, nbytes).tobytes(),
        "bytes_moved": chip.hmc.total_bytes_moved,
        "noc_messages": chip.noc.stats.messages,
    }


def _drive(scenario, fast_path, use_reference):
    """Run ``scenario`` on a fresh chip with one of the two schedulers.

    Every ``PE.step`` call is logged as ``(pe_id, pc, clock)``, so the
    comparison sees the global step order, not just its end state."""
    chip, phases, dram_range = scenario(fast_path)
    steps = []
    for pe in chip.pes:
        def logged(pe=pe, step=pe.step):
            steps.append((pe.pe_id, pe.pc, pe.clock))
            return step()
        pe.step = logged
    results = []
    for programs in phases:
        if use_reference:
            reference_run(chip, programs)
            ids = list(programs) if isinstance(programs, dict) \
                else list(range(len(programs)))
            results.append(chip._result(ids))
        else:
            results.append(chip.run(programs))
    return results, steps, _snapshot(chip, dram_range)


# -- scenarios ----------------------------------------------------------


def _gibbs_sweep_quick(fast_path):
    from repro.kernels.gibbs_kernel import (
        GibbsTileLayout,
        build_vault_phase_programs,
    )
    from repro.workloads.bp import stereo_mrf

    config = VIPConfig(pe=PEConfig(fast_path=fast_path))
    chip = Chip(config, num_pes=config.pes_per_vault)
    mrf, _ = stereo_mrf(8, 8, labels=8, seed=7)
    layout = GibbsTileLayout(rows=8, cols=8, labels=8,
                             num_pes=config.pes_per_vault, base=4096)
    layout.stage(chip.hmc.store, mrf, seed=0)
    phases = [build_vault_phase_programs(layout, parity)
              for _ in range(2) for parity in (0, 1)]
    return chip, phases, (layout.base, layout.end - layout.base)


def _vault_bp_tile_quick(fast_path):
    from repro.kernels.bp_kernel import (
        BPTileLayout,
        build_vault_sweep_programs,
        cross_extent,
    )
    from repro.workloads.bp import stereo_mrf
    from repro.workloads.bp.mrf import DIRECTIONS

    config = VIPConfig(pe=PEConfig(fast_path=fast_path))
    chip = Chip(config, num_pes=config.pes_per_vault)
    mrf, _ = stereo_mrf(8, 8, labels=4, seed=7)
    layout = BPTileLayout(base=4096, rows=mrf.rows, cols=mrf.cols,
                          labels=mrf.labels)
    layout.stage(chip.hmc.store, mrf, mrf.zero_messages())
    phases = []
    for direction in DIRECTIONS:
        pes = min(config.pes_per_vault, cross_extent(layout, direction))
        phases.append(build_vault_sweep_programs(layout, direction, pes))
    return chip, phases, (layout.base, layout.total_bytes)


FE_BASE = 0x200000
FE_SLOTS = 6


def _producer_consumer(fast_path):
    """PE 0 publishes a token per slot with ``st.fe`` after a compute
    delay; PE 1 waits on each with ``ld.fe`` (blocking on every slot it
    reaches first) and accumulates the tokens; PE 2 works on DRAM
    meanwhile so wake-ups interleave with shared accesses."""
    config = VIPConfig(pe=PEConfig(fast_path=fast_path))
    chip = Chip(config, num_pes=3)
    producer, consumer, bystander = (ProgramBuilder() for _ in range(3))

    r_addr, r_val, r_i, r_n = (producer.alloc_reg() for _ in range(4))
    producer.movi(r_addr, FE_BASE)
    producer.movi(r_i, 0)
    producer.movi(r_n, 30)
    for slot in range(FE_SLOTS):
        producer.label(f"spin{slot}")
        producer.add(r_i, r_i, imm=1)
        producer.blt(r_i, r_n, f"spin{slot}")
        producer.movi(r_i, 0)
        producer.movi(r_val, 100 + slot)
        producer.st_fe(r_val, r_addr)
        producer.add(r_addr, r_addr, imm=8)
    producer.halt()

    c_addr, c_val, c_sum = (consumer.alloc_reg() for _ in range(3))
    consumer.movi(c_addr, FE_BASE)
    consumer.movi(c_sum, 0)
    for _ in range(FE_SLOTS):
        consumer.ld_fe(c_val, c_addr)
        consumer.add(c_sum, c_sum, c_val)
        consumer.add(c_addr, c_addr, imm=8)
    consumer.st_reg(c_sum, c_addr)
    consumer.halt()

    b_sp, b_dram, b_cnt, b_i, b_n = (bystander.alloc_reg() for _ in range(5))
    bystander.movi(b_sp, 0)
    bystander.movi(b_dram, FE_BASE + 0x1000)
    bystander.movi(b_cnt, 32)
    bystander.movi(b_i, 0)
    bystander.movi(b_n, 4)
    bystander.label("loop")
    bystander.ld_sram(b_sp, b_dram, b_cnt)
    bystander.st_sram(b_sp, b_dram, b_cnt)
    bystander.add(b_dram, b_dram, imm=64)
    bystander.add(b_i, b_i, imm=1)
    bystander.blt(b_i, b_n, "loop")
    bystander.halt()

    programs = [producer.build(), consumer.build(), bystander.build()]
    return chip, [programs], (FE_BASE, 0x2000)


def _fe_fifo_order(fast_path):
    """Two producers publish to one full-empty address.  PE 0's store
    waits on a DRAM load, so its issue bound (the load's completion)
    lies far beyond its clock; PE 1 stores after a short spin.  The
    consumer (PE 2) sees the tokens in the order the stores executed, so
    the bound decides what lands in its registers."""
    config = VIPConfig(pe=PEConfig(fast_path=fast_path))
    chip = Chip(config, num_pes=3)
    slow, fast, consumer = (ProgramBuilder() for _ in range(3))

    s_addr, s_src, s_val = (slow.alloc_reg() for _ in range(3))
    slow.movi(s_addr, FE_BASE)
    slow.movi(s_src, FE_BASE + 0x1000)
    slow.ld_reg(s_val, s_src)
    slow.st_fe(s_val, s_addr)
    slow.halt()

    f_addr, f_val, f_i, f_n = (fast.alloc_reg() for _ in range(4))
    fast.movi(f_addr, FE_BASE)
    fast.movi(f_val, 22)
    fast.movi(f_i, 0)
    fast.movi(f_n, 12)
    fast.label("spin")
    fast.add(f_i, f_i, imm=1)
    fast.blt(f_i, f_n, "spin")
    fast.st_fe(f_val, f_addr)
    fast.halt()

    c_addr, c_first, c_second, c_out = (consumer.alloc_reg() for _ in range(4))
    consumer.movi(c_addr, FE_BASE)
    consumer.movi(c_out, FE_BASE + 0x1800)
    consumer.ld_fe(c_first, c_addr)
    consumer.ld_fe(c_second, c_addr)
    consumer.st_reg(c_first, c_out)
    consumer.halt()

    chip.hmc.store.write(FE_BASE + 0x1000,
                         np.frombuffer((11).to_bytes(8, "little"), np.uint8))
    programs = [slow.build(), fast.build(), consumer.build()]
    return chip, [programs], (FE_BASE, 0x2000)


def _branch_on_late_register(fast_path):
    """PE 0 branches on a register a DRAM load fills much later.  A
    branch's issue bound deliberately covers only ``rs1``, so PE 0 steps
    the branch as soon as it is popped; a bound that also waited on
    ``rs2`` would let PE 1's DRAM traffic step first."""
    config = VIPConfig(pe=PEConfig(fast_path=fast_path))
    chip = Chip(config, num_pes=2)
    late, busy = ProgramBuilder(), ProgramBuilder()

    l_src, l_val, l_sp, l_cnt = (late.alloc_reg() for _ in range(4))
    late.movi(l_src, 0x30000)
    late.movi(l_sp, 0)
    late.movi(l_cnt, 8)
    late.ld_reg(l_val, l_src)
    late.bne(l_src, l_val, "after")
    late.nop()
    late.label("after")
    late.ld_sram(l_sp, l_src, l_cnt)
    late.halt()

    b_sp, b_dram, b_cnt, b_i, b_n = (busy.alloc_reg() for _ in range(5))
    busy.movi(b_sp, 0)
    busy.movi(b_dram, 0x30040)
    busy.movi(b_cnt, 16)
    busy.movi(b_i, 0)
    busy.movi(b_n, 6)
    busy.label("loop")
    busy.ld_sram(b_sp, b_dram, b_cnt)
    busy.add(b_i, b_i, imm=1)
    busy.blt(b_i, b_n, "loop")
    busy.halt()
    return chip, [[late.build(), busy.build()]], (0x30000, 0x100)


TIE_DST = 0x20000


def _equal_clock_ties(fast_path):
    """Four PEs run the same instruction stream from clock 0 against the
    same DRAM addresses, so every pop between equal clocks is decided by
    pe_id; each PE stores its own tag, so the last writer shows in DRAM."""
    config = VIPConfig(pe=PEConfig(fast_path=fast_path))
    chip = Chip(config, num_pes=4)
    programs = []
    for pe_id in range(4):
        b = ProgramBuilder()
        r_sp, r_src, r_dst, r_cnt, r_tag, r_i, r_n = (
            b.alloc_reg() for _ in range(7))
        b.movi(r_sp, 0)
        b.movi(r_src, 0x10000)
        b.movi(r_dst, TIE_DST)
        b.movi(r_cnt, 16)
        b.movi(r_tag, 1000 * (pe_id + 1))
        b.movi(r_i, 0)
        b.movi(r_n, 3)
        b.label("loop")
        b.ld_sram(r_sp, r_src, r_cnt)
        b.st_reg(r_tag, r_dst)
        b.st_sram(r_sp, r_dst, r_cnt)
        b.add(r_tag, r_tag, imm=1)
        b.add(r_i, r_i, imm=1)
        b.blt(r_i, r_n, "loop")
        b.halt()
        programs.append(b.build())
    chip.hmc.store.write_array(0x10000, np.arange(16), dtype=np.int16)
    return chip, [programs], (0x10000, 0x20000)


SCENARIOS = {
    "gibbs-sweep-quick": _gibbs_sweep_quick,
    "vault-bp-tile-quick": _vault_bp_tile_quick,
    "fe-producer-consumer": _producer_consumer,
    "fe-fifo-order": _fe_fifo_order,
    "branch-on-late-register": _branch_on_late_register,
    "equal-clock-ties": _equal_clock_ties,
}


@functools.cache
def _reference(name):
    return _drive(SCENARIOS[name], False, use_reference=True)


@pytest.mark.parametrize("fast_path", MODES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chip_run_matches_reference_scheduler(name, fast_path):
    got_results, got_steps, got = _drive(SCENARIOS[name], fast_path,
                                         use_reference=False)
    want_results, want_steps, want = _reference(name)
    assert got_steps == want_steps
    for got_r, want_r in zip(got_results, want_results):
        assert got_r.cycles == want_r.cycles
        assert got_r.pe_cycles == want_r.pe_cycles
        assert got_r.counters == want_r.counters
        assert got_r.bytes_moved == want_r.bytes_moved
        assert got_r.noc_messages == want_r.noc_messages
    for key in want:
        assert got[key] == want[key], key
    assert want["total"].instructions > 0


def test_producer_consumer_really_blocks_and_wakes():
    """The scenario must exercise the wake scan, not just pass it by."""
    chip, phases, _ = _producer_consumer(True)
    blocks = 0
    original = chip.pes[1].step

    def counting_step():
        status = original()
        nonlocal blocks
        blocks += status is PEStatus.BLOCKED
        return status

    chip.pes[1].step = counting_step
    chip.run(phases[0])
    assert blocks >= 2
    total = from_bytes(chip.hmc.store.read(FE_BASE + 8 * FE_SLOTS, 8))
    assert total == sum(100 + s for s in range(FE_SLOTS))


def test_fifo_order_follows_the_issue_bound():
    """The fast producer's token must arrive first: PE 0's store may not
    run before its bound, however early PE 0 is popped."""
    chip, phases, _ = _fe_fifo_order(True)
    chip.run(phases[0])
    assert from_bytes(chip.hmc.store.read(FE_BASE + 0x1800, 8)) == 22


def test_equal_clock_ties_are_order_sensitive():
    """Instruction streams with identical timing finish at different
    cycles only because pe_id ordered their shared DRAM accesses, so the
    scenario would catch a scheduler that broke ties differently."""
    chip, phases, _ = _equal_clock_ties(True)
    result = chip.run(phases[0])
    assert len(set(result.pe_cycles)) > 1


# -- step-budget boundaries -----------------------------------------------


def _nop_programs(num_pes, nops):
    programs = []
    for _ in range(num_pes):
        b = ProgramBuilder()
        for _ in range(nops):
            b.nop()
        b.halt()
        programs.append(b.build())
    return programs


@pytest.mark.parametrize("fast_path", MODES)
def test_chip_run_step_budget_boundary(fast_path):
    total = 2 * 3  # two PEs, nop; nop; halt each
    config = VIPConfig(pe=PEConfig(fast_path=fast_path))
    Chip(config, num_pes=2).run(_nop_programs(2, 2), max_steps=total)
    with pytest.raises(SimulationError, match="exceeded 5 chip steps") as info:
        Chip(config, num_pes=2).run(_nop_programs(2, 2), max_steps=total - 1)
    report = info.value.report
    assert isinstance(report, BlockedReport)
    assert report.entries
