"""Full-system co-simulation tests."""

import numpy as np
import pytest

from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.isa import ProgramBuilder, assemble
from repro.pe.config import PEConfig
from repro.system import Chip, VIPConfig


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = VIPConfig()
        assert cfg.num_pes == 128
        assert cfg.num_vaults == 32
        assert cfg.peak_bandwidth_gbps == pytest.approx(320.0)

    def test_peak_gops_by_width(self):
        cfg = VIPConfig()
        assert cfg.peak_gops(16) == pytest.approx(1280.0)
        assert cfg.peak_gops(8) == pytest.approx(2560.0)
        assert cfg.peak_gops(64) == pytest.approx(320.0)

    def test_vault_of_pe(self):
        cfg = VIPConfig()
        assert cfg.vault_of_pe(0) == 0
        assert cfg.vault_of_pe(4) == 1
        assert cfg.vault_of_pe(127) == 31

    def test_fast_path_is_a_bool(self):
        assert PEConfig().fast_path is True
        assert PEConfig(fast_path=False).fast_path is False

    @pytest.mark.parametrize("value", ["vector", "True", 1, 0, None])
    def test_fast_path_rejects_non_bools(self, value):
        with pytest.raises(ConfigError, match="must be True or False"):
            PEConfig(fast_path=value)


class TestChipBasics:
    def test_single_pe_program(self):
        chip = Chip(num_pes=1)
        result = chip.run([assemble("mov.imm r1, 3\nhalt")])
        assert chip.pes[0].regs[1] == 3
        assert result.cycles > 0

    def test_num_pes_validated(self):
        with pytest.raises(SimulationError):
            Chip(num_pes=0)
        with pytest.raises(SimulationError):
            Chip(num_pes=129)

    def test_unknown_pe_rejected(self):
        chip = Chip(num_pes=2)
        with pytest.raises(SimulationError):
            chip.run({5: assemble("halt")})

    def test_local_vault_memory_access(self):
        chip = Chip(num_pes=1)
        chip.hmc.store.write_array(0x100, np.arange(4), np.int16)
        chip.run([assemble("""
            set.vl 4
            mov.imm r1, 0
            mov.imm r2, 0x100
            mov.imm r3, 4
            ld.sram[16] r1, r2, r3
            mov.imm r4, 0x200
            st.sram[16] r1, r4, r3
            memfence
            halt
        """)])
        out = chip.hmc.store.read_array(0x200, 4, np.int16)
        assert list(out) == [0, 1, 2, 3]

    def test_remote_vault_access_slower_than_local(self):
        cfg = VIPConfig()
        local_chip = Chip(cfg, num_pes=1)
        remote_chip = Chip(cfg, num_pes=1)
        remote_addr = 5 * cfg.memory.vault_bytes
        t_local = local_chip.run([assemble(
            "mov.imm r1, 0x100\nld.reg r2, r1\nhalt")]).cycles
        t_remote = remote_chip.run([assemble(
            f"li r1, {remote_addr}\nld.reg r2, r1\nhalt")]).cycles
        assert t_remote > t_local


class TestFullEmpty:
    def test_producer_consumer(self):
        chip = Chip(num_pes=2)
        producer = assemble("mov.imm r1, 42\nmov.imm r2, 0x100000\nst.fe r1, r2\nhalt")
        consumer = assemble("mov.imm r2, 0x100000\nld.fe r3, r2\nhalt")
        chip.run([producer, consumer])
        assert chip.pes[1].regs[3] == 42

    def test_consumer_waits_for_late_producer(self):
        chip = Chip(num_pes=2)
        producer = assemble(
            "nop\n" * 50 + "mov.imm r1, 7\nmov.imm r2, 0x100000\nst.fe r1, r2\nhalt"
        )
        consumer = assemble("mov.imm r2, 0x100000\nld.fe r3, r2\nhalt")
        result = chip.run([producer, consumer])
        assert chip.pes[1].regs[3] == 7
        assert chip.pes[1].counters.stall_sync > 0

    def test_deadlock_detected(self):
        chip = Chip(num_pes=2)
        waiter = assemble("mov.imm r2, 0x100000\nld.fe r3, r2\nhalt")
        with pytest.raises(DeadlockError):
            chip.run([waiter, assemble("halt")])

    def test_chained_handoff(self):
        """Token passes PE0 -> PE1 -> PE2 with increments."""
        chip = Chip(num_pes=3)
        programs = []
        p0 = ProgramBuilder()
        r, a = p0.alloc_reg(), p0.alloc_reg()
        p0.movi(r, 1)
        p0.movi(a, 0x100000)
        p0.st_fe(r, a)
        p0.halt()
        programs.append(p0.build())
        for i in (1, 2):
            p = ProgramBuilder()
            r, a = p.alloc_reg(), p.alloc_reg()
            p.movi(a, 0x100000 + (i - 1) * 8)
            p.ld_fe(r, a)
            p.add(r, r, imm=1)
            p.movi(a, 0x100000 + i * 8)
            p.st_fe(r, a)
            p.halt()
            programs.append(p.build())
        chip.run(programs)
        assert chip.fe_pop(0x100000 + 16) == (3, pytest.approx(chip.pes[2].clock, abs=1e9))


class TestConservativeOrdering:
    def test_result_aggregates_counters(self):
        chip = Chip(num_pes=2)
        result = chip.run([assemble("nop\nhalt"), assemble("nop\nnop\nhalt")])
        assert result.counters.instructions == 2 + 3

    def test_cycles_is_max_over_pes(self):
        chip = Chip(num_pes=2)
        result = chip.run([assemble("halt"), assemble("nop\n" * 100 + "halt")])
        assert result.cycles == max(result.pe_cycles)
