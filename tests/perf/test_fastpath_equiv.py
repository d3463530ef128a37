"""The fast path must be an optimization, never a model change.

Every simulator bench kernel is run with ``PEConfig(fast_path=True)``
and ``False`` and the runs must agree on *everything observable*:
simulated cycles, the PE counters, DRAM contents, and scratchpad
contents.  This is the correctness gate for the pre-decoded hot loop and
its pre-resolved scalar handlers and the cached issue lower bound, on
the named kernels; ``tests/system/test_program_fuzz.py`` extends it to
generated programs.  Both modes share ``Chip.run``'s scheduler loop, so
the scheduler itself is gated separately against a reference loop in
``tests/system/test_scheduler_oracle.py``.
"""

import pytest

from repro.perf.bench import SIM_BENCHES, run_sim_kernel


@pytest.mark.parametrize("fast_path", [True])
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_fast_path_matches_reference(name, fast_path):
    fast = run_sim_kernel(name, fast_path=fast_path, quick=True)
    reference = run_sim_kernel(name, fast_path=False, quick=True)
    # assert_equal raises with a precise message on any divergence.
    fast.assert_equal(reference, f"{name}[{fast_path}]")
    assert fast.cycles > 0
    assert fast.counters.instructions > 0


@pytest.mark.parametrize("fast_path", [True])
def test_bp_tile_full_size_cycles_match(fast_path):
    """One non-quick macro as a deeper check: the larger tile exercises
    multi-strip sweeps, ARC pressure, and the conservative multi-PE
    scheduler more heavily."""
    fast = run_sim_kernel("vault-bp-tile", fast_path=fast_path, quick=False)
    reference = run_sim_kernel("vault-bp-tile", fast_path=False, quick=False)
    fast.assert_equal(reference, f"vault-bp-tile-full[{fast_path}]")
