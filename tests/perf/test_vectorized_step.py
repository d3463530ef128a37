"""Unit tests for the vectorized-stepping machinery (repro.pe.batch).

The end-to-end exactness gate lives in ``test_fastpath_equiv.py`` (the
``"vector"`` mode must be byte-identical to the reference interpreter on
every bench kernel); these tests pin the queue mechanics that make that
hold — flush-on-key-change, flush-on-RAW, the capacity bound — and that
a batched flush scatters exactly what per-instruction execution would.
"""

import numpy as np
import pytest

from repro.isa.instructions import Opcode
from repro.pe.batch import VectorOpQueue
from repro.pe.vector_unit import ScratchpadView, apply_vertical


class _FakePE:
    """The slice of PE state the queue touches: scratchpad bytes + fx."""

    def __init__(self, nbytes=1024, fx=0):
        self.scratchpad = np.zeros(nbytes, dtype=np.uint8)
        self.sp = ScratchpadView(self.scratchpad)
        self.fx = fx


def _fill(pe, seed=3):
    rng = np.random.default_rng(seed)
    pe.scratchpad[:] = rng.integers(0, 256, pe.scratchpad.size, dtype=np.uint8)


def _push_vv(q, pe, vop, src1, src2, dst, cols=8, width=16):
    n = cols * width // 8
    q.push(pe, Opcode.VV, vop, None, width, 1, cols, src1, src2, dst,
           reads=[(src1, n), (src2, n)], writes=[(dst, n)])


def test_same_shape_ops_accumulate():
    pe = _FakePE()
    q = VectorOpQueue()
    _push_vv(q, pe, "add", 0, 16, 32)
    _push_vv(q, pe, "add", 48, 64, 80)
    assert len(q.ops) == 2


def test_key_change_flushes_previous_ops():
    pe = _FakePE()
    _fill(pe)
    before = pe.scratchpad.copy()
    q = VectorOpQueue()
    _push_vv(q, pe, "add", 0, 16, 32)
    assert np.array_equal(pe.scratchpad, before)  # still deferred
    _push_vv(q, pe, "mul", 48, 64, 80)  # different vop -> new shape key
    assert len(q.ops) == 1  # the add was flushed out
    a = before[0:16].view(np.int16).astype(np.int64)
    b = before[16:32].view(np.int16).astype(np.int64)
    expected = apply_vertical("add", a, b, 16, 0).astype(np.int16)
    assert np.array_equal(pe.scratchpad[32:48].view(np.int16), expected)


def test_raw_overlap_flushes():
    pe = _FakePE()
    _fill(pe)
    q = VectorOpQueue()
    _push_vv(q, pe, "add", 0, 16, 32)
    # Reads the bytes the queued op writes: must flush before queuing.
    _push_vv(q, pe, "add", 32, 64, 96)
    assert len(q.ops) == 1
    # ...and the flushed result is what the second op then read.
    a = pe.scratchpad[0:16].view(np.int16).astype(np.int64)
    assert a.size == 8


def test_war_and_waw_do_not_flush():
    pe = _FakePE()
    q = VectorOpQueue()
    _push_vv(q, pe, "add", 0, 16, 32)
    # WAR: writes bytes the queued op reads.  WAW: writes the same dst.
    _push_vv(q, pe, "add", 48, 64, 16)
    _push_vv(q, pe, "add", 48, 64, 32)
    assert len(q.ops) == 3


def test_capacity_bound_flushes():
    pe = _FakePE(nbytes=8192)
    _fill(pe)
    q = VectorOpQueue()
    stride = 48
    for i in range(q.CAP + 1):
        base = i * stride
        _push_vv(q, pe, "add", base, base + 16, base + 32)
    assert len(q.ops) == 1  # CAP ops flushed, the overflow op queued


@pytest.mark.parametrize("vop", ["add", "mul", "max"])
def test_batched_flush_matches_sequential(vop):
    pe = _FakePE()
    _fill(pe, seed=11)
    reference = pe.scratchpad.copy()
    q = VectorOpQueue()
    layout = [(0, 16, 32), (48, 64, 80), (96, 112, 128), (144, 160, 176)]
    for src1, src2, dst in layout:
        _push_vv(q, pe, vop, src1, src2, dst)
    q.flush(pe)
    # Sequential reference: one apply_vertical per op, in order.
    for src1, src2, dst in layout:
        a = reference[src1:src1 + 16].view(np.int16).astype(np.int64)
        b = reference[src2:src2 + 16].view(np.int16).astype(np.int64)
        out = apply_vertical(vop, a, b, 16, 0).astype(np.int16)
        reference[dst:dst + 16] = out.view(np.uint8)
    assert np.array_equal(pe.scratchpad, reference)
    assert not q.ops  # flush leaves the queue empty


def test_flush_on_empty_queue_is_noop():
    pe = _FakePE()
    before = pe.scratchpad.copy()
    VectorOpQueue().flush(pe)
    assert np.array_equal(pe.scratchpad, before)
