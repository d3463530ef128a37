"""Dynamic batcher and admission queue behavior."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.serve.batcher import DynamicBatcher
from repro.serve.queueing import AdmissionQueue
from repro.serve.workload import Request


def _req(rid, arrival, kind="bp", tile=0):
    return Request(rid=rid, kind=kind, tile=tile, arrival=arrival)


class TestBatcher:
    def test_fills_to_max_batch_and_closes_at_fill_time(self):
        b = DynamicBatcher(max_batch=3, max_wait_cycles=1000.0)
        assert b.add(_req(0, 10.0)) is None
        assert b.add(_req(1, 20.0)) is None
        batch = b.add(_req(2, 30.0))
        assert batch is not None
        assert batch.size == 3
        assert batch.close == 30.0  # the filling request's arrival
        assert batch.kind == "bp"
        assert b.waiting == 0

    def test_deadline_closes_partial_batch(self):
        b = DynamicBatcher(max_batch=8, max_wait_cycles=100.0)
        b.add(_req(0, 10.0))
        assert b.due(50.0) == []          # deadline is 110
        (batch,) = b.due(110.0)
        assert batch.size == 1
        assert batch.close == 110.0       # the deadline, not "now"

    def test_kinds_batch_separately(self):
        b = DynamicBatcher(max_batch=2, max_wait_cycles=1000.0)
        b.add(_req(0, 1.0, kind="bp"))
        b.add(_req(1, 2.0, kind="conv"))
        assert b.waiting == 2
        batch = b.add(_req(2, 3.0, kind="bp"))
        assert batch.kind == "bp" and batch.size == 2
        assert b.waiting == 1  # the conv request still open

    def test_flush_closes_everything_at_deadlines(self):
        b = DynamicBatcher(max_batch=8, max_wait_cycles=100.0)
        b.add(_req(0, 10.0, kind="conv"))
        b.add(_req(1, 5.0, kind="bp"))
        batches = b.flush()
        assert [x.kind for x in batches] == ["bp", "conv"]  # deadline order
        assert [x.close for x in batches] == [105.0, 110.0]
        assert b.waiting == 0

    def test_batch_tile_is_oldest_requests(self):
        b = DynamicBatcher(max_batch=2, max_wait_cycles=100.0)
        b.add(_req(0, 1.0, tile=7))
        batch = b.add(_req(1, 2.0, tile=3))
        assert batch.tile == 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            DynamicBatcher(0, 10.0)
        with pytest.raises(ConfigError):
            DynamicBatcher(1, -1.0)


class TestAdmissionQueue:
    def test_drop_newest_sheds_arrival(self):
        batcher = DynamicBatcher(max_batch=8, max_wait_cycles=1e6)
        q = AdmissionQueue(batcher, capacity=2, shed_policy="drop-newest")
        assert q.offer(_req(0, 1.0)).shed is None
        assert q.offer(_req(1, 2.0)).shed is None
        adm = q.offer(_req(2, 3.0))
        assert adm.shed is not None and adm.shed.rid == 2
        assert q.waiting == 2

    def test_drop_oldest_evicts_head_and_admits(self):
        batcher = DynamicBatcher(max_batch=8, max_wait_cycles=1e6)
        q = AdmissionQueue(batcher, capacity=2, shed_policy="drop-oldest")
        q.offer(_req(0, 1.0, kind="bp"))
        q.offer(_req(1, 2.0, kind="conv"))
        adm = q.offer(_req(2, 3.0, kind="conv"))
        assert adm.shed is not None and adm.shed.rid == 0  # oldest overall
        assert q.waiting == 2
        # the bp open batch emptied out entirely
        assert batcher.oldest().rid == 1

    def test_admitted_request_can_fill_a_batch(self):
        batcher = DynamicBatcher(max_batch=2, max_wait_cycles=1e6)
        q = AdmissionQueue(batcher, capacity=8)
        q.offer(_req(0, 1.0))
        adm = q.offer(_req(1, 2.0))
        assert adm.filled is not None and adm.filled.size == 2

    def test_drop_oldest_with_nothing_to_evict_is_a_simulation_error(self):
        # A waiting count at capacity with no open batch is corrupt
        # state; it must fail loudly (also under ``python -O``) instead
        # of evicting None.
        batcher = DynamicBatcher(max_batch=8, max_wait_cycles=1e6)
        q = AdmissionQueue(batcher, capacity=2, shed_policy="drop-oldest")
        batcher.waiting = 2
        with pytest.raises(SimulationError, match="no open request"):
            q.offer(_req(0, 1.0))

    def test_plain_admits_share_one_outcome(self):
        batcher = DynamicBatcher(max_batch=8, max_wait_cycles=1e6)
        q = AdmissionQueue(batcher, capacity=8)
        first, second = q.offer(_req(0, 1.0)), q.offer(_req(1, 2.0))
        assert first is second
        assert first.shed is None and first.filled is None

    def test_validation(self):
        batcher = DynamicBatcher(1, 0.0)
        with pytest.raises(ConfigError):
            AdmissionQueue(batcher, capacity=0)
        with pytest.raises(ConfigError):
            AdmissionQueue(batcher, capacity=1, shed_policy="random")
