"""Property tests for the serving host path's fast lookups.

The failure timeline answers point and span queries by bisecting
start-sorted, disjoint windows, and ``down_at`` caches each chip's
current healthy interval; the dynamic batcher keeps its ``waiting``
count as a running total and its earliest deadline as a cached
minimum.  All are checked here against plain linear-scan oracles on
generated inputs.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import DynamicBatcher
from repro.serve.failures import (
    ChipFailureTimeline,
    FailureConfig,
    FailureWindow,
    scripted_timeline,
)
from repro.serve.workload import Request

CHIPS = 3
#: Chip 1 sits in both domains, so multi-domain lookups are exercised.
DOMAINS = ((0, 1), (1, 2))
HORIZON = 400_000.0


# -- failure timeline -------------------------------------------------


def _timeline_config(seed, domain_mode, mtbf):
    return FailureConfig(
        seed=seed,
        fail_stop_chips=(0, 1), fail_stop_mtbf_cycles=mtbf,
        repair_mean_cycles=mtbf / 3,
        fail_slow_chips=(1, 2), fail_slow_mtbf_cycles=mtbf,
        fail_slow_duration_cycles=mtbf / 2, fail_slow_factor=3.0,
        transient_chips=(0, 2), transient_mtbf_cycles=mtbf,
        transient_duration_cycles=mtbf / 4,
        domains=DOMAINS, domain_mtbf_cycles=2 * mtbf,
        domain_repair_mean_cycles=mtbf / 2,
        domain_mode=domain_mode, domain_slow_factor=5.0)


class LinearOracle:
    """The timeline queries as full scans over a timeline's windows."""

    def __init__(self, timeline):
        self.tl = timeline

    def _own(self, chip, kind, t):
        return self.tl._ensure(chip, kind, t)

    def _domain(self, idx, t):
        return self.tl._ensure_domain(idx, t)

    def window_at(self, chip, kind, t):
        for w in self._own(chip, kind, t):
            if w.start <= t < w.end:
                return w
        if self.tl.config.domain_mode == kind:
            return self.domain_outage_at(chip, t)
        return None

    def fail_stop_in(self, chip, t0, t1):
        down = self.window_at(chip, "fail-stop", t0)
        if down is not None:
            return down
        starts = [w for w in self._own(chip, "fail-stop", t1)
                  if t0 < w.start < t1]
        if self.tl.config.domain_mode == "fail-stop":
            for idx in self.tl.domains_of(chip):
                starts += [w for w in self._domain(idx, t1)
                           if t0 < w.start < t1]
        return min(starts, key=lambda w: w.start, default=None)

    def slow_factor_at(self, chip, t):
        w = self.window_at(chip, "fail-slow", t)
        factor = w.factor if w is not None else 1.0
        if self.tl.config.domain_mode == "fail-slow":
            for idx in self.tl.domains_of(chip):
                for dw in self._domain(idx, t):
                    if dw.start <= t < dw.end:
                        factor = max(factor, dw.factor)
        return factor

    def domain_outage_at(self, chip, t):
        for idx in self.tl.domains_of(chip):
            for w in self._domain(idx, t):
                if w.start <= t < w.end:
                    return w
        return None

    def domain_windows_until(self, idx, t):
        return [w for w in self._domain(idx, t) if w.start <= t]


def _edges(oracle):
    """Every window start and end below the horizon: the boundary
    instants where an off-by-one in a bisect would show."""
    out = []
    for chip in range(CHIPS):
        for kind in ("fail-stop", "fail-slow", "transient"):
            for w in oracle._own(chip, kind, HORIZON):
                out += [w.start, w.end]
    for idx in range(len(DOMAINS)):
        for w in oracle._domain(idx, HORIZON):
            out += [w.start, w.end]
    return [t for t in out if t <= HORIZON]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       domain_mode=st.sampled_from(["fail-stop", "fail-slow"]),
       mtbf=st.sampled_from([4_000.0, 20_000.0, 90_000.0]),
       probes=st.lists(st.floats(0.0, HORIZON), max_size=30),
       spans=st.lists(st.floats(0.0, 30_000.0), min_size=1, max_size=4))
def test_timeline_queries_match_linear_scans(seed, domain_mode, mtbf,
                                             probes, spans):
    config = _timeline_config(seed, domain_mode, mtbf)
    fast = ChipFailureTimeline(config, CHIPS)
    oracle = LinearOracle(ChipFailureTimeline(config, CHIPS))
    times = sorted(probes + _edges(oracle))
    for i, t in enumerate(times):
        span = spans[i % len(spans)]
        for chip in range(CHIPS):
            assert fast.down_at(chip, t) == oracle.window_at(
                chip, "fail-stop", t)
            assert fast.transient_at(chip, t) == (
                oracle.window_at(chip, "transient", t) is not None)
            assert fast.slow_factor_at(chip, t) == oracle.slow_factor_at(
                chip, t)
            assert fast.domain_outage_at(chip, t) == \
                oracle.domain_outage_at(chip, t)
            assert fast.fail_stop_in(chip, t, t + span) == \
                oracle.fail_stop_in(chip, t, t + span)
        for idx in range(len(DOMAINS)):
            assert fast.domain_windows_until(idx, t) == \
                oracle.domain_windows_until(idx, t)


def _assert_down_at_matches(fast, oracle, probes, shuffle_seed, span):
    """``down_at`` on every chip at the probes, every window edge and
    the float just below each edge: forward, then backward, then in a
    shuffled order, with a span query now and then to generate windows
    ahead."""
    times = sorted(probes + [p for t in _edges(oracle)
                             for p in (t, math.nextafter(t, -math.inf))])
    shuffled = list(times)
    random.Random(shuffle_seed).shuffle(shuffled)
    for i, t in enumerate(times + times[::-1] + shuffled):
        for chip in range(CHIPS):
            assert fast.down_at(chip, t) == oracle.window_at(
                chip, "fail-stop", t), (chip, t)
        if i % 7 == 0:
            fast.fail_stop_in(i % CHIPS, t, t + span)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       domain_mode=st.sampled_from(["fail-stop", "fail-slow"]),
       mtbf=st.sampled_from([4_000.0, 20_000.0, 90_000.0]),
       probes=st.lists(st.floats(0.0, HORIZON), max_size=30),
       span=st.floats(0.0, 300_000.0),
       shuffle_seed=st.integers(0, 2**32))
def test_down_at_matches_linear_scan_out_of_order(seed, domain_mode, mtbf,
                                                  probes, span, shuffle_seed):
    """Drawn timelines, queried out of order."""
    config = _timeline_config(seed, domain_mode, mtbf)
    fast = ChipFailureTimeline(config, CHIPS)
    oracle = LinearOracle(ChipFailureTimeline(config, CHIPS))
    _assert_down_at_matches(fast, oracle, probes, shuffle_seed, span)


def _scripted_windows(kind, episodes):
    """Disjoint, start-sorted windows from (gap, duration) pairs."""
    out, t = [], 0.0
    for gap, duration in episodes:
        start = t + gap
        out.append(FailureWindow(kind, start, start + duration))
        t = start + duration
    return out


_episodes = st.lists(st.tuples(st.floats(0.0, 50_000.0),
                               st.floats(1.0, 40_000.0)), max_size=6)


@settings(max_examples=60, deadline=None)
@given(own=st.lists(_episodes, min_size=CHIPS, max_size=CHIPS),
       domain=st.lists(_episodes, min_size=len(DOMAINS),
                       max_size=len(DOMAINS)),
       probes=st.lists(st.floats(0.0, HORIZON), max_size=20),
       shuffle_seed=st.integers(0, 2**32))
def test_down_at_matches_linear_scan_on_scripted_timelines(own, domain,
                                                           probes,
                                                           shuffle_seed):
    """Scripted timelines: own fail-stop windows plus two overlapping
    fail-stop domains, queried out of order."""
    def build():
        return scripted_timeline(
            CHIPS,
            {chip: _scripted_windows("fail-stop", eps)
             for chip, eps in enumerate(own)},
            domains=DOMAINS,
            domain_windows={idx: _scripted_windows("fail-stop", eps)
                            for idx, eps in enumerate(domain)})

    _assert_down_at_matches(build(), LinearOracle(build()), probes,
                            shuffle_seed, 10_000.0)


# -- dynamic batcher ----------------------------------------------------

KINDS = ("bp", "conv", "fc")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(KINDS),
                  st.floats(0.0, 40.0)),
        st.tuples(st.just("remove"), st.integers(0, 1_000)),
        st.tuples(st.just("drop-oldest")),
        st.tuples(st.just("due"), st.floats(0.0, 80.0)),
        st.tuples(st.just("flush")),
    ),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(max_batch=st.integers(1, 5), max_wait=st.floats(0.0, 60.0),
       ops=_ops)
def test_batcher_waiting_and_due_match_a_sorted_scan(max_batch, max_wait,
                                                     ops):
    batcher = DynamicBatcher(max_batch, max_wait)
    #: The oracle's open batches: kind -> [deadline, requests].
    model: dict = {}
    now, rid = 0.0, 0
    for op in ops:
        if op[0] == "add":
            _, kind, gap = op
            now += gap
            req = Request(rid=rid, kind=kind, tile=rid % 3, arrival=now)
            rid += 1
            entry = model.setdefault(kind, [now + max_wait, []])
            entry[1].append(req)
            filled = batcher.add(req)
            if len(entry[1]) >= max_batch:
                del model[kind]
                assert filled is not None
                assert filled.requests == entry[1]
            else:
                assert filled is None
        elif op[0] == "remove":
            residents = [r for _, reqs in model.values() for r in reqs]
            if not residents:
                continue
            req = residents[op[1] % len(residents)]
            batcher.remove(req)
            model[req.kind][1].remove(req)
            if not model[req.kind][1]:
                del model[req.kind]
        elif op[0] == "drop-oldest":
            # Evict the oldest resident, as drop-oldest shedding does; when
            # that empties its batch, release at exactly its old deadline.
            residents = [r for _, reqs in model.values() for r in reqs]
            if not residents:
                continue
            req = min(residents, key=lambda r: r.arrival)
            assert batcher.oldest() == req
            batcher.remove(req)
            deadline, reqs = model[req.kind]
            reqs.remove(req)
            if not reqs:
                del model[req.kind]
                _check_due(batcher, model, deadline)
        elif op[0] == "due":
            _check_due(batcher, model, now + op[1])
        else:
            expected = sorted(((d, kind, reqs)
                               for kind, (d, reqs) in model.items()),
                              key=lambda e: (e[0], e[1]))
            got = batcher.flush()
            assert [(b.close, b.kind, b.requests) for b in got] == expected
            model.clear()
        assert batcher.waiting == sum(len(reqs) for _, reqs in model.values())
        assert batcher.waiting == sum(batcher.kind_depth(k) for k in KINDS)
        assert batcher._next_deadline == min(
            (d for d, _ in model.values()), default=math.inf)


def _check_due(batcher, model, at):
    """``due(at)`` releases exactly the oracle's expired batches, in
    (deadline, kind) order."""
    expected = sorted(
        ((d, kind, reqs) for kind, (d, reqs) in model.items() if d <= at),
        key=lambda e: (e[0], e[1]))
    got = batcher.due(at)
    assert [(b.close, b.kind, b.requests) for b in got] == expected
    for _, kind, _ in expected:
        del model[kind]
