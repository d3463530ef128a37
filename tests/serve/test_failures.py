"""Units for the failure lifecycle, circuit breaker, and health monitor."""

import pytest

from repro.errors import ConfigError
from repro.serve.failures import (
    ChipFailureTimeline,
    FailureConfig,
    FailureWindow,
    scripted_timeline,
)
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    HealthMonitor,
    ResilienceConfig,
)


class TestFailureConfig:
    def test_disabled_by_default(self):
        assert not FailureConfig().enabled

    def test_enabled_when_any_chip_listed(self):
        assert FailureConfig(fail_stop_chips=(0,)).enabled
        assert FailureConfig(fail_slow_chips=(1,)).enabled
        assert FailureConfig(transient_chips=(2,)).enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            FailureConfig(fail_stop_mtbf_cycles=0.0)
        with pytest.raises(ConfigError):
            FailureConfig(fail_slow_factor=0.5)
        with pytest.raises(ConfigError):
            FailureConfig(fail_stop_chips=(-1,))
        with pytest.raises(ConfigError):
            FailureConfig(transient_chips=(4,)).validate_chips(4)

    def test_as_dict_round_trips_tuples(self):
        d = FailureConfig(fail_stop_chips=(0, 2)).as_dict()
        assert d["fail_stop_chips"] == [0, 2]
        assert d["seed"] == 0


class TestTimeline:
    def test_query_order_never_changes_the_schedule(self):
        config = FailureConfig(seed=5, fail_stop_chips=(0, 1),
                               fail_stop_mtbf_cycles=10_000.0,
                               repair_mean_cycles=3_000.0)
        a = ChipFailureTimeline(config, 2)
        b = ChipFailureTimeline(config, 2)
        # a walks forward; b jumps straight to the horizon, then back.
        probes = [0.0, 5_000.0, 20_000.0, 80_000.0]
        seen_a = [a.down_at(0, t) for t in probes]
        seen_b = [b.down_at(0, t) for t in reversed(probes)][::-1]
        assert seen_a == seen_b
        assert a.down_at(1, 50_000.0) == b.down_at(1, 50_000.0)

    def test_streams_are_independent_per_chip_and_mode(self):
        config = FailureConfig(seed=5, fail_stop_chips=(0, 1),
                               fail_slow_chips=(0,),
                               fail_stop_mtbf_cycles=10_000.0,
                               repair_mean_cycles=3_000.0)
        solo = FailureConfig(seed=5, fail_stop_chips=(0, 1),
                             fail_stop_mtbf_cycles=10_000.0,
                             repair_mean_cycles=3_000.0)
        both = ChipFailureTimeline(config, 2)
        only = ChipFailureTimeline(solo, 2)
        # Adding fail-slow windows must not shift the fail-stop streams.
        for t in (0.0, 40_000.0, 90_000.0):
            assert both.down_at(0, t) == only.down_at(0, t)
            assert both.down_at(1, t) == only.down_at(1, t)

    def test_unlisted_chip_never_fails(self):
        config = FailureConfig(fail_stop_chips=(0,),
                               fail_stop_mtbf_cycles=1_000.0)
        timeline = ChipFailureTimeline(config, 2)
        for t in (0.0, 1e5, 1e6):
            assert timeline.down_at(1, t) is None
            assert timeline.slow_factor_at(1, t) == 1.0
            assert not timeline.transient_at(1, t)

    def test_scripted_windows_are_ground_truth(self):
        timeline = scripted_timeline(2, {
            0: [FailureWindow("fail-stop", 100.0, 300.0)],
            1: [FailureWindow("fail-slow", 50.0, 200.0, factor=4.0),
                FailureWindow("transient", 400.0, 500.0)],
        })
        assert timeline.down_at(0, 100.0) is not None
        assert timeline.down_at(0, 299.0) is not None
        assert timeline.down_at(0, 300.0) is None  # [start, end)
        assert timeline.slow_factor_at(1, 60.0) == 4.0
        assert timeline.slow_factor_at(1, 250.0) == 1.0
        assert timeline.transient_at(1, 450.0)
        assert not timeline.transient_at(0, 450.0)

    def test_fail_stop_in_catches_kills_and_dead_launches(self):
        timeline = scripted_timeline(1, {
            0: [FailureWindow("fail-stop", 100.0, 300.0)],
        })
        # launch running over the failure instant is killed
        assert timeline.fail_stop_in(0, 50.0, 200.0).start == 100.0
        # launch into a dead chip is killed immediately
        assert timeline.fail_stop_in(0, 150.0, 250.0).start == 100.0
        # launch entirely before or after the window survives
        assert timeline.fail_stop_in(0, 0.0, 100.0) is None
        assert timeline.fail_stop_in(0, 300.0, 900.0) is None

    def test_scripted_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            scripted_timeline(1, {0: [FailureWindow("melt", 0.0, 1.0)]})

    def test_scripted_rejects_overlapping_windows_of_one_kind(self):
        with pytest.raises(ConfigError, match="chip 0 fail-stop"):
            scripted_timeline(1, {0: [
                FailureWindow("fail-stop", 250.0, 400.0),
                FailureWindow("fail-stop", 100.0, 300.0)]})

    def test_scripted_accepts_touching_and_cross_kind_windows(self):
        timeline = scripted_timeline(2, {
            # [start, end) episodes that only touch do not overlap.
            0: [FailureWindow("fail-stop", 100.0, 200.0),
                FailureWindow("fail-stop", 200.0, 300.0),
                # Different kinds on one chip may overlap freely.
                FailureWindow("fail-slow", 150.0, 250.0, factor=2.0)],
            # The same span on another chip is a different timeline.
            1: [FailureWindow("fail-stop", 100.0, 300.0)],
        })
        assert timeline.down_at(0, 200.0).start == 200.0
        assert timeline.slow_factor_at(0, 160.0) == 2.0


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(health_check_interval_cycles=0.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(health_false_positive_rate=1.5)
        with pytest.raises(ConfigError):
            ResilienceConfig(breaker_failure_threshold=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(hedge_delay_cycles=-1.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(shed_tiers=((0.5, 1.0), (0.75, 0.5)))
        with pytest.raises(ConfigError):
            ResilienceConfig(shed_tiers=((0.5, 0.0),))

    def test_backoff_is_exponential(self):
        config = ResilienceConfig(retry_backoff_cycles=100.0)
        assert config.backoff_cycles(1) == 100.0
        assert config.backoff_cycles(2) == 200.0
        assert config.backoff_cycles(3) == 400.0

    def test_tier_multiplier_picks_first_met_threshold(self):
        config = ResilienceConfig(
            shed_tiers=((0.75, 1.0), (0.5, 0.5), (0.0, 0.125)))
        assert config.tier_multiplier(1.0) == 1.0
        assert config.tier_multiplier(0.75) == 1.0
        assert config.tier_multiplier(0.6) == 0.5
        assert config.tier_multiplier(0.1) == 0.125


class TestCircuitBreaker:
    def test_scripted_transition_cycle(self):
        b = CircuitBreaker(0, threshold=2, open_cycles=100.0)
        assert b.state == CLOSED
        b.record_failure(10.0)
        assert b.state == CLOSED  # below threshold
        b.record_failure(20.0)
        assert b.state == OPEN    # threshold hit
        assert not b.allow(50.0)  # still open
        assert b.allow(120.0)     # past open window -> half-open probe
        assert b.state == HALF_OPEN
        b.record_success(130.0)
        assert b.state == CLOSED
        assert b.opened_count == 1

    def test_half_open_failure_reopens(self):
        b = CircuitBreaker(0, threshold=2, open_cycles=100.0)
        b.record_failure(0.0)
        b.record_failure(1.0)
        assert b.allow(150.0) and b.state == HALF_OPEN
        b.record_failure(160.0)  # the probe failed
        assert b.state == OPEN
        assert not b.allow(200.0)
        assert b.opened_count == 2

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(0, threshold=2, open_cycles=100.0)
        b.record_failure(0.0)
        b.record_success(1.0)
        b.record_failure(2.0)
        assert b.state == CLOSED  # streak broken; never reached threshold


class TestHealthMonitor:
    def _monitor(self, windows, chips=2, **kw):
        defaults = dict(health_check_interval_cycles=100.0,
                        breaker_open_cycles=150.0)
        defaults.update(kw)
        config = ResilienceConfig(**defaults)
        timeline = scripted_timeline(chips, windows)
        return HealthMonitor(config, timeline, chips)

    def test_detection_waits_for_the_next_tick(self):
        m = self._monitor({0: [FailureWindow("fail-stop", 90.0, 250.0)]})
        assert m.allow(0, 95.0)  # failure not yet observed
        m.advance(100.0)         # tick 1 sees the downtime
        assert not m.allow(0, 101.0)
        assert m.allow(1, 101.0)  # healthy chip unaffected
        assert m.detect_time(90.0) == 100.0
        assert m.detect_time(100.0) == 200.0  # strictly the *next* tick

    def test_detection_latency_shifts_belief(self):
        m = self._monitor({0: [FailureWindow("fail-stop", 90.0, 1e6)]},
                          detection_latency_cycles=30.0)
        assert m.detect_time(90.0) == 130.0

    def test_repair_reintegrates_through_half_open(self):
        m = self._monitor({0: [FailureWindow("fail-stop", 90.0, 150.0)]})
        m.advance(100.0)                 # open at 100, open_cycles=150
        assert not m.allow(0, 120.0)
        m.advance(200.0)                 # tick 2: chip repaired -> success
        # the healthy tick at 200 lands before open_until (250): streak
        # reset but still open; the tick at 300 closes it half-open.
        m.advance(300.0)
        assert m.allow(0, 301.0)
        assert m.breakers[0].state == CLOSED

    def test_false_positives_are_seeded_and_counted(self):
        m1 = self._monitor({}, health_false_positive_rate=0.5)
        m2 = self._monitor({}, health_false_positive_rate=0.5)
        m1.advance(2_000.0)
        m2.advance(2_000.0)
        assert m1.false_positives == m2.false_positives
        assert m1.false_positives > 0
        states1 = [b.state for b in m1.breakers]
        states2 = [b.state for b in m2.breakers]
        assert states1 == states2

    def test_alive_fraction(self):
        m = self._monitor({0: [FailureWindow("fail-stop", 50.0, 1e6)]})
        assert m.alive_fraction(0.0) == 1.0
        m.advance(100.0)
        assert m.alive_fraction(101.0) == 0.5


class TestCorrelatedDomains:
    """Zone/rack failure domains: one seeded event per domain takes
    every member chip out at once."""

    def test_domains_enable_the_config(self):
        assert FailureConfig(domains=((0, 1),)).enabled
        assert not FailureConfig().enabled

    def test_domain_validation(self):
        with pytest.raises(ConfigError, match=r"domains\[0\]"):
            FailureConfig(domains=((),))
        with pytest.raises(ConfigError, match=r"domains\[0\]"):
            FailureConfig(domains=((-1,),))
        with pytest.raises(ConfigError, match="domain_slow_factor"):
            FailureConfig(domains=((0,),), domain_slow_factor=0.5)
        with pytest.raises(ConfigError, match="domain_mode"):
            FailureConfig(domains=((0,),), domain_mode="explode")
        with pytest.raises(ConfigError, match=r"domains\[0\] out of range"):
            FailureConfig(domains=((0, 5),)).validate_chips(2)

    def test_scripted_domain_window_covers_every_member(self):
        t = scripted_timeline(
            4, {}, domains=((0, 1),),
            domain_windows={0: [FailureWindow("fail-stop", 100.0, 200.0)]})
        for chip in (0, 1):
            assert t.domain_outage_at(chip, 150.0) is not None
            assert t.down_at(chip, 150.0) is not None  # merges into kill
            assert t.down_at(chip, 250.0) is None
        for chip in (2, 3):  # non-members never see the outage
            assert t.domain_outage_at(chip, 150.0) is None
            assert t.down_at(chip, 150.0) is None
        assert t.domains_of(0) == (0,)
        assert t.domains_of(2) == ()

    def test_fail_stop_in_catches_domain_kills(self):
        t = scripted_timeline(
            2, {}, domains=((0, 1),),
            domain_windows={0: [FailureWindow("fail-stop", 100.0, 200.0)]})
        # A launch spanning the outage start dies; one after repair runs.
        w = t.fail_stop_in(1, 50.0, 150.0)
        assert w is not None and w.start == 100.0
        assert t.fail_stop_in(1, 200.0, 300.0) is None

    def test_fail_slow_domains_stretch_not_kill(self):
        t = scripted_timeline(
            2, {}, domains=((0, 1),), domain_mode="fail-slow",
            domain_windows={0: [FailureWindow("fail-slow", 100.0, 200.0,
                                              factor=3.0)]})
        for chip in (0, 1):
            assert t.slow_factor_at(chip, 150.0) == 3.0
            assert t.slow_factor_at(chip, 50.0) == 1.0
            assert t.down_at(chip, 150.0) is None  # nothing dies

    def test_scripted_rejects_overlapping_domain_windows(self):
        with pytest.raises(ConfigError, match="domain 0"):
            scripted_timeline(
                2, {}, domains=((0, 1),),
                domain_windows={0: [FailureWindow("fail-stop", 100.0, 200.0),
                                    FailureWindow("fail-stop", 199.0, 300.0)]})

    def test_scripted_rejects_mode_mismatched_domain_window(self):
        with pytest.raises(ConfigError, match="!= mode"):
            scripted_timeline(
                2, {}, domains=((0, 1),),
                domain_windows={0: [FailureWindow("fail-slow", 0.0, 1.0)]})

    def test_members_share_one_seeded_event_stream(self):
        config = FailureConfig(seed=7, domains=((0, 1), (2,)),
                               domain_mtbf_cycles=10_000.0,
                               domain_repair_mean_cycles=5_000.0)
        t = ChipFailureTimeline(config, 3)
        horizon = 200_000.0
        w01 = t.domain_windows_until(0, horizon)
        assert w01  # the clock fired within the horizon
        # Both members observe exactly the shared windows.
        for w in w01:
            mid = (w.start + w.end) / 2
            assert t.domain_outage_at(0, mid) is w or \
                t.domain_outage_at(0, mid).start == w.start
            assert t.domain_outage_at(1, mid).start == w.start
        # Distinct domains draw from independent streams.
        w2 = t.domain_windows_until(1, horizon)
        assert [w.start for w in w01] != [w.start for w in w2]

    def test_adding_domains_never_shifts_chip_streams(self):
        base = FailureConfig(seed=3, fail_stop_chips=(0,),
                             fail_stop_mtbf_cycles=20_000.0,
                             repair_mean_cycles=5_000.0)
        with_domains = FailureConfig(
            seed=3, fail_stop_chips=(0,),
            fail_stop_mtbf_cycles=20_000.0, repair_mean_cycles=5_000.0,
            domains=((0, 1),), domain_mtbf_cycles=50_000.0)
        t1 = ChipFailureTimeline(base, 2)
        t2 = ChipFailureTimeline(with_domains, 2)
        horizon = 300_000.0
        own1 = t1._ensure(0, "fail-stop", horizon)
        own2 = t2._ensure(0, "fail-stop", horizon)
        assert [(w.start, w.end) for w in own1] \
            == [(w.start, w.end) for w in own2]
