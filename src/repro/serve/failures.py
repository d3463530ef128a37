"""The chip failure lifecycle: what physically happens to the fleet.

Production fleets lose chips mid-flight.  This module models *when and
how* — the serving-side machinery that detects and survives it lives in
:mod:`repro.serve.resilience`, and the fleet event loop that weaves the
two together in :mod:`repro.serve.fleet`.

Three failure modes, per chip:

``fail-stop``
    The chip dies outright: every launch in flight at the failure
    instant is killed, launches dispatched while it is down burn nothing
    and complete never, and after an exponentially-distributed repair
    time the chip comes back cold (the resilience layer decides when to
    trust it again).

``fail-slow``
    A straggler window: the chip keeps completing work, but every cycle
    it spends (reload, dispatch handshake, kernel) is stretched by
    ``fail_slow_factor``.  This is the tail-latency killer that hedged
    requests defend against — the batch *will* finish, just too late.

``transient``
    A degradation window during which the chip serves from the
    *degraded* (fault-injected, ECC-correcting) column of the measured
    cost table — the :mod:`repro.faults` composition, switched on and
    off over time instead of statically per chip.

On top of the independent per-chip modes, **correlated failure
domains** model the dominant real-world outage shape: a zone or rack
going dark at once.  A domain is a grouping of chip ids; one seeded
*domain outage* window applies to every member chip simultaneously —
as a shared fail-stop downtime (``domain_mode="fail-stop"``) or a
shared straggler window (``"fail-slow"``).  Domain windows are drawn
per *domain* (not per chip), so members fail together in one event.

Determinism follows the :mod:`repro.faults` discipline exactly: every
``(chip, mode)`` pair draws its windows from its own
``numpy`` Generator seeded by :func:`repro.faults.injector.stream_seed`
(BLAKE2b over ``(seed, mode, chip)``), windows are generated lazily in
time order, and enabling one mode never shifts another's stream.
Domain streams are keyed ``(seed, "domain", index)`` and are equally
independent: adding a domain never shifts any per-chip stream.  A
fixed :class:`FailureConfig` therefore maps to exactly one failure
schedule on every machine, serial or parallel.

Tests script exact lifecycles by passing explicit windows to
:func:`scripted_timeline` instead of drawing them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import attrgetter

from repro.errors import ConfigError
from repro.faults.injector import stream_seed

FAILURE_KINDS = ("fail-stop", "fail-slow", "transient")


@dataclass(frozen=True)
class FailureConfig:
    """Seeded specification of the fleet's failure lifecycle.

    All times are PE clock cycles.  A mode is active on the chips listed
    in its ``*_chips`` tuple; with every tuple empty the config is
    disabled and the fleet runs the exact pre-failure code path
    (byte-identical reports, null-object style).
    """

    #: Base seed; every per-chip per-mode stream derives from it.
    seed: int = 0

    #: Chips subject to fail-stop events.
    fail_stop_chips: tuple = ()
    #: Mean cycles between fail-stop events (exponential gaps).
    fail_stop_mtbf_cycles: float = 3_000_000.0
    #: Mean repair (downtime) duration per fail-stop event.
    repair_mean_cycles: float = 800_000.0

    #: Chips subject to fail-slow (straggler) windows.
    fail_slow_chips: tuple = ()
    fail_slow_mtbf_cycles: float = 2_000_000.0
    fail_slow_duration_cycles: float = 500_000.0
    #: Service-time multiplier inside a fail-slow window.
    fail_slow_factor: float = 4.0

    #: Chips subject to transient-degradation windows (degraded cost
    #: column — the repro.faults ECC-correcting service times).
    transient_chips: tuple = ()
    transient_mtbf_cycles: float = 2_000_000.0
    transient_duration_cycles: float = 400_000.0

    #: Correlated failure domains: each entry is a tuple of member chip
    #: ids (a zone/rack).  One seeded outage window per domain applies
    #: to every member chip at once.
    domains: tuple = ()
    #: Mean cycles between outages of one domain (exponential gaps).
    domain_mtbf_cycles: float = 5_000_000.0
    #: Mean outage duration per domain event.
    domain_repair_mean_cycles: float = 600_000.0
    #: What a domain outage does to member chips: ``"fail-stop"`` (the
    #: zone goes dark) or ``"fail-slow"`` (the zone browns out).
    domain_mode: str = "fail-stop"
    #: Service multiplier inside a fail-slow domain outage.
    domain_slow_factor: float = 4.0

    def __post_init__(self):
        for f in ("fail_stop_mtbf_cycles", "repair_mean_cycles",
                  "fail_slow_mtbf_cycles", "fail_slow_duration_cycles",
                  "transient_mtbf_cycles", "transient_duration_cycles",
                  "domain_mtbf_cycles", "domain_repair_mean_cycles"):
            if getattr(self, f) <= 0:
                raise ConfigError(f"{f} must be positive")
        if self.fail_slow_factor < 1.0:
            raise ConfigError("fail_slow_factor must be >= 1")
        if self.domain_slow_factor < 1.0:
            raise ConfigError("domain_slow_factor must be >= 1")
        if self.domain_mode not in ("fail-stop", "fail-slow"):
            raise ConfigError(
                f"domain_mode must be fail-stop or fail-slow, "
                f"got {self.domain_mode!r}")
        for f in ("fail_stop_chips", "fail_slow_chips", "transient_chips"):
            if any(c < 0 for c in getattr(self, f)):
                raise ConfigError(f"{f} contains a negative chip id")
        for i, members in enumerate(self.domains):
            if not isinstance(members, tuple) or not members:
                raise ConfigError(f"domains[{i}] must be a non-empty "
                                  f"tuple of chip ids")
            if any(not isinstance(c, int) or c < 0 for c in members):
                raise ConfigError(f"domains[{i}] contains an invalid chip id")

    @property
    def enabled(self) -> bool:
        """True when at least one chip is subject to at least one mode."""
        return bool(self.fail_stop_chips or self.fail_slow_chips
                    or self.transient_chips or self.domains)

    def validate_chips(self, chips: int) -> None:
        for f in ("fail_stop_chips", "fail_slow_chips", "transient_chips"):
            bad = [c for c in getattr(self, f) if not 0 <= c < chips]
            if bad:
                raise ConfigError(f"{f} out of range for {chips} chips: {bad}")
        for i, members in enumerate(self.domains):
            bad = [c for c in members if not 0 <= c < chips]
            if bad:
                raise ConfigError(
                    f"domains[{i}] out of range for {chips} chips: {bad}")

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "domains":
                out[f.name] = [list(members) for members in value]
            else:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class FailureWindow:
    """One failure episode on one chip: ``[start, end)``."""

    kind: str  # one of FAILURE_KINDS
    start: float
    end: float
    #: Service multiplier (fail-slow windows; 1.0 otherwise).
    factor: float = 1.0


_start = attrgetter("start")


def _containing(windows: list[FailureWindow], t: float) -> FailureWindow | None:
    """The window of a disjoint, start-sorted list containing ``t``."""
    i = bisect_right(windows, t, key=_start)
    if i:
        w = windows[i - 1]
        if t < w.end:
            return w
    return None


def _first_start_in(windows: list[FailureWindow], t0: float,
                    t1: float) -> FailureWindow | None:
    """The first window of a start-sorted list starting in ``(t0, t1)``."""
    i = bisect_right(windows, t0, key=_start)
    if i < len(windows) and windows[i].start < t1:
        return windows[i]
    return None


class ChipFailureTimeline:
    """The physical failure schedule of every chip, generated lazily.

    Windows per ``(chip, mode)`` are drawn in time order from that
    pair's own seeded stream, so any query order produces the same
    schedule.  The timeline is the *ground truth* the event loop
    consults; the scheduler only ever learns about it through health
    checks and failed launches (:mod:`repro.serve.resilience`).
    """

    def __init__(self, config: FailureConfig, chips: int):
        config.validate_chips(chips)
        self.config = config
        self.chips = chips
        #: (chip, kind) -> generated windows, in start order.
        self._windows: dict[tuple[int, str], list[FailureWindow]] = {}
        #: (chip, kind) -> every window starting at or before this time
        #: has been generated.
        self._covered: dict[tuple[int, str], float] = {}
        self._rngs: dict[tuple[int, str], object] = {}
        #: domain index -> generated outage windows, in start order.
        self._domain_windows: dict[int, list[FailureWindow]] = {}
        self._domain_covered: dict[int, float] = {}
        self._domain_rngs: dict[int, object] = {}
        #: chip id -> indices of the domains it belongs to.
        self._chip_domains: dict[int, tuple[int, ...]] = {}
        #: chip id -> ``(lo, hi)``: no fail-stop window, own or domain,
        #: covers any instant of ``[lo, hi)`` (see :meth:`down_at`).
        self._healthy: dict[int, tuple[float, float]] = {}
        for i, members in enumerate(config.domains):
            for c in members:
                self._chip_domains[c] = self._chip_domains.get(c, ()) + (i,)

    # -- generation ----------------------------------------------------

    def _params(self, kind: str) -> tuple[tuple, float, float, float]:
        cfg = self.config
        if kind == "fail-stop":
            return (cfg.fail_stop_chips, cfg.fail_stop_mtbf_cycles,
                    cfg.repair_mean_cycles, 1.0)
        if kind == "fail-slow":
            return (cfg.fail_slow_chips, cfg.fail_slow_mtbf_cycles,
                    cfg.fail_slow_duration_cycles, cfg.fail_slow_factor)
        return (cfg.transient_chips, cfg.transient_mtbf_cycles,
                cfg.transient_duration_cycles, 1.0)

    def _ensure(self, chip: int, kind: str, t: float) -> list[FailureWindow]:
        """Generate windows for ``(chip, kind)`` until coverage passes ``t``."""
        key = (chip, kind)
        windows = self._windows.setdefault(key, [])
        covered = self._covered.get(key, 0.0)
        if covered > t:
            return windows
        chips, mtbf, mean_dur, factor = self._params(kind)
        if chip not in chips:
            return windows
        rng = self._rngs.get(key)
        if rng is None:
            import numpy as np
            rng = np.random.default_rng(
                stream_seed(self.config.seed, "serve-fail", kind, chip))
            self._rngs[key] = rng
        while covered <= t:
            gap = float(rng.exponential(mtbf))
            duration = float(rng.exponential(mean_dur))
            start = (windows[-1].end if windows else 0.0) + gap
            windows.append(FailureWindow(kind=kind, start=start,
                                         end=start + duration,
                                         factor=factor))
            covered = start
            self._covered[key] = covered
        return windows

    def _ensure_domain(self, idx: int, t: float) -> list[FailureWindow]:
        """Generate outage windows for domain ``idx`` until coverage
        passes ``t``.  One stream per domain: members share windows."""
        windows = self._domain_windows.setdefault(idx, [])
        covered = self._domain_covered.get(idx, 0.0)
        if covered > t:
            return windows
        rng = self._domain_rngs.get(idx)
        if rng is None:
            import numpy as np
            rng = np.random.default_rng(
                stream_seed(self.config.seed, "serve-fail", "domain", idx))
            self._domain_rngs[idx] = rng
        cfg = self.config
        factor = (cfg.domain_slow_factor
                  if cfg.domain_mode == "fail-slow" else 1.0)
        while covered <= t:
            gap = float(rng.exponential(cfg.domain_mtbf_cycles))
            duration = float(rng.exponential(cfg.domain_repair_mean_cycles))
            start = (windows[-1].end if windows else 0.0) + gap
            windows.append(FailureWindow(kind=cfg.domain_mode, start=start,
                                         end=start + duration,
                                         factor=factor))
            covered = start
            self._domain_covered[idx] = covered
        return windows

    # -- queries (ground truth) ----------------------------------------

    # Windows of one (chip, kind) or one domain are disjoint and sorted
    # by start, so the only window that can contain ``t`` is the last one
    # starting at or before it: every lookup is a bisect on start times.

    def _window_at(self, chip: int, kind: str, t: float) -> FailureWindow | None:
        w = _containing(self._ensure(chip, kind, t), t)
        if w is not None:
            return w
        if self.config.domain_mode == kind:
            for idx in self._chip_domains.get(chip, ()):
                w = _containing(self._ensure_domain(idx, t), t)
                if w is not None:
                    return w
        return None

    def down_at(self, chip: int, t: float) -> FailureWindow | None:
        """The fail-stop downtime window containing ``t``, if any
        (the chip's own or a containing domain's outage).

        Health checks ask this of every chip on every tick, and the
        answer is almost always ``None``; each ``None`` caches the
        chip's enclosing healthy interval, and a later query inside it
        returns at once without generating or searching windows.
        """
        span = self._healthy.get(chip)
        if span is not None and span[0] <= t < span[1]:
            return None
        w = self._window_at(chip, "fail-stop", t)
        if w is None:
            self._healthy[chip] = self._healthy_span(chip, t)
        return w

    def _healthy_span(self, chip: int, t: float) -> tuple[float, float]:
        """The widest ``[lo, hi)`` around a healthy ``t`` that the
        fail-stop lists generated so far prove healthy.

        Per list, ``lo`` is the end of the last window starting at or
        before ``t`` and ``hi`` the start of the next one, or, when none
        is generated yet, the list's coverage (every later window starts
        past it).  Windows never change once drawn and each list has its
        own stream, so the interval stays exact whatever is generated
        later.  A chip outside ``fail_stop_chips`` draws no own windows,
        so its own list bounds nothing.
        """
        key = (chip, "fail-stop")
        inf = float("inf")
        own_cover = 0.0 if chip in self.config.fail_stop_chips else inf
        lists = [(self._windows.get(key, ()),
                  self._covered.get(key, own_cover))]
        if self.config.domain_mode == "fail-stop":
            lists += [(self._domain_windows[idx],
                       self._domain_covered.get(idx, 0.0))
                      for idx in self._chip_domains.get(chip, ())]
        lo, hi = -inf, inf
        for windows, covered in lists:
            i = bisect_right(windows, t, key=_start)
            if i:
                lo = max(lo, windows[i - 1].end)
            hi = min(hi, windows[i].start if i < len(windows) else covered)
        return lo, hi

    def fail_stop_in(self, chip: int, t0: float, t1: float) -> FailureWindow | None:
        """The fail-stop window that kills work running over ``[t0, t1)``:
        the downtime containing ``t0`` (launch into a dead chip) or the
        first one starting inside the span — own or domain outage."""
        down = self.down_at(chip, t0)
        if down is not None:
            return down
        candidates = [_first_start_in(self._ensure(chip, "fail-stop", t1),
                                      t0, t1)]
        if self.config.domain_mode == "fail-stop":
            candidates += [
                _first_start_in(self._ensure_domain(idx, t1), t0, t1)
                for idx in self._chip_domains.get(chip, ())]
        return min((w for w in candidates if w is not None),
                   key=_start, default=None)

    def slow_factor_at(self, chip: int, t: float) -> float:
        """Service-time multiplier at ``t`` (1.0 when healthy).  The
        worst of the chip's own straggler window and any fail-slow
        domain outage applies."""
        w = self._window_at(chip, "fail-slow", t)
        factor = w.factor if w is not None else 1.0
        if self.config.domain_mode == "fail-slow":
            for idx in self._chip_domains.get(chip, ()):
                dw = _containing(self._ensure_domain(idx, t), t)
                if dw is not None:
                    factor = max(factor, dw.factor)
        return factor

    # -- domain ground truth (chaos invariants, reporting) -------------

    def domains_of(self, chip: int) -> tuple[int, ...]:
        """Indices of the failure domains containing ``chip``."""
        return self._chip_domains.get(chip, ())

    def domain_outage_at(self, chip: int, t: float) -> FailureWindow | None:
        """The domain outage window covering ``chip`` at ``t``, if any
        (regardless of domain mode)."""
        for idx in self._chip_domains.get(chip, ()):
            w = _containing(self._ensure_domain(idx, t), t)
            if w is not None:
                return w
        return None

    def domain_windows_until(self, idx: int, t: float) -> list[FailureWindow]:
        """Every outage window of domain ``idx`` starting at or before
        ``t`` (ground truth for invariant sweeps)."""
        windows = self._ensure_domain(idx, t)
        return windows[:bisect_right(windows, t, key=_start)]

    def transient_at(self, chip: int, t: float) -> bool:
        """True when the chip serves from the degraded cost column at ``t``."""
        return self._window_at(chip, "transient", t) is not None

    @property
    def uses_degraded_column(self) -> bool:
        return bool(self.config.transient_chips)


def _check_disjoint(windows: list[FailureWindow], owner: str) -> None:
    """Reject overlapping episodes: the timeline's bisect lookups rely on
    the windows of one chip and kind, or of one domain, being disjoint."""
    for prev, w in zip(windows, windows[1:]):
        if w.start < prev.end:
            raise ConfigError(
                f"{owner}: window [{w.start:g}, {w.end:g}) overlaps "
                f"[{prev.start:g}, {prev.end:g})")


def scripted_timeline(chips: int,
                      windows: dict[int, list[FailureWindow]],
                      domains: tuple = (),
                      domain_windows: dict[int, list[FailureWindow]] | None = None,
                      domain_mode: str = "fail-stop") -> ChipFailureTimeline:
    """A timeline with explicit windows instead of drawn ones (tests).

    ``windows`` maps chip id -> episodes; each chip's list is sorted and
    coverage is marked complete so no random draws ever happen.  When
    ``domains`` is given, ``domain_windows`` maps domain index ->
    scripted outage episodes shared by every member chip.  Episodes of
    one chip and kind, or of one domain, must not overlap
    (:class:`ConfigError` otherwise), as drawn ones never do.
    """
    config = FailureConfig(domains=domains, domain_mode=domain_mode)
    timeline = ChipFailureTimeline(config, chips)
    inf = float("inf")
    for chip in range(chips):
        per_kind: dict[str, list[FailureWindow]] = {k: [] for k in FAILURE_KINDS}
        for w in sorted(windows.get(chip, ()), key=lambda w: w.start):
            if w.kind not in FAILURE_KINDS:
                raise ConfigError(f"unknown failure kind {w.kind!r}")
            per_kind[w.kind].append(w)
        for kind in FAILURE_KINDS:
            _check_disjoint(per_kind[kind], f"chip {chip} {kind}")
            timeline._windows[(chip, kind)] = per_kind[kind]
            timeline._covered[(chip, kind)] = inf
    for idx in range(len(domains)):
        scripted = sorted((domain_windows or {}).get(idx, ()),
                          key=lambda w: w.start)
        for w in scripted:
            if w.kind != domain_mode:
                raise ConfigError(
                    f"domain window kind {w.kind!r} != mode {domain_mode!r}")
        _check_disjoint(scripted, f"domain {idx}")
        timeline._domain_windows[idx] = scripted
        timeline._domain_covered[idx] = inf
    return timeline
