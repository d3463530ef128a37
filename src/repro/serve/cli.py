"""``python -m repro.serve`` — the serving-layer command line.

Simulates an inference service in front of a fleet of VIP chips and
reports throughput, goodput, availability, p50/p95/p99/p99.9 latency,
SLO-violation rate, and shed rate per workload mix::

    python -m repro.serve --chips 4 --arrival poisson --rate 50000 --seed 0

Resilience: ``--fail-chips N`` subjects the first N chips to a seeded
fail-stop lifecycle (``--fail-slow-chips`` / ``--transient-chips``
likewise for stragglers and transient degradation); the scheduler
defends with health checks, bounded retries, optional hedging
(``--hedge-delay-ms``), circuit breakers, and load-shedding tiers.

Serving behavior is pluggable: ``--policy-file`` loads a decision-tree
policy set (``repro.serve.policy``) overriding the schedule/shed/retry/
hedge decisions, and ``--autoscale`` turns on the deterministic
simulated autoscaler (``repro.serve.autoscale``).  Both compose with
``--scenario``, overriding the file's own sections.

Cluster scale: ``--cluster-shards N`` runs N independent fleet shards
behind the deterministic cluster router (``repro.serve.cluster``) with
bounded-staleness gossip beliefs, cross-shard failover, and optional
brown-out shedding (``--brownout-headroom``); ``--fail-domains
"0,1;2,3"`` groups chips into correlated failure domains (zone/rack
outages that fail every member in one event).  Both compose with
``--scenario`` the way ``--autoscale`` does.

Each config flag sets one field of a scenario document that compiles
through ``scenario_from_document`` like a scenario file, so
``SCENARIO_SCHEMA`` holds every knob's only default, type, bounds and
choices.  Other config flags given with ``--scenario`` are rejected, and
so is a flag whose section is off: a failure or resilience flag without
a failure mode, an ``--autoscale-*`` flag without ``--autoscale``, or a
cluster flag without ``--cluster-shards`` or ``--brownout-headroom``.

Two runs of the same command write byte-identical JSON, and
``--workers N`` (parallel cost-table measurement) matches a serial run
exactly; CI asserts both.  ``--checkpoint PATH`` journals cost-table
measurements; ``--resume`` picks a killed run's journal back up and
reproduces the uninterrupted artifact bit for bit.

Invalid configurations exit with status 2 and a one-line ``error:``
message on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigError
from repro.perf.checkpoint import TaskCheckpoint
from repro.serve.policy import OBSERVABLES, list_policies
from repro.serve.report import (
    checkpoint_meta,
    run_report,
    write_csv,
    write_json,
)
from repro.serve.scenario import (
    SCENARIO_SCHEMA,
    check_field,
    list_scenarios,
    load_scenario,
    scenario_from_document,
)


def _ints(text: str) -> list:
    return [int(part) for part in text.split(",") if part.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: Flag text -> raw document value, per schema kind: ``--degraded 1,3``,
#: ``--fail-domains "0,1;2,3"``, ``--brownout-kinds fc,gibbs``, one mix
#: per ``--mix`` (appended), and ``--fail-chips N`` as a count.
_PARSE = {
    "int": int, "float": float, "str": str, "mixes": str, "chips": int,
    "int_list": _ints,
    "domains": lambda text: [_ints(g) for g in text.split(";") if g.strip()],
    "kinds": lambda text: [k.strip() for k in text.split(",") if k.strip()],
}

#: Sections a flag may still set alongside ``--scenario``: they replace
#: the file's own section whole.
_OVERLAYS = ("policy", "autoscale", "cluster")

#: argument group -> ``(flag, "section.key", help)`` rows.  Type,
#: choices, bounds and default come from the schema field.
_FLAGS = {
    "fleet": (
        ("--chips", "fleet.chips", None),
        ("--policy", "fleet.policy", None),
        ("--degraded", "fleet.degraded_chips", "comma-separated chip ids "
         "running the fault-injected (ECC-correcting) service times from "
         "repro.faults"),
    ),
    "admission and batching": (
        ("--max-batch", "batching.max_batch", None),
        ("--max-wait", "batching.max_wait_cycles",
         "batch close deadline in cycles"),
        ("--queue-capacity", "batching.queue_capacity", None),
        ("--shed-policy", "batching.shed_policy", None),
    ),
    "workload": (
        ("--arrival", "workload.arrival", None),
        ("--rate", "workload.rate",
         "offered load in requests per simulated second"),
        ("--requests", "workload.requests", "requests per mix"),
        ("--seed", "workload.seed", None),
        ("--mix", "workload.mix",
         "workload mix (repeatable); default: bp and bp+vgg"),
        ("--num-tiles", "workload.num_tiles", None),
        ("--burst-factor", "workload.burst_factor", None),
        ("--burst-len", "workload.burst_len", None),
    ),
    "failure lifecycle": (
        ("--fail-chips", "failures.fail_stop_chips", "subject the first N "
         "chips to seeded fail-stop events (0 disables)"),
        ("--fail-slow-chips", "failures.fail_slow_chips",
         "subject the first N chips to fail-slow (straggler) windows"),
        ("--transient-chips", "failures.transient_chips",
         "subject the first N chips to transient degraded-service windows"),
        ("--fail-seed", "failures.seed",
         "base seed of the failure lifecycle streams"),
        ("--mtbf-ms", "failures.mtbf_ms",
         "mean simulated ms between fail-stop events"),
        ("--repair-ms", "failures.repair_ms",
         "mean simulated ms to repair a fail-stop"),
        ("--fail-domains", "failures.domains", "correlated failure domains "
         "as semicolon-separated chip-id groups, e.g. '0,1;2,3' (one "
         "seeded outage fails every member)"),
        ("--domain-mtbf-ms", "failures.domain_mtbf_ms",
         "mean simulated ms between domain outages"),
        ("--domain-repair-ms", "failures.domain_repair_ms",
         "mean simulated ms to repair a domain outage"),
        ("--domain-mode", "failures.domain_mode",
         "what a domain outage does to member chips"),
    ),
    "resilience": (
        ("--health-interval-ms", "resilience.health_interval_ms",
         "health-check tick period (simulated ms)"),
        ("--detect-latency-ms", "resilience.detect_latency_ms",
         "extra detection latency after the tick"),
        ("--health-fp-rate", "resilience.health_fp_rate",
         "health-check false-positive probability"),
        ("--max-retries", "resilience.max_retries",
         "re-dispatch budget per killed batch"),
        ("--retry-deadline-ms", "resilience.retry_deadline_ms",
         "drop requests older than this instead of retrying"),
        ("--hedge-delay-ms", "resilience.hedge_delay_ms", "hedge a launch "
         "overrunning its healthy estimate by this much (default: off)"),
    ),
    "autoscale": (
        ("--autoscale-min", "autoscale.min_chips", "active-fleet floor"),
        ("--autoscale-max", "autoscale.max_chips", "active-fleet ceiling"),
        ("--autoscale-interval-ms", "autoscale.evaluate_interval_ms",
         "decision tick period (simulated ms)"),
        ("--autoscale-warmup-ms", "autoscale.warmup_ms",
         "provisioned chips serve nothing for this long"),
        ("--autoscale-cooldown-ms", "autoscale.cooldown_ms",
         "hold-off between scale decisions"),
    ),
    "cluster": (
        ("--cluster-shards", "cluster.shards", "shard the fleet into N "
         "independent fleets behind the cluster router (--chips becomes "
         "the per-shard size; composes with --scenario)"),
        ("--cluster-router", "cluster.router",
         "routing policy over believed-alive shards"),
        ("--cluster-gossip-ms", "cluster.gossip_interval_ms", "belief-"
         "refresh tick period (simulated ms); router beliefs are up to one "
         "tick stale"),
        ("--cluster-failover-retries", "cluster.failover_retries",
         "cross-shard re-dispatch budget per request (0 disables failover)"),
        ("--brownout-headroom", "cluster.brownout_headroom", "shed low-"
         "priority kinds cluster-wide when believed capacity fraction "
         "drops below this (default: off)"),
        ("--brownout-kinds", "cluster.brownout_kinds",
         "comma-separated kinds shed during a brown-out (default: fc)"),
    ),
    "run": (
        ("--slo-ms", "run.slo_ms", "latency SLO in simulated milliseconds"),
        ("--cost-model", "run.cost_model", "how the service-time table is "
         "built: 'measured' simulates every launch shape; 'surrogate' "
         "simulates anchors and cross-validates a piecewise-linear fit "
         "(repro.serve.surrogate)"),
        ("--surrogate-tolerance", "run.surrogate_tolerance", "relative "
         "cycle tolerance of the surrogate's held-out validation "
         "(fallback to exact measurement beyond it)"),
    ),
}

_METAVARS = {"--fail-domains": "SPEC", "--cluster-shards": "N"}

#: Failure modes; with none of them on, the other failure and resilience
#: flags would have no effect and are rejected.
_FAILURE_MODES = ("fail_stop_chips", "fail_slow_chips", "transient_chips",
                  "domains")
_FAILURE_SWITCH = ("a failure mode (--fail-chips, --fail-slow-chips, "
                   "--transient-chips or --fail-domains)")

#: Document path -> the flag that sets it, for error messages.
_FLAG_OF = {path: flag for rows in _FLAGS.values()
            for flag, path, _ in rows} | {"run.quick": "--full"}


def _flag_type(path: str, spec):
    """The argparse ``type`` of the flag setting ``section.key``: parse
    the text into the document's raw form and run the schema check."""
    def convert(text: str):
        try:
            value = _PARSE[spec.kind](text)
            check_field(value, spec, f"scenario.{path}")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"scenario.{path}: cannot parse {text!r}") from None
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return convert


def _add_flags(group, rows) -> None:
    for flag, path, help_ in rows:
        section, key = path.split(".")
        spec = SCENARIO_SCHEMA[section][key]
        choices = spec.choices or None
        group.add_argument(
            flag, dest=path, type=_flag_type(path, spec), choices=choices,
            action="append" if spec.kind == "mixes" else "store",
            default=argparse.SUPPRESS, help=help_,
            metavar=_METAVARS.get(flag, None if choices else
                                  flag[2:].upper().replace("-", "_")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Batched inference serving over a multi-chip VIP fleet.",
    )
    for title in ("fleet", "admission and batching", "workload",
                  "failure lifecycle", "resilience"):
        _add_flags(parser.add_argument_group(title), _FLAGS[title])
    policy = parser.add_argument_group("policy")
    policy.add_argument("--policy-file", dest="policy.file",
                        default=argparse.SUPPRESS,
                        metavar="NAME_OR_PATH",
                        help="decision-tree policy set overriding the "
                             "schedule/shed/retry/hedge decisions "
                             "(library name or path); composes with "
                             "--scenario, overriding its policy section")
    policy.add_argument("--list-policies", action="store_true",
                        help="list the named policies on the search "
                             "path and exit")
    autoscale = parser.add_argument_group("autoscale")
    autoscale.add_argument("--autoscale", action="store_true",
                           help="enable the simulated autoscaler "
                                "(composes with --scenario)")
    _add_flags(autoscale, _FLAGS["autoscale"])
    _add_flags(parser.add_argument_group("cluster"), _FLAGS["cluster"])
    scenario = parser.add_argument_group("scenario")
    scenario.add_argument("--scenario", default=None, metavar="NAME_OR_PATH",
                          help="run a declarative scenario file (library "
                               "name or path); other workload/fleet/"
                               "failure/resilience/run flags are an error "
                               "— only the --policy-file, --autoscale*, "
                               "--cluster-* and --brownout-* overrides and "
                               "run infrastructure flags (--out, --csv, "
                               "--checkpoint, --resume, --workers) apply")
    scenario.add_argument("--list-scenarios", action="store_true",
                          help="list the named scenarios on the search "
                               "path and exit")
    run = parser.add_argument_group("run")
    _add_flags(run, _FLAGS["run"])
    run.add_argument("--full", dest="run.quick", action="store_const",
                     const=False, default=argparse.SUPPRESS,
                     help="paper-scale kernel geometry (default: quick)")
    run.add_argument("--workers", type=_positive_int, default=None,
                     help="pool size for cost-table measurement")
    run.add_argument("--checkpoint", default=None,
                     help="journal cost-table measurements to this file")
    run.add_argument("--resume", action="store_true",
                     help="reuse results already journaled in --checkpoint")
    run.add_argument("--out", default=None, help="write the JSON report here")
    run.add_argument("--csv", default=None,
                     help="write per-request records here")
    return parser


def _document(args) -> dict:
    """The scenario document the config flags given on the command line
    describe (unset flags are absent, so the schema supplies them).

    A flag whose section is not switched on would have no effect, so it
    is a config error that names the switch."""
    doc: dict = {}
    for path, value in vars(args).items():
        if "." in path:
            section, key = path.split(".")
            doc.setdefault(section, {})[key] = value
    failing = any(doc.get("failures", {}).get(key) for key in _FAILURE_MODES)
    cluster = doc.get("cluster", {})
    # section -> (switched on, what switches it on)
    switches = {
        "failures": (failing, _FAILURE_SWITCH),
        "resilience": (failing, _FAILURE_SWITCH),
        "autoscale": (args.autoscale, "--autoscale"),
        "cluster": ("shards" in cluster or "brownout_headroom" in cluster,
                    "--cluster-shards or --brownout-headroom"),
    }
    for section, fields in doc.items():
        on, switch = switches.get(section, (True, None))
        for key in fields:
            if on or (section == "failures" and key in _FAILURE_MODES):
                continue
            path = f"{section}.{key}"
            raise ConfigError(f"{_FLAG_OF[path]} ({path}) has no effect "
                              f"without {switch}")
    if not failing:
        doc.pop("failures", None)  # failure modes explicitly set to 0
    autoscale = doc.pop("autoscale", {})
    if args.autoscale:
        doc["autoscale"] = autoscale
    if doc.pop("cluster", None) is not None:
        doc["cluster"] = {"shards": 1, **cluster}
    return doc


def _fmt_ms(cycles, clock_ghz: float) -> str:
    if cycles is None:
        return "-"
    return f"{cycles / (clock_ghz * 1e6):.3f}"


def _run(args) -> int:
    if args.list_scenarios:
        scenarios = list_scenarios()
        if not scenarios:
            print("no scenarios found on the search path")
        for entry in scenarios:
            print(f"{entry['name']:<20} {entry['description']}")
        return 0
    if args.list_policies:
        policies = list_policies()
        if not policies:
            print("no policies found on the search path")
        for entry in policies:
            print(f"{entry['name']:<20} {entry['description']}")
        print()
        print("condition observables (name / type / slots):")
        for name, (kind, slots) in sorted(OBSERVABLES.items()):
            print(f"  {name:<26} {kind:<6} {', '.join(slots)}")
        return 0
    if args.resume and not args.checkpoint:
        raise ConfigError("--resume requires --checkpoint PATH")
    if args.scenario:
        for path in vars(args):
            if "." in path and path.split(".")[0] not in _OVERLAYS:
                raise ConfigError(
                    f"{_FLAG_OF[path]} ({path}) cannot be combined with "
                    f"--scenario; set {path} in the scenario file")
    doc = _document(args)
    if args.scenario:
        loaded = load_scenario(args.scenario)
        overlay = {section: doc[section] for section in _OVERLAYS
                   if section in doc}
        scenario = scenario_from_document(
            {**loaded.document, **overlay}, name=loaded.name,
            source=loaded.source)
        print(f"scenario {scenario.name}: "
              f"{scenario.description or '(no description)'}")
    else:
        scenario = scenario_from_document(doc)
    config, mixes, quick = scenario.serve, scenario.mixes, scenario.quick
    checkpoint = None
    if args.checkpoint:
        checkpoint = TaskCheckpoint(
            args.checkpoint,
            meta=checkpoint_meta(config, mixes, quick, scenario.cost_model),
            resume=args.resume)
    try:
        payload, runs = run_report(
            scenario.workload, config, mixes=mixes, quick=quick,
            max_workers=args.workers, checkpoint=checkpoint,
            cost_model=scenario.cost_model,
            surrogate_tolerance=scenario.surrogate_tolerance)
    finally:
        if checkpoint is not None:
            checkpoint.close()

    header = (f"{'mix':<8} {'served':>6} {'shed%':>6} {'exp':>4} "
              f"{'avail%':>6} {'good req/s':>10} {'p50 ms':>8} "
              f"{'p99 ms':>8} {'p999 ms':>8} {'slo%':>6} {'batch':>5}")
    print(header)
    print("-" * len(header))
    for run in runs:
        m = run.metrics
        print(f"{run.workload.mix:<8} {m.served:>6} "
              f"{m.shed_rate * 100:>5.1f}% {m.expired:>4} "
              f"{m.availability * 100:>5.1f}% {m.goodput_rps:>10.0f} "
              f"{_fmt_ms(m.latency_p50, m.clock_ghz):>8} "
              f"{_fmt_ms(m.latency_p99, m.clock_ghz):>8} "
              f"{_fmt_ms(m.latency_p999, m.clock_ghz):>8} "
              f"{m.slo_violation_rate * 100:>5.1f}% "
              f"{m.mean_batch_size:>5.2f}")
        if m.retries or m.hedges:
            print(f"{'':>8} retries={m.retries} hedges={m.hedges} "
                  f"retry_waste={m.retry_wasted_cycles:.0f}cy "
                  f"hedge_waste={m.hedge_wasted_cycles:.0f}cy")
    if args.out:
        write_json(payload, args.out)
        print(f"wrote {args.out}")
    if args.csv:
        write_csv(runs, args.csv)
        print(f"wrote {args.csv}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
