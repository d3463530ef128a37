"""End-to-end serving runs and the JSON/CSV report.

:func:`run_serve` is the programmatic entry point (generate → simulate →
roll up); :func:`run_report` runs one or more workload mixes against a
shared cost table and builds the CLI's JSON payload.  The payload is a
pure function of the configs — no wall-clock timestamps, keys sorted on
write — so two runs of the same command produce byte-identical files,
and a ``--workers N`` run matches a serial one (worker count only
parallelizes the cost-table measurements, whose values are
deterministic).  The same holds with a failure lifecycle enabled: the
lifecycle is drawn from seeded streams, never from wall-clock state.

Schema history: ``repro.serve/v1`` (PR 4) → ``repro.serve/v2`` adds the
resilience metrics (availability, goodput, expired, retry/hedge waste,
p999) and the ``failures``/``resilience`` config sections.  With
failures disabled the *simulation outcomes* — every record, batch, and
cycle count — are identical to v1; only the new metric keys differ.
``repro.serve/v3`` adds the ``cost_model`` section (the selected mode
plus the surrogate's cross-validation report).  With ``--cost-model
measured`` every simulation outcome and metric is byte-identical to v2.
``repro.serve/v4`` is emitted **only** when a policy set or autoscaler
is configured: it adds ``config.policy_tree`` / ``config.autoscale``
and a per-mix ``autoscale`` rollup (scale events, chip-cycles,
SLO-during-scale).  A run without either stays on v3 and is
byte-identical to pre-v4 builds — the version bump itself is
conditional so default artifacts never change.  ``repro.serve/v5``
follows the same rule for quality-carrying kinds (``gibbs``): when the
cost table holds per-kind quality metrics the payload adds
``cost_table.quality`` plus a per-mix ``quality`` rollup (mean
posterior entropy, agreement-vs-reference, blended over the healthy /
static-degraded columns by where requests were actually served) and
bumps the version; mixes without such kinds stay on v3/v4 untouched.
``repro.serve/v6`` is emitted **only** when ``config.cluster`` is set
(cluster-of-fleets sharding, :mod:`repro.serve.cluster`): the payload
adds ``config.cluster``, a per-mix ``cluster`` rollup (failovers,
brown-out sheds, gossip ticks, believed alive-shard minima) and
replaces the flat per-mix ``chips`` utilization with a per-shard
``shards`` list.  A run without ``cluster:`` never touches the cluster
code path, so v3/v4/v5 artifacts stay byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.serve.costmodel import ServiceCostTable, build_cost_table
from repro.serve.surrogate import DEFAULT_TOLERANCE, build_surrogate_cost_table
from repro.serve.fleet import FleetResult, FleetSimulator, ServeConfig
from repro.serve.metrics import ServeMetrics, chip_utilization, compute_metrics
from repro.serve.resilience import DEFAULT_RESILIENCE
from repro.serve.workload import KINDS, MIXES, WorkloadConfig, generate_requests
from repro.trace.collector import NULL_TRACE, TraceSink

SCHEMA = "repro.serve/v3"
#: Emitted only when a policy set or autoscaler is configured.
SCHEMA_V4 = "repro.serve/v4"
#: Emitted only when the cost table carries per-kind quality metrics.
SCHEMA_V5 = "repro.serve/v5"
#: Emitted only when a cluster is configured (``cluster:`` section).
SCHEMA_V6 = "repro.serve/v6"

COST_MODELS = ("measured", "surrogate")

CSV_COLUMNS = (
    "mix", "rid", "kind", "tile", "arrival", "shed", "outcome", "retries",
    "hedged", "batch_id", "chip", "batch_size", "dispatch", "start",
    "finish", "batch_wait", "queue_wait", "service", "latency",
)


@dataclass
class ServeRun:
    """One mix's simulation outcome plus its rollup."""

    workload: WorkloadConfig
    #: FleetResult, or ClusterResult when config.cluster is set.
    fleet: "FleetResult | ClusterResult"
    metrics: ServeMetrics


def _needs_degraded(config: ServeConfig) -> bool:
    """Whether any chip can ever serve from the degraded cost column."""
    if config.degraded_chips:
        return True
    return (config.failures is not None
            and bool(config.failures.transient_chips))


def checkpoint_meta(config: ServeConfig, mixes, quick: bool,
                    cost_model: str = "measured") -> dict:
    """The identity stamped on a run's JSONL checkpoint journal.

    The CLI and the control plane both stamp exactly this, so a journal
    written by one is resumable by the other: resume compatibility is
    decided by what the cost table depends on (batch range, kernel
    geometry, degraded column, mixes, cost model), not by which front
    end ran it.
    """
    return {"tool": "repro.serve", "max_batch": config.max_batch,
            "quick": quick, "degraded": _needs_degraded(config),
            "mixes": sorted(mixes), "cost_model": cost_model}


def run_serve(workload: WorkloadConfig, config: ServeConfig,
              quick: bool = True, max_workers: int | None = None,
              costs: ServiceCostTable | None = None,
              trace: TraceSink = NULL_TRACE,
              checkpoint=None, on_progress=None) -> ServeRun:
    """Generate the arrival trace, serve it, and roll up the metrics.

    ``on_progress`` (optional) receives live snapshot dicts from
    :meth:`FleetSimulator.snapshot` as the simulation advances; the
    callback observes but never influences the run.
    """
    if costs is None:
        kinds = tuple(k for k in KINDS if k in MIXES[workload.mix])
        costs = build_cost_table(config.max_batch, quick=quick,
                                 degraded=_needs_degraded(config),
                                 kinds=kinds, max_workers=max_workers,
                                 checkpoint=checkpoint)
    requests = generate_requests(workload)
    if config.cluster is not None:
        from repro.serve.cluster import ClusterSimulator
        fleet = ClusterSimulator(config, costs, trace=trace).run(
            requests, on_progress=on_progress)
    else:
        fleet = FleetSimulator(config, costs, trace=trace).run(
            requests, on_progress=on_progress)
    metrics = compute_metrics(fleet.records, fleet.batches, fleet.makespan,
                              slo_cycles=config.slo_cycles,
                              clock_ghz=config.clock_ghz)
    return ServeRun(workload=workload, fleet=fleet, metrics=metrics)


def _quality_rollup(run: ServeRun, costs: ServiceCostTable,
                    config: ServeConfig) -> dict | None:
    """Per-kind delivered-quality rollup for one mix.

    Blends the cost table's healthy/degraded quality columns by where
    each served request actually ran, attributed by the chip's *static*
    degraded column — the same scheduler-visible health the cost
    estimate uses (there is no oracle for transient fault windows).
    """
    if not costs.quality:
        return None
    degraded_ids = set(config.degraded_chips)
    rollup = {}
    for kind, columns in sorted(costs.quality.items()):
        served = [r for r in run.fleet.records
                  if r.kind == kind and r.outcome == "served"]
        if not served:
            continue
        n = len(served)
        n_deg = sum(1 for r in served if r.chip in degraded_ids)
        healthy = columns.get("healthy") or columns["degraded"]
        degraded = columns.get("degraded") or healthy
        metrics = {
            key: (healthy[key] * (n - n_deg) + degraded[key] * n_deg) / n
            for key in sorted(healthy)
        }
        rollup[kind] = {"served": n, "served_degraded": n_deg, **metrics}
    return rollup or None


def _mix_fleet_section(run: ServeRun, config: ServeConfig) -> dict:
    """The per-mix fleet keys: flat ``chips`` utilization standalone,
    per-shard ``shards`` list plus the ``cluster`` rollup under v6."""
    if config.cluster is not None:
        res = run.fleet
        return {
            "cluster": res.rollup(),
            "shards": [
                {"chips": chip_utilization(fr.chips, res.makespan),
                 **({"autoscale": fr.autoscale}
                    if fr.autoscale is not None else {})}
                for fr in res.shard_results
            ],
        }
    return {
        "chips": chip_utilization(run.fleet.chips, run.fleet.makespan),
        **({"autoscale": run.fleet.autoscale}
           if run.fleet.autoscale is not None else {}),
    }


def run_report(workload: WorkloadConfig, config: ServeConfig,
               mixes=("bp", "bp+vgg"), quick: bool = True,
               max_workers: int | None = None,
               trace: TraceSink = NULL_TRACE,
               checkpoint=None,
               on_progress=None,
               cost_model: str = "measured",
               surrogate_tolerance: float = DEFAULT_TOLERANCE,
               ) -> tuple[dict, list[ServeRun]]:
    """Serve every mix (shared cost table) and build the JSON payload.

    ``on_progress`` receives each mix's live snapshots with a ``"mix"``
    key added, so a multi-mix report streams one interleaved sequence.
    ``cost_model`` selects how the cost table is built: ``"measured"``
    simulates every shape; ``"surrogate"`` simulates anchors and
    cross-validates interpolation (``repro.serve.surrogate``), recording
    its validation report under the payload's ``cost_model`` section.
    """
    if cost_model not in COST_MODELS:
        raise ConfigError(
            f"cost_model must be one of {COST_MODELS}, not {cost_model!r}")
    kinds = tuple(k for k in KINDS if any(k in MIXES[m] for m in mixes))
    if cost_model == "surrogate":
        costs, validation = build_surrogate_cost_table(
            config.max_batch, quick=quick,
            degraded=_needs_degraded(config), kinds=kinds,
            max_workers=max_workers, checkpoint=checkpoint,
            tolerance=surrogate_tolerance)
    else:
        costs = build_cost_table(config.max_batch, quick=quick,
                                 degraded=_needs_degraded(config),
                                 kinds=kinds, max_workers=max_workers,
                                 checkpoint=checkpoint)
        validation = None
    runs = []
    for mix in mixes:
        mix_progress = None
        if on_progress is not None:
            def mix_progress(snap, _mix=mix):
                on_progress({"mix": _mix, **snap})
        runs.append(run_serve(replace(workload, mix=mix), config,
                              quick=quick, costs=costs, trace=trace,
                              on_progress=mix_progress))
    if config.failures_enabled:
        resilience = (config.resilience or DEFAULT_RESILIENCE).as_dict()
    else:
        resilience = None
    extended = (config.policy_set is not None
                or config.autoscale is not None)
    if config.cluster is not None:
        schema = SCHEMA_V6
    elif costs.quality:
        schema = SCHEMA_V5
    elif extended:
        schema = SCHEMA_V4
    else:
        schema = SCHEMA
    payload = {
        "schema": schema,
        "quick": quick,
        "cost_model": {
            "mode": cost_model,
            "validation": validation,
        },
        "config": {
            "chips": config.chips,
            "policy": config.policy,
            "max_batch": config.max_batch,
            "max_wait_cycles": config.max_wait_cycles,
            "queue_capacity": config.queue_capacity,
            "shed_policy": config.shed_policy,
            "dispatch_overhead_cycles": config.dispatch_overhead_cycles,
            "reload_bytes_per_cycle": config.reload_bytes_per_cycle,
            "degraded_chips": list(config.degraded_chips),
            "slo_cycles": config.slo_cycles,
            "clock_ghz": config.clock_ghz,
            "failures": (config.failures.as_dict()
                         if config.failures is not None else None),
            "resilience": resilience,
        },
        "workload": {
            "arrival": workload.arrival,
            "rate": workload.rate,
            "requests": workload.requests,
            "seed": workload.seed,
            "num_tiles": workload.num_tiles,
            "burst_factor": workload.burst_factor,
            "burst_len": workload.burst_len,
        },
        "cost_table": {
            "shapes": {
                f"{kind}/b{batch}{'/degraded' if degraded else ''}": cycles
                for (kind, batch, degraded), cycles
                in sorted(costs.cycles.items())
            },
            "model_bytes": dict(sorted(costs.model_bytes.items())),
            "tile_bytes": dict(sorted(costs.tile_bytes.items())),
            # Conditional key: absent pre-v5 so v3/v4 artifacts never
            # change a byte.
            **({"quality": {k: dict(sorted(v.items()))
                            for k, v in sorted(costs.quality.items())}}
               if costs.quality else {}),
        },
        "mixes": {
            run.workload.mix: {
                **run.metrics.as_dict(),
                **_mix_fleet_section(run, config),
                **({"quality": q} if (q := _quality_rollup(
                    run, costs, config)) is not None else {}),
            }
            for run in runs
        },
    }
    if config.policy_set is not None:
        ps = config.policy_set
        payload["config"]["policy_tree"] = {
            "name": ps.name,
            "description": ps.description,
            "source": ps.source,
            "slots": {slot: getattr(ps, slot)
                      for slot in ("schedule", "shed", "retry", "hedge")
                      if getattr(ps, slot) is not None},
        }
    if config.autoscale is not None:
        payload["config"]["autoscale"] = config.autoscale.as_dict()
    if config.cluster is not None:
        payload["config"]["cluster"] = config.cluster.as_dict()
    return payload, runs


def write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(runs, path: str) -> None:
    """Per-request records of every mix, one row each (``CSV_COLUMNS``).

    A request that was not served leaves its batch, chip and timing cells
    empty, except ``dispatch``.  Each row is one ``%`` format (times in
    ``%g``, faster here than an f-string's ``:g`` fields) and is written
    as it is built, so memory stays flat in the record count.
    """
    served_row = ("%s,%s,%s,%s,%g,false,served,%s,%s,%s,%s,%s,"
                  "%g,%g,%g,%g,%g,%g,%g\n")
    other_row = "%s,%s,%s,%s,%g,%s,%s,,,,,,%g,,,,,,\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for run in runs:
            mix = run.workload.mix
            for r in run.fleet.records:
                if r.shed or r.outcome != "served":
                    fh.write(other_row % (
                        mix, r.rid, r.kind, r.tile, r.arrival,
                        "true" if r.shed else "false",
                        "shed" if r.shed else r.outcome, r.dispatch))
                    continue
                arrival, dispatch = r.arrival, r.dispatch
                start, finish = r.start, r.finish
                fh.write(served_row % (
                    mix, r.rid, r.kind, r.tile, arrival, r.retries,
                    "true" if r.hedged else "false", r.batch_id, r.chip,
                    r.batch_size, dispatch, start, finish,
                    dispatch - arrival, start - dispatch, finish - start,
                    finish - arrival))
