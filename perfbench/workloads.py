"""The four benchmark workloads.

Each workload takes the benchmark seed and a size (``full`` for the
benchmark, ``tiny`` for the smoke tests) and has three parts:

``setup()``
    Imports and inputs (plus the serving cost table).  Not timed by
    ``wall_s``; ``setup_s`` times it in fresh processes.
``run()``
    The timed calls.  Returns an :class:`Outcome`: the modelled values
    (what the simulated chip or fleet would take), the counts read from
    the program's public results, and the raw results the checks need.
``check(outcome)``
    Correctness checks against reference outputs, outside the timing.
    Returns one message per failed operation.

Workloads call the program through module attributes
(``extrapolate.BPPerformanceModel``, ``serve_workload.generate_requests``)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

#: The paper's Table IV values the chip-bp model is compared with.
PAPER_BP_ITER_MS = 5.2
PAPER_BP_HIER_MS = 36.3


def derive_seed(seed: int, label: str) -> int:
    """A stable per-input seed from the benchmark seed and a label."""
    return zlib.crc32(f"{seed}:{label}".encode()) & 0x7FFFFFFF


@dataclass
class Outcome:
    """What one repetition of a workload's timed calls produced."""

    #: Modelled end-to-end values, by name; ``sim_ms`` is the headline.
    model: dict
    #: Per-layer counts from the public results (identical on every run).
    counts: dict = field(default_factory=dict)
    #: Operations this run attempted (the unit ``attempted`` counts).
    ops: int = 1
    #: Raw results for ``check``; not part of the determinism fingerprint.
    raw: dict = field(default_factory=dict)


def _pct_err(modelled: float, paper: float) -> float:
    return abs(modelled - paper) / paper * 100.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# chip workloads


class ChipBP:
    """Table IV BP-M on one simulated vault: the full-HD model, then the
    hierarchical model (vector PE path, DRAM model, 4-PE scheduler)."""

    name = "chip-bp"
    #: The check MRF run is one more operation per run.
    check_ops = 1
    #: (rows, cols, labels) of the modelled image; (rows, cols, labels,
    #: iterations) of the small MRF checked against the reference.
    SIZES = {"full": ((1080, 1920, 16), (12, 16, 8, 2)),
             "tiny": ((64, 128, 4), (6, 8, 4, 1))}

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.image, self.check_shape = self.SIZES[size]
        self.model_seed = derive_seed(seed, "bp-model")
        self.check_seed = derive_seed(seed, "bp-check")

    def setup(self) -> None:
        from repro.perf import extrapolate, roofline
        from repro.workloads.bp import reference, runner, stereo

        self.extrapolate = extrapolate
        self.roofline = roofline
        self.bp_runner, self.bp_reference = runner, reference
        rows, cols, labels, _ = self.check_shape
        self.check_mrf, _ = stereo.stereo_mrf(rows, cols, labels=labels,
                                              seed=self.check_seed)

    def run(self) -> Outcome:
        ex = self.extrapolate
        fine = ex.BPPerformanceModel(*self.image, seed=self.model_seed)
        result = fine.measure(max_workers=1)
        hier = ex.HierarchicalBPModel(fine).measure()
        iter_ms = result.iteration_ms
        hier_ms = hier.frame_ms(5, 5)
        counts = {
            "sweep_cycles": dict(sorted(result.sweep_cycles.items())),
            "construct_cycles": hier.construct_cycles,
            "copy_cycles": hier.copy_cycles,
            "coarse_iteration_cycles": hier.coarse_iteration_cycles,
        }
        return Outcome(
            model={"sim_ms": iter_ms,
                   "bp_iter_ms": iter_ms,
                   "bp_iter_err_pct": _pct_err(iter_ms, PAPER_BP_ITER_MS),
                   "bp_hier_ms": hier_ms,
                   "bp_hier_err_pct": _pct_err(hier_ms, PAPER_BP_HIER_MS)},
            counts=counts, ops=2, raw={"result": result})

    def check(self, out: Outcome) -> list[str]:
        import numpy as np
        from repro.pe.counters import PECounters

        failures = []
        result = out.raw["result"]
        rf = self.roofline
        point = rf.point_from_counters(
            "bp-sweeps", PECounters.sum(result.sweep_counters.values()),
            sum(result.sweep_cycles.values()))
        verdict = rf.validate_point(point, rf.Roofline.for_vip(num_pes=4))
        if not verdict["within_roof"]:
            failures.append(f"chip-bp: sweep point above the roofline: "
                            f"{verdict}")
        mrf = self.check_mrf
        iterations = self.check_shape[3]
        chip = self.bp_runner.run_bpm_on_chip(mrf, iterations=iterations)
        labels, messages = self.bp_reference.run_bpm(mrf, iterations=iterations)
        same = np.array_equal(labels, chip.labels) and all(
            np.array_equal(messages[d], chip.messages[d]) for d in messages)
        if not same:
            failures.append("chip-bp: run_bpm_on_chip differs from run_bpm "
                            "on the check MRF")
        return failures



class ChipGibbs:
    """``run_gibbs_on_chip`` on a seeded stereo MRF (scalar PE path,
    scheduler; data stays in the scratchpad)."""

    name = "chip-gibbs"
    check_ops = 0
    #: rows, cols, labels, burn-in sweeps, samples
    SIZES = {"full": (16, 24, 16, 2, 6), "tiny": (8, 8, 8, 1, 2)}

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.rows, self.cols, self.labels, self.burn_in, self.samples = \
            self.SIZES[size]
        self.mrf_seed = derive_seed(seed, "gibbs-mrf")
        self.draw_seed = derive_seed(seed, "gibbs-draws")

    def setup(self) -> None:
        from repro.workloads.bp import stereo
        from repro.workloads.gibbs import reference, runner

        self.gibbs_runner, self.gibbs_reference = runner, reference
        self.mrf, _ = stereo.stereo_mrf(self.rows, self.cols,
                                        labels=self.labels, seed=self.mrf_seed)

    def run(self) -> Outcome:
        res = self.gibbs_runner.run_gibbs_on_chip(
            self.mrf, burn_in=self.burn_in, samples=self.samples,
            seed=self.draw_seed)
        return Outcome(
            model={"sim_ms": res.milliseconds, "gibbs_sim_ms": res.milliseconds},
            counts={"cycles": res.cycles, "sweeps": res.sweeps,
                    "mean_entropy": float(res.result.mean_entropy)},
            raw={"result": res})

    def check(self, out: Outcome) -> list[str]:
        import numpy as np

        ref = self.gibbs_reference
        chip = out.raw["result"].result
        want = ref.run_gibbs(self.mrf, burn_in=self.burn_in,
                             samples=self.samples, seed=self.draw_seed)
        failures = []
        l1 = ref.marginal_l1(want.marginals, chip.marginals)
        if l1 != 0.0:
            failures.append(f"chip-gibbs: marginal L1 vs run_gibbs is {l1}")
        if not np.array_equal(want.last_sample, chip.last_sample):
            failures.append("chip-gibbs: last sample differs from run_gibbs")
        return failures



# ---------------------------------------------------------------------------
# serving workloads


class _Serve:
    """Shared set-up of the serving workloads: a quick cost table for the
    ``bp+vgg`` kinds, built serially, and a scratch directory for CSVs."""

    MIX = "bp+vgg"
    check_ops = 0

    def __init__(self, seed: int, size: str, scratch: str):
        self.seed = seed
        self.size = size
        self.scratch = scratch
        self.work_seed = derive_seed(seed, f"{self.name}-workload")

    def setup(self) -> None:
        from repro.serve import costmodel, metrics, report
        from repro.serve import workload as serve_workload

        self.metrics, self.report = metrics, report
        self.serve_workload = serve_workload
        self.config = self.make_config()
        kinds = tuple(k for k in serve_workload.KINDS
                      if k in serve_workload.MIXES[self.MIX])
        self.costs = costmodel.build_cost_table(
            self.config.max_batch, quick=True, kinds=kinds, max_workers=1)
        os.makedirs(self.scratch, exist_ok=True)

    def serve_once(self, workload, simulator):
        """generate -> simulate -> roll up -> write CSV, for one trace."""
        requests = self.serve_workload.generate_requests(workload)
        result = simulator(self.config, self.costs).run(requests)
        cfg = self.config
        m = self.metrics.compute_metrics(
            result.records, result.batches, result.makespan,
            slo_cycles=cfg.slo_cycles, clock_ghz=cfg.clock_ghz)
        path = os.path.join(self.scratch, f"{self.name}-{workload.rate:g}.csv")
        self.report.write_csv(
            [self.report.ServeRun(workload=workload, fleet=result, metrics=m)],
            path)
        return requests, result, m, path

    def layer_counts(self, result, m) -> dict:
        """Cost-table and fleet counts of one serving run."""
        chips = [c for shard in getattr(result, "shard_results", [result])
                 for c in shard.chips]
        util = self.metrics.chip_utilization(chips, result.makespan)
        return {
            "costmodel.shapes": len(self.costs.cycles),
            "fleet.batches": len(result.batches),
            "fleet.mean_batch_size": m.mean_batch_size,
            "fleet.mean_queue_wait_ms": m.cycles_to_ms(m.mean_queue_wait),
            "fleet.mean_batch_wait_ms": m.cycles_to_ms(m.mean_batch_wait),
            "fleet.mean_service_ms": m.cycles_to_ms(m.mean_service),
            "fleet.chip_utilization": _mean(r["utilization"] for r in util),
        }

    @staticmethod
    def conservation(label: str, offered: int, m) -> list[str]:
        if m.served + m.shed + m.expired == m.total == offered:
            return []
        return [f"{label}: served {m.served} + shed {m.shed} + expired "
                f"{m.expired} != offered {offered} (records {m.total})"]

    @staticmethod
    def csv_rows(label: str, path: str, offered: int) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows == offered:
            return []
        return [f"{label}: CSV has {rows} rows for {offered} requests"]


class ServeFleet(_Serve):
    """Open-loop Poisson ``bp+vgg`` on 4 chips, stepped up a fixed ladder
    of offered rates (event loop and request generation; no chip sims)."""

    name = "serve-fleet"
    LADDER_KRPS = (100, 200, 300, 350, 400)
    #: The rung whose latencies are reported.
    REPORT_KRPS = 300
    SIZES = {"full": 25_000, "tiny": 500}

    def make_config(self):
        from repro.serve.fleet import ServeConfig

        return ServeConfig(chips=4)

    def rung(self, krps: int):
        return self.serve_workload.WorkloadConfig(
            mix=self.MIX, arrival="poisson", rate=krps * 1000.0,
            requests=self.SIZES[self.size],
            seed=derive_seed(self.work_seed, f"rung-{krps}"))

    def run(self) -> Outcome:
        from repro.serve.fleet import FleetSimulator

        slo = self.config.slo_cycles
        rungs = {}
        max_rate = 0
        counts = {}
        report = None
        for krps in self.LADDER_KRPS:
            workload = self.rung(krps)
            requests, result, m, path = self.serve_once(workload, FleetSimulator)
            last_arrival = max(r.arrival for r in requests)
            last_finish = max((b.finish for b in result.batches
                               if b.outcome == "served"), default=last_arrival)
            p99 = m.latency_p99 if m.latency_p99 is not None else float("inf")
            ok = (p99 <= slo and m.shed == 0 and m.expired == 0
                  # No growing backlog: the fleet drains within one SLO
                  # after the last arrival.
                  and last_finish - last_arrival <= slo)
            if ok:
                max_rate = max(max_rate, krps)
            rungs[krps] = {"offered": len(requests), "served": m.served,
                           "shed": m.shed, "expired": m.expired,
                           "p50_ms": m.cycles_to_ms(m.latency_p50),
                           "p99_ms": m.cycles_to_ms(m.latency_p99),
                           "drain_cycles": last_finish - last_arrival,
                           "meets_slo": ok}
            if krps == self.REPORT_KRPS:
                report = m
                counts = self.layer_counts(result, m)
            rungs[krps]["_metrics"] = m
            rungs[krps]["_csv"] = path
        counts["requests"] = sum(r["offered"] for r in rungs.values())
        counts["rungs"] = {k: {kk: vv for kk, vv in r.items()
                               if not kk.startswith("_")}
                           for k, r in rungs.items()}
        p50 = report.cycles_to_ms(report.latency_p50)
        p99 = report.cycles_to_ms(report.latency_p99)
        return Outcome(
            model={"sim_ms": p99, "fleet_max_rate_krps": float(max_rate),
                   "fleet_p50_ms": p50, "fleet_p99_ms": p99},
            counts=counts, ops=len(self.LADDER_KRPS), raw={"rungs": rungs})

    def check(self, out: Outcome) -> list[str]:
        failures = []
        for krps, r in out.raw["rungs"].items():
            label = f"serve-fleet {krps}k rps"
            failures += self.conservation(label, r["offered"], r["_metrics"])
            failures += self.csv_rows(label, r["_csv"], r["offered"])
        return failures


class ServeCluster(_Serve):
    """Bursty ``bp+vgg`` on 4 shards x 2 chips behind the least-loaded
    router, with a zone failure domain and a straggler chip per shard,
    retries, hedging, cross-shard failover and brown-out shedding of fc."""

    name = "serve-cluster"
    RATE = 150_000.0
    #: requests, and the mean cycles between one shard's zone outages
    #: (more frequent at tiny size, so every failure path still runs)
    SIZES = {"full": (50_000, 3_000_000.0), "tiny": (8_000, 1_500_000.0)}

    def make_config(self):
        from repro.serve.cluster import ClusterConfig
        from repro.serve.failures import FailureConfig
        from repro.serve.fleet import ServeConfig
        from repro.serve.resilience import ResilienceConfig

        return ServeConfig(
            chips=2,
            failures=FailureConfig(
                seed=derive_seed(self.seed, "cluster-failures"),
                domains=((0, 1),),
                domain_mtbf_cycles=self.SIZES[self.size][1],
                domain_repair_mean_cycles=200_000.0,
                fail_slow_chips=(1,),
                fail_slow_mtbf_cycles=5_000_000.0,
                fail_slow_duration_cycles=300_000.0),
            resilience=ResilienceConfig(max_retries=2,
                                        hedge_delay_cycles=20_000.0),
            cluster=ClusterConfig(shards=4, router="least-loaded",
                                  failover_retries=1, brownout_headroom=0.6,
                                  brownout_kinds=("fc",)))

    def run(self) -> Outcome:
        from repro.serve.cluster import ClusterSimulator

        workload = self.serve_workload.WorkloadConfig(
            mix=self.MIX, arrival="bursty", rate=self.RATE,
            requests=self.SIZES[self.size][0], seed=self.work_seed,
            burst_factor=3.0, burst_len=50.0)
        requests, result, m, path = self.serve_once(workload, ClusterSimulator)
        roll = result.rollup()
        shard_requests = roll["shard_requests"]
        launches = result.batches
        served_launches = sum(1 for b in launches if b.outcome == "served")
        counts = {
            "requests": len(requests),
            **self.layer_counts(result, m),
            "cluster.failovers": result.failovers,
            "cluster.failover_expired": result.failover_expired,
            "cluster.brownout_shed": result.brownout_shed,
            "cluster.gossip_ticks": result.gossip_ticks,
            "cluster.shard_imbalance": (max(shard_requests)
                                        / _mean(shard_requests)),
            "cluster.min_alive_shard_fraction": result.min_alive_shard_fraction,
            "resilience.retries": m.retries,
            "resilience.hedges": m.hedges,
            "resilience.useful_launch_ratio": served_launches / len(launches),
            "resilience.wasted_cycles": (m.retry_wasted_cycles
                                         + m.hedge_wasted_cycles),
        }
        mean = m.cycles_to_ms(_mean(r.latency for r in result.records
                                    if r.outcome == "served"))
        # The headline is the mean served latency: across seeds the p99
        # rides on a handful of outage episodes and spreads by 10-30%.
        return Outcome(
            model={"sim_ms": mean, "cluster_mean_ms": mean,
                   "cluster_availability": m.availability,
                   "cluster_p99_ms": m.cycles_to_ms(m.latency_p99)},
            counts=counts,
            raw={"metrics": m, "csv": path, "offered": len(requests)})

    def check(self, out: Outcome) -> list[str]:
        raw, c = out.raw, out.counts
        failures = self.conservation("serve-cluster", raw["offered"],
                                     raw["metrics"])
        failures += self.csv_rows("serve-cluster", raw["csv"], raw["offered"])
        exercised = {
            "cross-shard failover": c["cluster.failovers"],
            "in-shard retry": c["resilience.retries"],
            "hedged launch": c["resilience.hedges"],
            "brown-out shed": c["cluster.brownout_shed"],
            "shard believed down": c["cluster.min_alive_shard_fraction"] < 1.0,
        }
        failures += [f"serve-cluster: no {what} happened"
                     for what, seen in exercised.items() if not seen]
        return failures


WORKLOADS = {w.name: w for w in (ChipBP, ChipGibbs, ServeFleet, ServeCluster)}


def make(name: str, seed: int, size: str, scratch: str):
    cls = WORKLOADS[name]
    if issubclass(cls, _Serve):
        return cls(seed, size, scratch)
    return cls(seed, size)
