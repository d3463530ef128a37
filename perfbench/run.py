"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chip-bp --seed 1 --seconds 28 --trace 0

Run from the repository root (the program is imported from ``src/``).
With ``--trace 0`` the run repeats the workload's timed calls until
``--seconds`` of measurement have passed and reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it then repeats the
timed calls once more with every layer's public entry points wrapped, and
reports the per-layer metrics instead.  The last line of standard output
is one JSON object; the lines above it are for people.

Every run checks the program's outputs against reference outputs (outside
the timing), checks that every modelled value and count repeats exactly
across repetitions, between the traced and untraced calls, and across
runs of the same code and seed (``.perfbench/ledger.json``), and checks
that the program started no worker process.  A failed check makes the
run print ``"correct": false`` and exit with code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes goes under here (ignored by git).
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
os.environ["REPRO_MAX_WORKERS"] = "1"
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import workloads  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _code_hash() -> str:
    """Hash of the program and benchmark sources, keying the ledger."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _fingerprint(outcome) -> str:
    doc = json.dumps({"model": outcome.model, "counts": outcome.counts},
                     sort_keys=True, default=repr)
    return hashlib.sha256(doc.encode()).hexdigest()


def _clear_caches() -> None:
    """Drop the program's memoized kernel programs and timing tables so
    every repetition pays what a fresh invocation pays."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(("repro.kernels.",
                                                  "repro.pe.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                clear()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_probe(args) -> int:
    """Child-process entry: set the workload up, report when ready."""
    scratch = OUT_DIR / f"probe-{os.getpid()}"
    with HostSpeed() as speed:
        workloads.make(args.workload, args.seed, args.size,
                       str(scratch)).setup()
    ready = time.time()
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"ready": ready, "slices": speed.slices}))
    return 0


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time in fresh processes, from process start to ready-to-time:
    raw seconds and seconds at the nominal host speed."""
    raw, nominal = [], []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        work, scaled = HostSpeed(probe["slices"]).rescale(
            probe["ready"] - start)
        raw.append(work)
        nominal.append(scaled)
    return raw, nominal


def _repeat(wl, seconds: float, on_first):
    """Repeat the timed calls while another repetition still fits in
    ``seconds``; ``on_first`` sees the first outcome before it is freed.
    Returns, per repetition, the raw seconds, the seconds at the nominal
    host speed, and the fingerprint of the modelled values."""
    walls, nominal, prints = [], [], []
    begin = time.perf_counter()
    while True:
        _clear_caches()
        gc.collect()
        with HostSpeed() as speed:
            t0 = time.perf_counter()
            outcome = wl.run()
            elapsed = time.perf_counter() - t0
        work, scaled = speed.rescale(elapsed)
        walls.append(work)
        nominal.append(scaled)
        prints.append(_fingerprint(outcome))
        if len(walls) == 1:
            on_first(outcome)
        del outcome
        if time.perf_counter() - begin + max(walls) > seconds:
            return walls, nominal, prints


def _ledger_check(key: str, fingerprint: str) -> str | None:
    """Compare with earlier runs of the same code, workload and seed."""
    path = OUT_DIR / "ledger.json"
    ledger = {}
    if path.exists():
        ledger = json.loads(path.read_text(encoding="utf-8"))
    seen = ledger.setdefault(key, fingerprint)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    if seen != fingerprint:
        return (f"modelled values differ from an earlier run of the same "
                f"code and seed ({key})")
    return None


def _layer_metrics(tracer, outcome, untraced_wall: float, names) -> dict:
    """Every per-layer metric of BENCHMARK.json from the traced run.

    Layers that do not run on a workload read 0."""
    from repro.pe.counters import PECounters
    from repro.perf import roofline as rf

    T = "bench.timed"
    inc = tracer.inclusive
    chip = tracer.chip.get(T, {})
    pe = PECounters(**chip["pe"]) if "pe" in chip else PECounters()
    counts = outcome.counts
    requests = counts.get("requests", 0)
    sim_cycles = chip.get("sim_cycles", 0.0)
    efficiency = 0.0
    if sim_cycles:
        point = rf.point_from_counters("timed", pe, sim_cycles)
        efficiency = rf.validate_point(
            point, rf.Roofline.for_vip(num_pes=4))["efficiency"]
    traced_wall = tracer.roots[T].total
    step_s = inc(T, ["pe.step"])
    fleet_s = inc(T, ["fleet.run", "fleet.step", "fleet.advance_to",
                      "fleet.finish"])
    cluster_s = inc(T, ["cluster.run"])
    generate_s = inc(T, ["workload.generate"])

    def per_request(seconds):
        return seconds / requests * 1e6 if requests else 0.0

    accesses = chip.get("bank_accesses", 0)
    values = {
        "kernels.build_s": inc(T, ["kernels.build"]),
        "kernels.programs": sum(n.attrs.get("n", 0) for n in
                                tracer.top_nodes(T, ["kernels.build"])),
        "memory.stage_s": inc(T, ["memory.stage"]),
        "memory.access_s": inc(T, ["memory.access", "memory.access_run"]),
        "memory.requests": chip.get("memory_requests", 0),
        "memory.bytes": chip.get("memory_bytes", 0),
        "memory.row_hit_rate": (chip["row_hits"] / accesses
                                if accesses else 0.0),
        "memory.achieved_gbps": (chip["memory_bytes"]
                                 / (sim_cycles * chip["tck_ns"])
                                 if sim_cycles else 0.0),
        "noc.messages": chip.get("noc_messages", 0),
        "system.run_s": inc(T, ["system.run"]),
        "system.self_s": tracer.self_time(T, ["system.run"]),
        "system.runs": chip.get("runs", 0),
        "system.sim_cycles": sim_cycles,
        "pe.step_s": step_s,
        "pe.bound_s": inc(T, ["pe.bound"]),
        "pe.steps": tracer.calls(T, ["pe.step"]),
        "pe.host_ns_per_instr": (step_s / pe.instructions * 1e9
                                 if pe.instructions else 0.0),
        "pe.instructions": pe.instructions,
        "pe.vector_instructions": pe.vector_instructions,
        "pe.scalar_instructions": pe.scalar_instructions,
        "pe.ipc": (pe.instructions / chip["pe_cycles"]
                   if chip.get("pe_cycles") else 0.0),
        "pe.stall_operand_cycles": pe.stall_operand,
        "pe.stall_arc_cycles": pe.stall_arc,
        "pe.stall_vector_pipe_cycles": pe.stall_vector_pipe,
        "pe.stall_lsu_cycles": pe.stall_lsu,
        "pe.stall_hazard_cycles": pe.stall_hazard,
        "pe.stall_sync_cycles": pe.stall_sync,
        "perf.roofline_efficiency": efficiency,
        "costmodel.build_s": inc("bench.setup", ["costmodel.build"]),
        "workload.generate_s": generate_s,
        "workload.us_per_request": per_request(generate_s),
        "fleet.run_s": fleet_s,
        "fleet.us_per_request": per_request(fleet_s),
        "cluster.run_s": cluster_s,
        "cluster.self_s": tracer.self_time(T, ["cluster.run"]),
        "cluster.us_per_request": per_request(cluster_s),
        "metrics.compute_s": inc(T, ["metrics.compute"]),
        "report.write_s": inc(T, ["report.write"]),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name, value in counts.items():
        if "." in name:
            values[name] = value
    return {name: values.get(name, 0) for name in names}


def _print_human(args, first, walls, nominal, setup, layer_self, metrics,
                 spec):
    model = first.model

    def secs(values):
        return ", ".join(f"{v:.3f}" for v in values) + " s"

    print(f"perfbench {args.workload} seed={args.seed} size={args.size}")
    print(f"  repetitions {len(walls)}, raw: {secs(walls)}")
    print(f"    at nominal host speed: {secs(nominal)}")
    if setup:
        print(f"  setup probes, raw: {secs(setup)}")
    refs = {
        "bp_iter_err_pct": f"modelled {model.get('bp_iter_ms', 0):.4f} ms/iter "
                           f"vs paper {workloads.PAPER_BP_ITER_MS} ms/iter "
                           "(Table IV)",
        "bp_hier_err_pct": f"modelled {model.get('bp_hier_ms', 0):.4f} ms "
                           f"vs paper {workloads.PAPER_BP_HIER_MS} ms "
                           "(Table IV, hierarchical)",
    }
    print("  modelled (identical on every run of this seed):")
    for name, value in model.items():
        if name in ("sim_ms", "bp_iter_ms", "bp_hier_ms"):
            continue
        note = refs.get(name, "unvalidated (no reference)")
        print(f"    {name:<24} {value:.6g}  {note}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print("  metrics:")
    for name, value in metrics.items():
        print(f"    {name:<32} {value:.6g} {units[name]}")
    if layer_self:
        total = sum(layer_self.values())
        print(f"  traced self time by layer (sums to {total:.4f} s):")
        for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<12} {t:9.4f} s  {t / total:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    try:
        import repro
    except ImportError as err:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{err}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = _load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-{args.size}"
    failures: list[str] = []
    wl = workloads.make(args.workload, args.seed, args.size, str(scratch))
    tracer = None
    try:
        if args.trace:
            from perfbench.spans import Tracer, instrument

            tracer = Tracer()
            with instrument(tracer), tracer.root("bench.setup"):
                wl.setup()
            setup, setup_nominal = [], []
        else:
            wl.setup()
            setup, setup_nominal = _measure_setup(args)
        children_before = _children_cpu()
        firsts = []

        def on_first(outcome):
            firsts.append(outcome)
            failures.extend(wl.check(outcome))
            outcome.raw = {}

        walls, nominal, prints = _repeat(wl, args.seconds, on_first)
        first = firsts[0]
        if len(set(prints)) != 1:
            failures.append("modelled values differ between repetitions")
        layer_self = {}
        if tracer is not None:
            _clear_caches()
            gc.collect()
            with instrument(tracer), tracer.root("bench.timed"):
                traced = wl.run()
            if _fingerprint(traced) != prints[0]:
                failures.append("traced run's modelled values differ from "
                                "the untraced run's")
            layer_self = tracer.layer_self("bench.timed")
            drift = abs(sum(layer_self.values())
                        - tracer.roots["bench.timed"].total)
            if drift > 1e-6:
                failures.append(f"layer self times miss the traced wall "
                                f"time by {drift:.3g} s")
            tracer.write(OUT_DIR / f"trace-{tag}.json")
            names = [m["name"] for m in spec["per_layer"]]
            values = _layer_metrics(tracer, traced,
                                    statistics.median(walls), names)
        else:
            values = {
                "wall_s": statistics.median(nominal),
                "setup_s": statistics.median(setup_nominal),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "sim_ms": first.model["sim_ms"],
            }
            names = [m["name"] for m in spec["end_to_end"]]
        if _children_cpu() != children_before or multiprocessing.active_children():
            failures.append("a child process ran during the timed calls")
        problem = _ledger_check(f"{tag}-{_code_hash()}", prints[0])
        if problem:
            failures.append(problem)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {name: values[name] for name in names}
    _print_human(args, first, walls, nominal, setup, layer_self, metrics,
                 spec)
    attempted = (first.ops * (len(walls) + (1 if tracer else 0))
                 + wl.check_ops)
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(f"  operations: attempted {attempted}, failed {len(failures)}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "walls_raw_s": walls,
              "walls_nominal_s": nominal, "setup_raw_s": setup,
              "setup_nominal_s": setup_nominal,
              "model": first.model, "counts": first.counts,
              "failures": failures, "result": result}
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=repr) + "\n",
        encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
