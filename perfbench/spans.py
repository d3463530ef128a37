"""Span tracing of the program's public entry points, from outside the program.

A :class:`Tracer` keeps a tree of nodes in memory.  Coarse calls (kernel
builders, ``stage``, ``Chip.run``, ``generate_requests``, the simulators'
``run``, ``compute_metrics``, ``write_csv``) get one *span* node each, with
name, start, end and parent.  Per-instruction and per-access calls
(``PE.step``, ``PE.next_issue_lower_bound``, ``VaultController.access`` /
``access_run``, ``FleetSimulator.step`` / ``advance_to`` / ``finish``) get
one *aggregate* node per enclosing node, holding a call count and the
summed time.

Every node knows how much of its time its children cover, so its self
time is ``total - covered``; the self times of a tree add up to the root's
total by construction.  A node's layer is the part of its name before the
first dot (``pe.step`` -> ``pe``).

:func:`instrument` patches the entry points on their classes and modules
for the duration of a ``with`` block and restores the originals on exit;
nothing inside the program changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import fields

_now = time.perf_counter


class Node:
    """One span (``agg`` false) or one aggregate of repeated calls."""

    __slots__ = ("name", "parent", "agg", "start", "end", "total", "covered",
                 "count", "aggs", "children", "attrs")

    def __init__(self, name: str, parent: "Node | None", agg: bool = False):
        self.name = name
        self.parent = parent
        self.agg = agg
        self.start = 0.0
        self.end = 0.0
        self.total = 0.0
        self.covered = 0.0
        self.count = 0
        self.aggs: dict[str, Node] = {}
        self.children: list[Node] = []
        self.attrs: dict = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_time(self) -> float:
        return self.total - self.covered

    def nodes(self):
        """This node and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.nodes()
        for agg in self.aggs.values():
            yield from agg.nodes()

    def as_dict(self, origin: float) -> dict:
        out = {"name": self.name, "total_s": self.total,
               "self_s": self.self_time}
        if self.agg:
            out["calls"] = self.count
        else:
            out["start_s"] = self.start - origin
            out["end_s"] = self.end - origin
        if self.attrs:
            out["attrs"] = self.attrs
        kids = self.children + list(self.aggs.values())
        if kids:
            out["children"] = [k.as_dict(origin) for k in kids]
        return out


class Tracer:
    """In-memory span tree plus the chip counters seen by ``Chip.run``."""

    def __init__(self):
        self.roots: dict[str, Node] = {}
        self.stack: list[Node] = []
        self.origin = _now()
        #: Per root: summed deltas over every observed ``Chip.run`` call.
        self.chip: dict[str, dict] = {}

    @contextmanager
    def root(self, name: str):
        """A top-level span; instrumented calls are only legal inside one."""
        if self.stack:
            raise RuntimeError(f"root {name!r} opened inside "
                               f"{self.stack[-1].name!r}")
        node = Node(name, None)
        self.roots[name] = node
        self.stack.append(node)
        node.start = _now()
        try:
            yield node
        finally:
            node.end = _now()
            node.total = node.end - node.start
            self.stack.pop()

    def open(self, name: str) -> Node:
        parent = self.stack[-1]
        node = Node(name, parent)
        parent.children.append(node)
        self.stack.append(node)
        node.start = _now()
        return node

    def close(self, node: Node) -> None:
        node.end = _now()
        node.total = node.end - node.start
        self.stack.pop()
        node.parent.covered += node.total

    def agg_enter(self, name: str) -> tuple[Node, float]:
        parent = self.stack[-1]
        node = parent.aggs.get(name)
        if node is None:
            node = parent.aggs[name] = Node(name, parent, agg=True)
        self.stack.append(node)
        return node, _now()

    def agg_exit(self, node: Node, t0: float) -> None:
        dt = _now() - t0
        self.stack.pop()
        node.count += 1
        node.total += dt
        node.parent.covered += dt

    # -- queries ---------------------------------------------------------

    def top_nodes(self, root: str, names) -> list[Node]:
        """Nodes named in ``names`` with no ancestor also named in
        ``names``, so nested calls of one entry point count once."""
        names = set(names)
        out: list[Node] = []

        def walk(node):
            if node.name in names:
                out.append(node)
                return
            for kid in node.children:
                walk(kid)
            for kid in node.aggs.values():
                walk(kid)

        node = self.roots.get(root)
        if node is not None:
            walk(node)
        return out

    def inclusive(self, root: str, names) -> float:
        """Total time spent inside the named entry points."""
        return sum(n.total for n in self.top_nodes(root, names))

    def calls(self, root: str, names) -> int:
        """Number of calls of the named entry points, nested ones included."""
        names = set(names)
        node = self.roots.get(root)
        if node is None:
            return 0
        return sum((n.count if n.agg else 1) for n in node.nodes()
                   if n.name in names)

    def self_time(self, root: str, names) -> float:
        names = set(names)
        node = self.roots.get(root)
        if node is None:
            return 0.0
        return sum(n.self_time for n in node.nodes() if n.name in names)

    def layer_self(self, root: str) -> dict[str, float]:
        """Self time per layer under ``root``; sums to the root's total."""
        out: dict[str, float] = {}
        node = self.roots.get(root)
        if node is None:
            return out
        for n in node.nodes():
            out[n.layer] = out.get(n.layer, 0.0) + n.self_time
        return out

    def write(self, path) -> None:
        """Write every root's tree and the chip totals as JSON."""
        doc = {"roots": [r.as_dict(self.origin) for r in self.roots.values()],
               "chip": self.chip}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# wrappers


def _span_wrapper(tracer: Tracer, name: str, fn, observe=None, count=None):
    """One span per call.  ``observe(args)`` runs before the span opens and
    returns a callable taking the result, run after it closes; both halves
    are charged to a ``trace.observe`` aggregate so the tracer's own cost
    stays visible.  ``count(result)`` stores ``attrs["n"]`` on the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        finish = None
        if observe is not None:
            obs, t0 = tracer.agg_enter("trace.observe")
            try:
                finish = observe(args)
            finally:
                tracer.agg_exit(obs, t0)
        node = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(node)
        if count is not None:
            node.attrs["n"] = count(result)
        if finish is not None:
            obs, t0 = tracer.agg_enter("trace.observe")
            try:
                finish(result)
            finally:
                tracer.agg_exit(obs, t0)
        return result

    return wrapper


def _agg_wrapper(tracer: Tracer, name: str, fn):
    # Tracer.agg_enter/agg_exit inlined: this runs once per simulated
    # instruction or DRAM burst, so two more calls each time would show
    # in trace.overhead_s.
    stack = tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = stack[-1]
        node = parent.aggs.get(name)
        if node is None:
            node = parent.aggs[name] = Node(name, parent, agg=True)
        stack.append(node)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _now() - t0
            stack.pop()
            node.count += 1
            node.total += dt
            parent.covered += dt

    return wrapper


# ---------------------------------------------------------------------------
# chip observation (Chip.run)


def _chip_state(chip) -> dict:
    """Cumulative counters of one chip (PE counters accumulate across
    ``Chip.run`` calls on the same chip, so callers take differences)."""
    from repro.pe.counters import PECounters

    pe = PECounters.sum(pe.counters for pe in chip.pes)
    vaults = list(chip.hmc.vaults)
    banks = [b for v in vaults for b in v.banks]
    return {
        "pe": {f.name: getattr(pe, f.name) for f in fields(pe)},
        "pe_end": [pe.result().cycles for pe in chip.pes],
        "memory_requests": sum(v.stats.reads + v.stats.writes for v in vaults),
        "memory_bytes": sum(v.stats.total_bytes for v in vaults),
        "bank_accesses": sum(b.stats.accesses for b in banks),
        "row_hits": sum(b.stats.row_hits for b in banks),
        "noc_messages": chip.noc.stats.messages,
    }


def _observe_chip_run(tracer: Tracer):
    def observe(args):
        chip = args[0]
        before = _chip_state(chip)

        def finish(result):
            after = _chip_state(chip)
            totals = tracer.chip.setdefault(tracer.stack[0].name, {})
            pe = totals.setdefault("pe", {})
            for key, value in after["pe"].items():
                pe[key] = pe.get(key, 0) + value - before["pe"][key]
            for key in ("memory_requests", "memory_bytes", "bank_accesses",
                        "row_hits", "noc_messages"):
                totals[key] = totals.get(key, 0) + after[key] - before[key]
            start = max(before["pe_end"])
            totals["sim_cycles"] = (totals.get("sim_cycles", 0.0)
                                    + result.cycles - start)
            totals["pe_cycles"] = totals.get("pe_cycles", 0.0) + sum(
                a - b for a, b in zip(after["pe_end"], before["pe_end"]))
            totals["runs"] = totals.get("runs", 0) + 1
            totals["tck_ns"] = chip.config.memory.timing.tCK

        return finish

    return observe


def _program_count(result) -> int:
    return len(result) if isinstance(result, (list, tuple, dict)) else 1


# ---------------------------------------------------------------------------
# instrumentation


def _functions(module_name: str, prefix: str):
    module = sys.modules[module_name]
    return [getattr(module, n) for n in sorted(vars(module))
            if n.startswith(prefix) and callable(getattr(module, n))]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's public entry points for the ``with`` block."""
    import repro.kernels.bp_kernel
    import repro.kernels.conv_kernel
    import repro.kernels.fc_kernel
    import repro.kernels.gibbs_kernel
    import repro.kernels.pool_kernel
    import repro.serve.costmodel
    import repro.serve.metrics
    import repro.serve.report
    import repro.serve.workload
    import repro.workloads.gibbs.runner
    from repro.kernels.bp_kernel import BPTileLayout
    from repro.kernels.conv_kernel import ConvTileLayout
    from repro.kernels.fc_kernel import FCTileLayout
    from repro.kernels.gibbs_kernel import GibbsTileLayout
    from repro.kernels.pool_kernel import PoolTileLayout
    from repro.memory.vault import VaultController
    from repro.pe.pe import PE
    from repro.perf.extrapolate import BPPerformanceModel, HierarchicalBPModel
    from repro.serve.cluster import ClusterSimulator
    from repro.serve.fleet import FleetSimulator
    from repro.system.chip import Chip

    builders = []
    for mod in ("bp", "conv", "fc", "gibbs", "pool"):
        builders += _functions(f"repro.kernels.{mod}_kernel", "build_")
    functions = [(fn, "kernels.build", _program_count) for fn in builders] + [
        (repro.serve.workload.generate_requests, "workload.generate", None),
        (repro.serve.metrics.compute_metrics, "metrics.compute", None),
        (repro.serve.report.write_csv, "report.write", None),
        (repro.serve.costmodel.build_cost_table, "costmodel.build", None),
        (repro.workloads.gibbs.runner.run_gibbs_on_chip,
         "workloads.gibbs_on_chip", None),
    ]
    spans = [
        *[(cls, "stage", "memory.stage") for cls in (
            BPTileLayout, GibbsTileLayout, ConvTileLayout, FCTileLayout,
            PoolTileLayout)],
        (Chip, "__init__", "system.build"),
        (BPPerformanceModel, "measure", "perf.bp_measure"),
        (HierarchicalBPModel, "measure", "perf.hier_measure"),
        (FleetSimulator, "run", "fleet.run"),
        (ClusterSimulator, "run", "cluster.run"),
    ]
    aggregates = [
        (PE, "step", "pe.step"),
        (PE, "next_issue_lower_bound", "pe.bound"),
        (VaultController, "access", "memory.access"),
        (VaultController, "access_run", "memory.access_run"),
        (FleetSimulator, "step", "fleet.step"),
        (FleetSimulator, "advance_to", "fleet.advance_to"),
        (FleetSimulator, "finish", "fleet.finish"),
    ]

    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        for fn, name, count in functions:
            wrapper = _span_wrapper(tracer, name, fn, count=count)
            for module in modules:
                if module.__dict__.get(fn.__name__) is fn:
                    patch(module, fn.__name__, wrapper)
        for cls, attr, name in spans:
            patch(cls, attr, _span_wrapper(tracer, name, cls.__dict__[attr]))
        patch(Chip, "run", _span_wrapper(tracer, "system.run",
                                         Chip.__dict__["run"],
                                         observe=_observe_chip_run(tracer)))
        for cls, attr, name in aggregates:
            patch(cls, attr, _agg_wrapper(tracer, name, cls.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
