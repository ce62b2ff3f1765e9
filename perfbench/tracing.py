"""Import-site tracing of pcg's public functions, for the per-layer metrics.

A layer is a public function, named by the module that defines it. Installing
a ``Tracer`` replaces that function object with a wrapper wherever a loaded
``pcg`` module holds it: in its defining module and in every module that
imported it by name (``pcg.cli.enumerate_equilibria``, ``pcg.equilibria.bfs_row``
and so on). Calls between pcg modules are therefore seen as well as the
benchmark's own calls. ``uninstall`` puts the original objects back.

Span layers record one span (layer, start, end, parent) per call, in memory;
a layer's self time is its span time minus the time of its direct children.
Count layers, used for the hot ``bfs_row`` kernel, only count calls, because
a span per call would cost more than the call.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass, field


def _on_enumerate(agg, result):
    agg["states_examined"] += result.states_examined
    agg["equilibria_found"] += len(result.equilibria)


def _on_serialize(agg, result):
    agg["bytes"] += len(result.encode("utf-8"))


def _on_canonical_form(agg, result):
    agg.setdefault("forms", set()).add(result)


def _on_is_nash(agg, result):
    agg["true_verdicts"] += bool(result.verdict)


def _on_run_sweep(agg, result):
    agg["rows"] += result


def _on_dynamics_run(agg, result):
    # Converged and BudgetExhausted report their own counters; a detected
    # cycle reports its trajectory, whose moves before the entry are unknown.
    if hasattr(result, "attempts"):
        agg["attempts"] += result.attempts
        agg["moves"] += result.steps
    else:
        agg["attempts"] += result.entry_index + result.period
        agg["moves"] += sum(
            result.states[i] != result.states[(i + 1) % result.period] for i in range(result.period)
        )


# layer name -> (defining module, attribute, kind, result hook)
LAYERS = {
    "cli.main": ("pcg.cli", "main", "span", None),
    "equilibria.enumerate_equilibria": ("pcg.equilibria", "enumerate_equilibria", "span", _on_enumerate),
    "equilibria.social_optimum_bruteforce": ("pcg.equilibria", "social_optimum_bruteforce", "span", None),
    "equilibria.is_strong": ("pcg.equilibria", "is_strong", "span", None),
    "equilibria.canonical_permutation_form": (
        "pcg.equilibria", "canonical_permutation_form", "span", _on_canonical_form),
    "equilibria.is_nash": ("pcg.equilibria", "is_nash", "span", _on_is_nash),
    "equilibria.best_response": ("pcg.equilibria", "best_response", "span", None),
    "theory.social_optimum_class": ("pcg.theory", "social_optimum_class", "span", None),
    "sweep.run_sweep": ("pcg.sweep", "run_sweep", "span", _on_run_sweep),
    "stateio.serialize_state": ("pcg.stateio", "serialize_state", "span", _on_serialize),
    "stateio.parse_state": ("pcg.stateio", "parse_state", "span", None),
    "dynamics.run": ("pcg.dynamics", "run", "span", _on_dynamics_run),
    "game.individual_cost": ("pcg.game", "individual_cost", "span", None),
    "game.social_cost": ("pcg.game", "social_cost", "span", None),
    "bitgraph.structure_table": ("pcg.bitgraph", "structure_table", "span", None),
    "bitgraph.graph_signatures": ("pcg.bitgraph", "graph_signatures", "span", None),
    "bitgraph.bfs_row": ("pcg.bitgraph", "bfs_row", "count", None),
}

# The one layer the untraced passes watch: the end-to-end states_per_s of the
# enumerate and strong workloads needs the time spent inside enumeration calls.
ENUMERATION_ONLY = ("equilibria.enumerate_equilibria",)


class _ZeroDict(dict):
    def __missing__(self, key):
        return 0


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    extra: dict = field(default_factory=_ZeroDict)  # counters the layer's result hook adds


class Tracer:
    """Wraps the named layers at their import sites while installed."""

    def __init__(self, layers=tuple(LAYERS), keep_spans: bool = True):
        self.layers = tuple(layers)
        self.keep_spans = keep_spans
        self.stats = {name: LayerStats() for name in self.layers}
        self.spans = []  # (layer, start_ns, end_ns, parent index or -1)
        self._child_ns = []
        self._stack = []
        self._patched = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "pcg" or name.startswith("pcg.")]
        for name in self.layers:
            module_name, attr, kind, hook = LAYERS[name]
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._counter(name, original) if kind == "count" else self._span(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return self

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _counter(self, name, fn):
        stats = self.stats[name]

        def counted(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn, hook):
        stats = self.stats[name]
        spans, child_ns, stack = self.spans, self._child_ns, self._stack
        keep = self.keep_spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(child_ns)
            child_ns.append(0)
            if keep:
                spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span_ns = end - start
                stats.calls += 1
                stats.total_ns += span_ns
                stats.self_ns += span_ns - child_ns[index]
                if parent >= 0:
                    child_ns[parent] += span_ns
                if keep:
                    spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(stats.extra, result)
            return result

        return traced

    def dump(self, path):
        """Write the spans as JSON: layer names, then [layer, start_ns, end_ns, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0
        rows = [[ids[n], a - origin, b - origin, p] for n, a, b, p in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": names, "spans": rows}, handle, separators=(",", ":"))


def _seconds(ns: int) -> float:
    return ns / 1e9


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Per-layer metrics of one traced pass: (name, unit, better, value, what it
# should move). The last field is the map from layer metric to end-to-end
# metric and workload that performance changes cite.
def _metric_table(s, setup):
    e, sob, soc = s["equilibria.enumerate_equilibria"], s["equilibria.social_optimum_bruteforce"], s[
        "theory.social_optimum_class"]
    sw, ser, main, par = s["sweep.run_sweep"], s["stateio.serialize_state"], s["cli.main"], s["stateio.parse_state"]
    strong, bfs, canon = s["equilibria.is_strong"], s["bitgraph.bfs_row"], s["equilibria.canonical_permutation_form"]
    nash, br, run = s["equilibria.is_nash"], s["equilibria.best_response"], s["dynamics.run"]
    ic, sc = s["game.individual_cost"], s["game.social_cost"]
    scan = "wall_s and states_per_s on enumerate; unchanged on respond"
    sweep = "wall_s on enumerate, through the sweep"
    report = "wall_s and peak_rss_mb on enumerate, through the 43,728-state report"
    coalition = "wall_s on strong"
    single = "wall_s on respond"
    tables = "setup_s on every workload"
    return [
        ("equilibria.enumerate_equilibria.calls", "count", "lower", e.calls, scan),
        ("equilibria.enumerate_equilibria.self_s", "s", "lower", _seconds(e.self_ns), scan),
        ("equilibria.enumerate_equilibria.states_per_s", "1/s", "higher",
         _ratio(e.extra["states_examined"], _seconds(e.self_ns)), scan),
        ("equilibria.enumerate_equilibria.equilibria_found", "count", "higher", e.extra["equilibria_found"], scan),
        ("equilibria.social_optimum_bruteforce.calls", "count", "lower", sob.calls, sweep),
        ("equilibria.social_optimum_bruteforce.s", "s", "lower", _seconds(sob.total_ns), sweep),
        ("theory.social_optimum_class.calls", "count", "lower", soc.calls, sweep),
        ("theory.social_optimum_class.s", "s", "lower", _seconds(soc.total_ns), sweep),
        ("sweep.run_sweep.rows", "count", "higher", sw.extra["rows"], sweep),
        ("sweep.run_sweep.self_s", "s", "lower", _seconds(sw.self_ns), sweep),
        ("stateio.serialize_state.calls", "count", "lower", ser.calls, report),
        ("stateio.serialize_state.s", "s", "lower", _seconds(ser.total_ns), report),
        ("stateio.serialize_state.bytes", "B", "lower", ser.extra["bytes"], report),
        ("cli.main.calls", "count", "lower", main.calls, report),
        ("cli.main.self_s", "s", "lower", _seconds(main.self_ns), report),
        ("stateio.parse_state.calls", "count", "lower", par.calls, single),
        ("stateio.parse_state.s", "s", "lower", _seconds(par.total_ns), single),
        ("equilibria.is_strong.calls", "count", "lower", strong.calls, coalition),
        ("equilibria.is_strong.s", "s", "lower", _seconds(strong.total_ns), coalition),
        ("bitgraph.bfs_row.calls", "count", "lower", bfs.calls, coalition),
        ("equilibria.canonical_permutation_form.calls", "count", "lower", canon.calls, coalition),
        ("equilibria.canonical_permutation_form.s", "s", "lower", _seconds(canon.total_ns), coalition),
        ("equilibria.canonical_permutation_form.distinct_ratio", "ratio", "higher",
         _ratio(len(canon.extra.get("forms", ())), canon.calls), coalition),
        ("equilibria.is_nash.calls", "count", "lower", nash.calls, single),
        ("equilibria.is_nash.s", "s", "lower", _seconds(nash.total_ns), single),
        ("equilibria.is_nash.true_verdicts", "count", "higher", nash.extra["true_verdicts"], single),
        ("equilibria.best_response.calls", "count", "lower", br.calls, single),
        ("equilibria.best_response.s", "s", "lower", _seconds(br.total_ns), single),
        ("dynamics.run.calls", "count", "lower", run.calls, single),
        ("dynamics.run.s", "s", "lower", _seconds(run.total_ns), single),
        ("dynamics.run.attempts", "count", "lower", run.extra["attempts"], single),
        ("dynamics.run.moves", "count", "lower", run.extra["moves"], single),
        ("dynamics.run.moves_per_attempt", "ratio", "higher",
         _ratio(run.extra["moves"], run.extra["attempts"]), single),
        ("game.individual_cost.calls", "count", "lower", ic.calls, single + " (the oracle, a small share)"),
        ("game.individual_cost.s", "s", "lower", _seconds(ic.total_ns), single + " (the oracle, a small share)"),
        ("game.social_cost.calls", "count", "lower", sc.calls, single + " (the oracle, a small share)"),
        ("game.social_cost.s", "s", "lower", _seconds(sc.total_ns), single + " (the oracle, a small share)"),
        ("bitgraph.structure_table.s", "s", "lower",
         _seconds(setup["bitgraph.structure_table"].total_ns), tables + " (cold, each n used)"),
        ("bitgraph.graph_signatures.s", "s", "lower",
         _seconds(setup["bitgraph.graph_signatures"].total_ns), tables + " (cold, each n used)"),
    ]


OVERHEAD = ("trace.overhead_s", "s", "lower", "none: traced minus untraced pass time, composed as wall_s")


def layer_metrics(pass_stats: dict, setup_stats: dict, slowdown: float) -> dict:
    """name -> value for one traced pass, times divided by the host slowdown."""
    scale = {"s": 1 / slowdown, "1/s": slowdown}
    return {name: value * scale.get(unit, 1) for name, unit, _, value, _ in _metric_table(pass_stats, setup_stats)}


def metric_specs() -> list:
    """(name, unit, better, moves) of every per-layer metric, overhead last."""
    empty = {name: LayerStats() for name in LAYERS}
    specs = [(name, unit, better, moves) for name, unit, better, _, moves in _metric_table(empty, empty)]
    return specs + [OVERHEAD]


def median_metrics(per_pass: list) -> dict:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
