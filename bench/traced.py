"""The addtree command line, run with its library calls timed as spans.

Usage (from the checkout root, with src on PYTHONPATH):

    python3 bench/traced.py SPANS_JSON plan INPUT --strategy critical [--with-oracle]
    python3 bench/traced.py SPANS_JSON simulate INPUT --strategy huffman --precision 24
    python3 bench/traced.py SPANS_JSON reduce INSTANCE --out-prefix PREFIX

Everything after SPANS_JSON goes to `addtree.cli.main` unchanged, in a fresh
interpreter like the CLI, so the output is the CLI's own. Before it runs,
the public functions the CLI reaches through a patchable name are wrapped:
each call becomes a *pipeline* span, timed on the CLI's own path with the
same heap and GC state, and its arguments and result are kept. After the
CLI returns, the public sub-functions those calls make are *replayed* on
the kept data; each replay is a span whose parent is the pipeline span it
belongs to. Probes measure walkers the CLI does not call. Spans and counts
stay in memory and are written to SPANS_JSON at the end.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import json
import sys
import time
from pathlib import Path

from addtree import cli, fpsim, hardness, huffman, matching, oracle, planner, tree


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's launch time and this
    # process's timestamps share one time base.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _gc_counts() -> list:
    return [g["collections"] for g in gc.get_stats()]


class GcPauses:
    """Seconds the cyclic GC has been disabled, kept by wrapping gc.disable
    and gc.enable, which the library calls around bulk tree builds."""

    def __init__(self):
        self._disable, self._enable = gc.disable, gc.enable
        self._total = 0.0
        self._since = None if gc.isenabled() else clock()

    def install(self) -> None:
        gc.disable, gc.enable = self.disable, self.enable

    def uninstall(self) -> None:
        gc.disable, gc.enable = self._disable, self._enable

    def disable(self) -> None:
        if self._since is None:
            self._since = clock()
        self._disable()

    def enable(self) -> None:
        if self._since is not None:
            self._total += clock() - self._since
            self._since = None
        self._enable()

    def disabled_s(self) -> float:
        ongoing = 0.0 if self._since is None else clock() - self._since
        return self._total + ongoing


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.calls: dict = {}  # span name -> (span, bound arguments, result)
        self.gc = GcPauses()
        self._stack: list = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "pipeline", parent: dict = None):
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {
            "id": len(self.spans),
            "name": name,
            "kind": kind,
            "parent": None if parent is None else parent["id"],
        }
        self.spans.append(record)
        self._stack.append(record)
        gc0 = _gc_counts()
        off0 = self.gc.disabled_s()
        record["start"] = clock()
        try:
            yield record
        finally:
            record["end"] = clock()
            record["gc_disabled_s"] = self.gc.disabled_s() - off0
            record["gc_collections"] = [b - a for a, b in zip(gc0, _gc_counts())]
            self._stack.pop()

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that runs each call in a pipeline
        span and keeps the last call's arguments and result."""
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls[name] = (record, bound.arguments, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def _count_inexact(root, prec) -> tuple:
    """Replay of fpsim's rounded evaluation: root value and the number of
    additions whose result rounding changed."""
    vals: list = []
    inexact = 0
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, tree.Leaf):
            vals.append(node.value)
        elif expanded:
            b = vals.pop()
            a = vals.pop()
            s = a + b
            r = fpsim.round_to_precision(s, prec)
            inexact += r != s
            vals.append(r)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return vals[0], inexact


def _internal_nodes(root) -> int:
    return sum(isinstance(node, tree.Internal) for node in tree.nodes(root))


def replay(tr: Tracer, root: dict) -> None:
    """Replays, probes and counts on the data the CLI's calls kept."""
    if "cli.read_values" in tr.calls:
        _, args, values = tr.calls["cli.read_values"]
        tr.counts["cli.read_values.bytes"] = Path(args["path"]).stat().st_size
        tr.counts["cli.read_values.non_int_share"] = sum(
            not isinstance(v, int) for v in values
        ) / len(values)

    if "planner.plan" in tr.calls:
        plan_span, args, report = tr.calls["planner.plan"]
        values = args["x"]
        if args["strategy"] == "critical":
            with tr.span("matching.split_by_sign", "replay", plan_span):
                pos, neg = matching.split_by_sign(values)
            with tr.span("matching.minimum_critical_matching", "replay", plan_span):
                m = matching.minimum_critical_matching(pos, neg)
            tr.counts["matching.pairs"] = len(m.pairs)
            tr.counts["matching.unmatched"] = len(m.unmatched)
        if args["strategy"] == "huffman" and not args["presorted"]:
            # The planner builds over magnitudes; single-sign input is all
            # positive or all negative.
            positive = values if values[0] > 0 else [-v for v in values]
            with tr.span("huffman.build_huffman", "replay", plan_span):
                built = huffman.build_huffman(positive)
            tr.counts["huffman.merges"] = _internal_nodes(built)
        if args["with_oracle"]:
            with tr.span("oracle.optimal_cost_dp", "replay", plan_span):
                result = oracle.optimal_cost_dp(values, cap=args["oracle_cap"])
            if result.optimal_cost != report.optimal_cost:
                raise RuntimeError("replayed optimal_cost_dp differs from the report")
        with tr.span("tree.cost", "replay", plan_span):
            c = tree.cost(report.tree)
        if c != report.cost:
            raise RuntimeError("replayed tree.cost differs from the report")
        with tr.span("tree.depth", "probe", root):
            tr.counts["tree.depth"] = tree.depth(report.tree)
        tr.counts["tree.nodes"] = sum(1 for _ in tree.nodes(report.tree))

    if "planner.PlanReport.to_json_dict" in tr.calls:
        render_span, args, payload = tr.calls["planner.PlanReport.to_json_dict"]
        with tr.span("tree.serialize", "replay", render_span):
            text = tree.serialize(args["self"].tree)
        if text != payload["tree"]:
            raise RuntimeError("replayed tree.serialize differs from the report")
        tr.counts["tree.serialize.bytes"] = len(text)

    if "fpsim.simulate" in tr.calls:
        sim_span, args, result = tr.calls["fpsim.simulate"]
        with tr.span("fpsim.round_to_precision", "replay", sim_span):
            computed, inexact = _count_inexact(args["tree"], args["prec"])
        if computed != result.computed:
            raise RuntimeError("replayed rounding differs from fpsim.simulate")
        tr.counts["fpsim.roundings"] = inexact
        tr.counts["fpsim.error_over_bound"] = float(result.ratio)


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS_JSON COMMAND [ARGS...]", file=sys.stderr)
        return cli.EXIT_USAGE
    spans_path, cli_argv = argv[0], argv[1:]
    tr = Tracer()
    tr.patch(cli, "read_values", "cli.read_values")
    tr.patch(planner, "plan", "planner.plan")
    tr.patch(planner.PlanReport, "to_json_dict", "planner.PlanReport.to_json_dict")
    tr.patch(fpsim, "simulate", "fpsim.simulate")
    tr.patch(hardness, "parse_3par", "hardness.parse_3par")
    tr.patch(hardness, "reduce_to_addition_tree", "hardness.reduce_to_addition_tree")
    tr.patch(json, "dumps", "cli.json_dumps")
    tr.gc.install()
    try:
        with tr.span(f"cli.{cli_argv[0]}") as root:
            code = cli.main(cli_argv)
            sys.stdout.flush()
        pipeline_end = clock()
    finally:
        tr.unpatch()
        tr.gc.uninstall()
    if code == 0:
        replay(tr, root)
    done = clock()
    Path(spans_path).write_text(
        json.dumps(
            {
                "spans": tr.spans,
                "counts": tr.counts,
                "pipeline_end": pipeline_end,
                "post_pipeline_s": done - pipeline_end,
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
