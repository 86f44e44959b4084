#!/usr/bin/env python3
"""Benchmark of the addtree command line, end to end and layer by layer.

Run from the root of a source checkout (the package is taken from ./src):

    python3 bench/run.py --workload critical_mixed_int --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

With --trace 0 the benchmark is a single-client closed loop over the CLI:
one `python -m addtree.cli` child at a time, the next launched only after
the previous one exits. It reports the end-to-end metrics named in
BENCHMARK.json; wall times are rescaled to a reference machine speed
measured around and during every child (see bench/README.md). With
--trace 1 it alternates that untraced operation with a traced one
(bench/traced.py: the CLI itself, with its library calls timed as spans)
and reports the per-layer metrics, including the tracing overhead.

Inputs are generated from --seed and written to files before timing starts.
Every output is checked by bench/check.py, which does not use addtree. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the full record (environment, input
digests, every operation and every span) goes to bench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import check
import selftest
from launch import reference_loop

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_SAMPLES = 11
# The machine's speed drifts by up to 1.7x over minutes and flips between
# states every few seconds (other tenants of the host). A fixed
# pure-Python reference task (launch.reference_loop), timed on the same
# CPU right before and after every child and, for untraced children, in a
# stop every SAMPLE_EVERY_S seconds of their run, measures that speed.
# Each run segment is rescaled to the speed at which the task takes
# REFERENCE_NOMINAL_S, about its uncontended time on the 2-vCPU Xeon the
# benchmark was tuned on.
REFERENCE_NOMINAL_S = 0.06
SAMPLE_EVERY_S = 1.0
# A run starts no operation after this many seconds and gives each child at
# most what is left of RUN_LIMIT_S, so it always ends within 180 s.
START_LIMIT_S = 120.0
RUN_LIMIT_S = 165.0
# Spans of bench/traced.py that are reported as layers.
LAYER_SPANS = (
    "cli.read_values",
    "matching.split_by_sign",
    "matching.minimum_critical_matching",
    "huffman.build_huffman",
    "planner.plan",
    "tree.cost",
    "tree.depth",
    "tree.serialize",
    "planner.PlanReport.to_json_dict",
    "cli.json_dumps",
    "fpsim.simulate",
    "hardness.reduce_to_addition_tree",
    "oracle.optimal_cost_dp",
)
# Counts of bench/traced.py, reported as 0 where a workload's path lacks them.
LAYER_COUNTS = (
    "cli.read_values.bytes",
    "cli.read_values.non_int_share",
    "matching.pairs",
    "matching.unmatched",
    "huffman.merges",
    "tree.nodes",
    "tree.depth",
    "tree.serialize.bytes",
    "fpsim.roundings",
    "fpsim.error_over_bound",
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------- inputs


@dataclass
class Case:
    """One generated input and what its outputs are checked against."""

    label: str
    files: list
    n: int
    ref: dict = field(default_factory=dict)


def _write_lines(path: Path, tokens) -> None:
    path.write_text("".join(f"{t}\n" for t in tokens))


def _dyadic_literal(k: int, j: int) -> str:
    """Exact decimal text of k / 2^j."""
    if j == 0:
        return str(k)
    digits = str(k * 5**j).rjust(j + 1, "0")
    return f"{digits[:-j]}.{digits[-j:]}"


class Workload:
    """A CLI operation over seeded inputs. Subclasses set name and n (input
    values per operation) and define prepare, steps and check."""

    min_ops = 3

    def extra_outputs(self, case, workdir):
        """Files the steps write besides standard output."""
        return []


class CriticalMixedInt(Workload):
    name = "critical_mixed_int"
    n = 10**6

    def prepare(self, rng, workdir):
        values = []
        for _ in range(self.n):
            r = rng.randrange(2 * 10**9)
            v = (r >> 1) + 1
            values.append(-v if r & 1 else v)
        path = workdir / "mixed_int.txt"
        _write_lines(path, values)
        values.sort()
        ref = {"sorted": values, "lower_bound": check.matching_total(values) / 2}
        return [Case("mixed_int", [path], self.n, ref)]

    def steps(self, case, workdir):
        return [["plan", str(case.files[0]), "--strategy", "critical"]]

    def check(self, case, outputs, workdir):
        cost = check.check_plan(outputs[0], case.ref["sorted"], "critical")
        return cost, case.ref["lower_bound"]


class HuffmanSimDyadic(Workload):
    name = "huffman_sim_dyadic"
    n = 10**5
    precision = 24
    max_shift = 24

    def prepare(self, rng, workdir):
        # k / 2^j with k < 2^16: exact at 24 bits, magnitudes 2^-24 .. 2^16.
        pairs = [
            (rng.randrange(1, 1 << 16), rng.randrange(self.max_shift + 1))
            for _ in range(self.n)
        ]
        path = workdir / "dyadic.txt"
        _write_lines(path, (_dyadic_literal(k, j) for k, j in pairs))
        values = [Fraction(k, 1 << j) for k, j in pairs]
        ref = {"sum": sum(values), "optimum": check.huffman_optimum(values)}
        return [Case("dyadic", [path], self.n, ref)]

    def steps(self, case, workdir):
        return [
            [
                "simulate",
                str(case.files[0]),
                "--strategy",
                "huffman",
                "--precision",
                str(self.precision),
            ]
        ]

    def check(self, case, outputs, workdir):
        cost = check.check_simulation(
            outputs[0], case.ref["sum"], case.ref["optimum"], self.precision, "huffman"
        )
        return cost, case.ref["optimum"]


class Oracle3Par(Workload):
    name = "oracle_3par"
    m = 3
    pool = 6
    min_ops = pool
    n = 5 * m  # values in the reduced multiset

    def prepare(self, rng, workdir):
        cases = []
        for i in range(self.pool):
            k = rng.randrange(100, 1000)
            lo, hi = k // 4 + 1, (k - 1) // 2  # K/4 < b < K/2
            b = []
            while len(b) < 3 * self.m:
                b1, b2 = rng.randint(lo, hi), rng.randint(lo, hi)
                if lo <= k - b1 - b2 <= hi:
                    b.extend((b1, b2, k - b1 - b2))
            rng.shuffle(b)
            path = workdir / f"instance{i}.3par"
            path.write_text(f"{k} {self.m}\n" + " ".join(map(str, b)) + "\n")
            ref = check.reduction_reference(k, b)
            ref["sorted_x"] = sorted(ref["x"])
            cases.append(Case(f"instance{i}", [path], self.n, ref))
        return cases

    def _prefix(self, case, workdir):
        return str(workdir / f"{case.label}_reduced")

    def steps(self, case, workdir):
        prefix = self._prefix(case, workdir)
        return [
            ["reduce", str(case.files[0]), "--out-prefix", prefix],
            ["plan", prefix + ".txt", "--strategy", "critical", "--with-oracle"],
        ]

    def extra_outputs(self, case, workdir):
        prefix = self._prefix(case, workdir)
        return [Path(prefix + ".txt"), Path(prefix + ".json")]

    def check(self, case, outputs, workdir):
        x_text, sidecar_text = (p.read_text() for p in self.extra_outputs(case, workdir))
        check.check_reduction(outputs[0], x_text, sidecar_text, case.ref)
        optimum = case.ref["optimum"]
        cost = check.check_plan(outputs[1], case.ref["sorted_x"], "critical", optimum=optimum)
        return cost, optimum


WORKLOADS = {w.name: w for w in (CriticalMixedInt(), HuffmanSimDyadic(), Oracle3Par())}


# ------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    timed_out: bool
    launch: float
    segments: list  # run time between the launcher's stops
    refs: list  # reference times taken in the stops


def spawn(argv, stdout_path: Path, timeout: float, env: dict, every: float = 0.0) -> Child:
    """Run one child to completion through bench/launch.py, which times it
    from launch to exit, stops it every `every` seconds (0: never) to time
    the reference task, and reads its peak RSS from os.wait4."""
    report = stdout_path.with_suffix(".launch.json")
    launcher = [
        sys.executable, "-S", str(BENCH_DIR / "launch.py"), str(report), str(timeout), str(every), "--"
    ]
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(
            launcher + argv, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        try:
            proc.wait(timeout + 30)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed: {_tail(stdout_path.with_suffix('.err'))}")
    r = json.loads(report.read_text())
    return Child(
        r["wall_s"], r["maxrss_kb"] / 1024, r["exit_code"], r["timed_out"], r["launch"],
        r["segments_s"], r["refs_s"],
    )


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


PROBE = """
import gc, importlib, json, sys
import addtree, addtree.cli
def importable(name):
    try:
        importlib.import_module(name)
        return True
    except ImportError:
        return False
print(json.dumps({
    "python": sys.version.split()[0],
    "executable": sys.executable,
    "addtree_file": addtree.__file__,
    "addtree_version": addtree.__version__,
    "numpy": importable("numpy"),
    "numba": importable("numba"),
    "gc_enabled": gc.isenabled(),
    "gc_thresholds": gc.get_threshold(),
}))
"""


def environment(env: dict) -> dict:
    """Facts about the interpreter the CLI runs in; raises if addtree is not
    the one under ./src."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    info = json.loads(out.stdout)
    if not Path(info["addtree_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"addtree resolves to {info['addtree_file']}, not under {SRC}")
    info["huffman_int64_kernel"] = "on" if info["numpy"] and info["numba"] else "off"
    info["nproc"] = os.cpu_count()
    info["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    info["git_commit"] = git_commit()
    return info


def measure_setup(env: dict, workdir: Path) -> list:
    """Fresh interpreter plus `import addtree.cli`, several times: (raw
    seconds, mean of the reference loop timed before and after) each."""
    samples = []
    ref = reference_loop()
    for _ in range(SETUP_SAMPLES):
        child = spawn([sys.executable, "-c", "import addtree.cli"], workdir / "setup.txt", 60, env)
        if child.code != 0:
            raise RuntimeError("import addtree.cli failed: " + _tail(workdir / "setup.err"))
        ref_after = reference_loop()
        samples.append((child.wall_s, (ref + ref_after) / 2))
        ref = ref_after
    return samples


def referenced(wall_s: float, ref_s: float) -> float:
    """wall_s rescaled to the speed at which the reference loop takes
    REFERENCE_NOMINAL_S."""
    return wall_s * REFERENCE_NOMINAL_S / ref_s


def referenced_segments(segments, refs) -> float:
    """Run segments, each rescaled by the mean of the reference times taken
    right before and after it; refs has one entry more than segments."""
    return sum(referenced(s, (a + b) / 2) for s, a, b in zip(segments, refs, refs[1:]))


# ------------------------------------------------------------ operations


@dataclass
class Op:
    case: str
    traced: bool
    wall_s: float = 0.0  # as measured
    ref_wall_s: float = 0.0  # rescaled to the reference speed
    rss_mb: float = 0.0
    refs: list = field(default_factory=list)  # reference times around and in it
    ok: bool = False
    error: str = ""
    cost: object = None
    reference: object = None
    spans: list = field(default_factory=list)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, workload, workdir: Path, env: dict, start: float):
        self.w = workload
        self.workdir = workdir
        self.env = env
        self.start = start
        self.verdicts: dict = {}  # (case, output digests) -> (cost, reference) or error
        self.ref = reference_loop()  # the latest reference time

    def run(self, case: Case, index: int, traced: bool) -> Op:
        """One operation; a reference time is taken after each step."""
        op = Op(case.label, traced)
        outputs = []
        for s, args in enumerate(self.w.steps(case, self.workdir)):
            out = self.workdir / f"out_{index}_{s}.txt"
            if traced:
                spans_path = self.workdir / f"spans_{index}_{s}.json"
                argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans_path), *args]
            else:
                argv = [sys.executable, "-m", "addtree.cli", *args]
            timeout = max(5.0, RUN_LIMIT_S - (now() - self.start))
            # Stops would land inside the traced child's spans.
            child = spawn(argv, out, timeout, self.env, 0.0 if traced else SAMPLE_EVERY_S)
            refs = [self.ref, *child.refs, reference_loop()]
            self.ref = refs[-1]
            op.refs.extend(refs if not op.refs else refs[1:])
            op.rss_mb = max(op.rss_mb, child.rss_mb)
            segments = child.segments
            if child.timed_out or child.code != 0:
                op.wall_s += child.wall_s
                why = "timed out" if child.timed_out else f"exit code {child.code}"
                op.error = f"step {s} ({args[0]}): {why}: " + _tail(out.with_suffix(".err"))
                return op
            if traced:
                record = json.loads(spans_path.read_text())
                _add_self_times(record["spans"])
                record["wall_s"] = child.wall_s
                record["launch"] = child.launch
                op.spans.append(record)
                # Compare with the CLI: the child's wall minus its replays.
                segments = [child.wall_s - record["post_pipeline_s"]]
            op.wall_s += sum(segments)
            op.ref_wall_s += referenced_segments(segments, refs)
            outputs.append(out)
        self._check(case, op, outputs)
        return op

    def _check(self, case: Case, op: Op, outputs: list) -> None:
        files = outputs + self.w.extra_outputs(case, self.workdir)
        key = (case.label, tuple(_digest(p) for p in files))
        if key not in self.verdicts:
            try:
                texts = [p.read_text() for p in outputs]
                self.verdicts[key] = self.w.check(case, texts, self.workdir)
            except check.CheckError as exc:
                self.verdicts[key] = str(exc)
        verdict = self.verdicts[key]
        if isinstance(verdict, str):
            op.error = "check failed: " + verdict
        else:
            op.ok = True
            op.cost, op.reference = verdict


def _add_self_times(spans: list) -> None:
    """Each span's duration `s` and self time `self_s`: the duration minus
    its children's durations. Replayed children run after their parent
    has ended, so they are subtracted by duration, not by interval."""
    children: dict = {}
    for span in spans:
        span["s"] = span["end"] - span["start"]
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + span["s"]
    for span in spans:
        span["self_s"] = span["s"] - children.get(span["id"], 0.0)


def _tail(path: Path, limit: int = 300) -> str:
    try:
        return path.read_text(errors="replace")[-limit:].strip()
    except OSError:
        return ""


# --------------------------------------------------------------- metrics


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def cost_ratio(ops) -> float:
    """Sum of exact plan costs over the sum of references, one term per
    distinct input, so it does not depend on how many operations ran."""
    first = {}
    for op in ops:
        if op.ok and op.case not in first:
            first[op.case] = op
    if not first:
        return 0.0
    cost = sum(Fraction(op.cost) for op in first.values())
    ref = sum(Fraction(op.reference) for op in first.values())
    return float(cost / ref)


def end_to_end(workload, ops, setup) -> dict:
    good = [op for op in ops if op.ok] or ops
    walls = [op.ref_wall_s for op in good]
    return {
        "wall_s": _median(walls),
        "values_per_s": _median([workload.n / w for w in walls if w > 0]),
        "setup_s": _median([referenced(w, r) for w, r in setup]),
        "peak_rss_mb": _median([op.rss_mb for op in good]),
        "cost_ratio": cost_ratio(ops),
    }


def _op_layers(op: Op) -> dict:
    """Per-span-name totals of one traced operation: seconds, self seconds
    and GC collections per generation."""
    totals: dict = {}
    for record in op.spans:
        for span in record["spans"]:
            t = totals.setdefault(span["name"], {"s": 0.0, "self_s": 0.0, "gc": [0, 0, 0]})
            t["s"] += span["s"]
            t["self_s"] += span["self_s"]
            t["gc"] = [a + b for a, b in zip(t["gc"], span["gc_collections"])]
    return totals


def per_layer(ops) -> dict:
    traced = [op for op in ops if op.traced and op.ok]
    untraced = [op for op in ops if not op.traced and op.ok]
    layers = [_op_layers(op) for op in traced]
    metrics: dict = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.s"] = _median([t[name]["s"] if name in t else 0.0 for t in layers])
        for g in range(3):
            metrics[f"{name}.gc_collections.gen{g}"] = statistics.median_low(
                [t[name]["gc"][g] if name in t else 0 for t in layers] or [0]
            )
    metrics["planner.plan.self_s"] = _median([t["planner.plan"]["self_s"] for t in layers])
    # Counts repeat exactly: take each distinct input's first traced operation.
    per_case: dict = {}
    for op in traced:
        if op.case not in per_case:
            merged = {}
            for record in op.spans:
                merged.update(record["counts"])
            per_case[op.case] = merged
    for name in LAYER_COUNTS:
        metrics[name] = statistics.median_low([c.get(name, 0) for c in per_case.values()] or [0])
    # Share of the CLI's own path (the root spans) run with the cyclic GC on.
    roots = [[s for r in op.spans for s in r["spans"] if s["parent"] is None] for op in traced]
    metrics["gc.enabled"] = _median(
        [1 - sum(s["gc_disabled_s"] for s in r) / sum(s["s"] for s in r) for r in roots]
    )
    metrics["trace.overhead_s"] = _median([op.ref_wall_s for op in traced]) - _median(
        [op.ref_wall_s for op in untraced]
    )
    # The untraced operations' wall time as measured, not rescaled.
    metrics["raw.wall_s"] = _median([op.wall_s for op in untraced])
    return metrics


def percentile_line(xs) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    xs = sorted(xs)
    text = f"median {_median(xs):.4f}, min {xs[0]:.4f}, max {xs[-1]:.4f}, {len(xs)} samples"
    if len(xs) > 10:
        text += f", p{100 * (len(xs) - 10) / len(xs):.0f} {xs[len(xs) - 11]:.4f}"
    return text


# ------------------------------------------------------------------- run


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    start = now()
    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        info = environment(env)
        setup = [] if trace else measure_setup(env, workdir)
        rng = random.Random(f"{workload.name}:{seed}")
        t0 = now()
        cases = workload.prepare(rng, workdir)
        generate_s = now() - t0
        digests = {p.name: _digest(p) for c in cases for p in c.files}

        runner = Runner(workload, workdir, env, start)
        ops = []
        loop_start = now()
        index = 0
        # Closed loop: one operation at a time. Traced runs alternate an
        # untraced and a traced operation on the same input.
        per_round = 2 if trace else 1
        min_ops = 2 * len(cases) if trace else workload.min_ops
        while now() - start < START_LIMIT_S:
            if len(ops) >= min_ops and len(ops) % per_round == 0 and now() - loop_start >= seconds:
                break
            case = cases[(index // per_round) % len(cases)]
            ops.append(runner.run(case, index, traced=trace and index % 2 == 1))
            index += 1
        measured_s = now() - loop_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    values = per_layer(ops) if trace else end_to_end(workload, ops, setup)
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for spec in SPEC[kind]:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": info,
        "inputs": {"sha256": digests, "generate_s": generate_s},
        "measured_s": measured_s,
        "setup_samples_s": setup,
        "attempted": len(ops),
        "failed": failed,
        "failed_ratio": failed / len(ops) if ops else 1.0,
        "metrics": metrics,
        "operations": [
            {
                k: getattr(op, k)
                for k in ("case", "traced", "wall_s", "ref_wall_s", "refs", "rss_mb", "ok", "error")
            }
            | {"cost": str(op.cost), "reference": str(op.reference), "spans": op.spans}
            for op in ops
        ],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    report(record, ops, out)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def report(record: dict, ops, path: Path) -> None:
    info = record["environment"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    print(
        f"python {info['python']}  nproc {info['nproc']}  gc thresholds "
        f"{tuple(info['gc_thresholds'])}  numpy {info['numpy']}  numba {info['numba']}  "
        f"int64 Huffman kernel {info['huffman_int64_kernel']}  commit {info['git_commit']}"
    )
    for name, digest in record["inputs"]["sha256"].items():
        print(f"input {name} sha256 {digest}")
    untraced = [op for op in ops if not op.traced]
    if untraced:
        print(f"operation wall_s, raw: {percentile_line([op.wall_s for op in untraced])}")
        print(f"reference loop s: {percentile_line([r for op in untraced for r in op.refs])}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        f"failed_ratio = {record['failed']}/{record['attempted']} = "
        f"{record['failed_ratio']:.3g}"
    )
    for op in ops:
        if not op.ok:
            print(f"FAILED {op.case}: {op.error}")
    print(f"full record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "addtree" / "cli.py").is_file():
        print(f"error: no addtree sources under {SRC}", file=sys.stderr)
        return 2
    failures = selftest.run_all()
    if failures:
        for name, problem in failures:
            print(f"error: checker self-test {name}: {problem}", file=sys.stderr)
        return 2

    # Pin the benchmark, and so every child, to one CPU: the reference loop
    # then measures the speed of the CPU the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
