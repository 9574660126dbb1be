"""spincalc benchmark: seeded workloads through ``spincalc.cli.main``.

    python3 perfbench/run.py --workload corpus --seed 2024 --seconds 20 --trace 0

Each pass runs every op of the workload once, in a fresh interpreter
(``worker.py``), so the program's caches start cold as they do for a CLI
user.  Passes repeat, one worker at a time (closed loop, one client, no
think time), until ``--seconds`` have passed.  Every answer is checked
against ``oracle.py`` after the timed region.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BATCH_COMMANDS, LAYERS, NAMES, generate, input_properties, render

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

# per-op time limit: about ten times the slowest passing op of any workload
OP_LIMIT_S = 3.0
# a worker that outlives this is killed and its unanswered ops count as
# failed; four capped passes of a traced run still end within 180 s
PASS_CAP_S = 40.0
SETUP_SPAWNS = 10
# Every time is scaled to a machine on which the worker's calibration loop
# takes this long: time x CAL_NOMINAL_NS / (the loop's time next to it).
CAL_NOMINAL_NS = 2_500_000
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TRACED_PASSES = 2

# per-layer names that add up several functions
GROUPS = {
    "construct.generators": ("construct.sphere", "construct.cp", "construct.surface", "construct.lens",
                             "construct.dehn_rhs", "construct.ihs3", "construct.bundle"),
    "construct.pipelines": ("construct.pipeline_main", "construct.pipeline_main2", "construct.iterated_spin"),
    "residues.scan": ("residues.minus_one_square_scan",),
}
LAYER_METRICS = (
    ("construct.product", "calls"), ("construct.product", "self_ms"),
    ("abelian.normalize", "calls"), ("abelian.normalize", "self_ms"),
    ("graded.check_poincare_duality", "calls"), ("graded.check_poincare_duality", "self_ms"),
    ("graded.cohomology_from_homology", "calls"), ("graded.cohomology_from_homology", "self_ms"),
    ("graded.group", "calls"), ("graded.direct_sum", "self_ms"),
    ("manifold.make_descriptor", "calls"), ("manifold.make_descriptor", "self_ms"),
    ("manifold.homological_connectivity", "self_ms"), ("manifold.validate_realizability", "self_ms"),
    ("cli.main", "self_ms"),
    ("residues.is_prime", "self_ms"),
    ("residues.minus_one_is_square_mod", "calls"), ("residues.minus_one_is_square_mod", "self_ms"),
    ("residues.scan", "calls"), ("residues.factorize", "self_ms"),
    ("analysis.chirality_verdict", "self_ms"),
    ("analysis.degree_set", "calls"), ("analysis.degree_set", "self_ms"),
    ("dsl.parse", "calls"), ("dsl.parse", "self_ms"), ("dsl.evaluate", "self_ms"),
    ("construct.generators", "calls"), ("construct.generators", "self_ms"),
    ("construct.spin", "calls"), ("construct.spin", "self_ms"),
    ("construct.connected_sum", "calls"), ("construct.connected_sum", "self_ms"),
    ("construct.pipelines", "self_ms"),
)


# -- running workers ---------------------------------------------------------------


class Clock:
    """Scales a worker's time intervals by the calibration samples nearest them."""

    def __init__(self, samples: list[list[int]]):
        self.mids = [mid for mid, _ in samples]
        self.loops = [loop for _, loop in samples]

    def scale_at(self, t: int) -> float:
        i = bisect.bisect(self.mids, t)
        return CAL_NOMINAL_NS / statistics.fmean(self.loops[max(0, i - 1):i + 1])

    def ns(self, start: int, end: int) -> float:
        return (end - start) * self.scale_at((start + end) // 2)

    def median_scale(self) -> float:
        return CAL_NOMINAL_NS / statistics.median(self.loops)


def spawn(args: list[str], job: dict | None, cap_s: float) -> tuple[float, dict | None, str]:
    """Start a worker, feed it the job, return (set-up s, result or None, reason)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(json.dumps(job).encode() if job else b"", timeout=cap_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return math.nan, None, f"killed after {cap_s:.0f} s"
    if proc.returncode != 0:
        return math.nan, None, f"worker exit {proc.returncode}: {err.decode()[-300:]}"
    result = json.loads(out)
    result["clock"] = Clock(result["cal"])
    # the first calibration sample is the one nearest to set-up
    return (result["imported"] - start) * result["clock"].scale_at(0), result, ""


def batch_units(workload) -> tuple[list[dict], int]:
    """The pass's units, batch units first, and how many of them are batches."""
    text = "".join(render(e) + "\n" for e in workload.exprs)
    units = [{"argv": [cmd, "-"], "stdin": text} for cmd in BATCH_COMMANDS] if workload.exprs else []
    return units + [{"argv": list(c.argv), "stdin": None} for c in workload.calls], len(units)


def run_pass(units: list[dict], trace: bool = False, spans_path: Path | None = None):
    job = {"units": units, "limit_s": OP_LIMIT_S, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    return spawn([], job, PASS_CAP_S)


# -- scoring -------------------------------------------------------------------------


class Checker:
    """Scores pass results against the oracle; a record seen once is not re-checked."""

    def __init__(self, workload):
        self.expected = [(cmd, e) for cmd in BATCH_COMMANDS for e in workload.exprs]
        self.calls = workload.calls
        self.verified: set[tuple] = set()
        self.wrong: list[str] = []

    def _ok(self, key: tuple, record: str, check) -> bool:
        masked = re.sub(r"#\d+", "#", record)  # pi_1 ids depend on process history
        if (key, masked) in self.verified:
            return True
        reason = check()
        if reason is None:
            self.verified.add((key, masked))
            return True
        if len(self.wrong) < 5:
            self.wrong.append(f"{key}: {reason}")
        return False

    def score(self, result: dict | None, n_batch_units: int) -> dict:
        """attempted/answered/failed/wrong counts and answered latencies (ms) of one pass."""
        import oracle  # imports src/ and tests/, which main() has checked are there

        attempted = len(self.expected) + len(self.calls)
        if result is None:
            return {"attempted": attempted, "answered": 0, "failed": attempted, "wrong": 0,
                    "latencies": [], "busy_s": math.nan}
        answered = wrong = 0
        busy_ns = 0.0
        latencies: list[float] = []
        units, clock = result["units"], result["clock"]
        per_unit = len(self.expected) // max(n_batch_units, 1)
        for u, unit in enumerate(units[:n_batch_units]):
            busy_ns += clock.ns(*unit["rest"])
            for i, (record, (start, end)) in enumerate(zip(unit["records"], unit["ops"])):
                cmd, ast = self.expected[u * per_unit + i]
                answered += 1
                latencies.append(clock.ns(start, end) / 1e6)
                busy_ns += clock.ns(start, end)
                if not self._ok((cmd, i), record, lambda: oracle.BATCH_CHECKS[cmd](record, ast)):
                    wrong += 1
        for call, unit in zip(self.calls, units[n_batch_units:]):
            record = "\n".join(unit["records"])
            busy_ns += clock.ns(unit["t0"], unit["t1"])
            if unit["status"] != "ok":
                continue
            answered += 1
            latencies.append(clock.ns(unit["t0"], unit["t1"]) / 1e6)
            if unit["rc"] != 0 or not self._ok(call.argv, record, lambda: oracle.check_call(record, call.expect)):
                wrong += 1
        busy_s = busy_ns / 1e9
        return {"attempted": attempted, "answered": answered, "failed": attempted - answered + wrong,
                "wrong": wrong, "latencies": latencies, "busy_s": busy_s}


def run_probes(workload) -> list[str]:
    """Each probe in its own worker; returns one outcome per probe ('ok' or why it failed)."""
    import oracle

    outcomes = []
    for probe in workload.probes:
        _, result, reason = run_pass([{"argv": list(probe.argv), "stdin": None}])
        if result is not None:
            unit = result["units"][0]
            record = "\n".join(unit["records"])
            if unit["status"] != "ok":
                reason = unit["status"]
            elif unit["rc"] != 0:
                reason = f"exit {unit['rc']}: {unit['stderr'].strip()[:120]}"
            else:
                reason = oracle.check_call(record, probe.expect) or "ok"
        outcomes.append(reason)
    return outcomes


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten of one pass's ops beyond it."""
    return next((q for q in TAIL_LADDER if ops_per_pass * (1 - q / 100) >= 10), 50.0)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# -- the two kinds of run ---------------------------------------------------------------


def measure(name: str, seed: int, seconds: float) -> tuple[dict, list[str], bool, int, int]:
    """Untraced passes for ``seconds``; pass k runs ``generate(name, seed, k)``."""
    setup = [spawn(["--setup-only"], None, PASS_CAP_S)[0] for _ in range(SETUP_SPAWNS)]
    passes, rss, scales = [], [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        workload = generate(name, seed, len(passes))
        units, n_batch = batch_units(workload)
        setup_s, result, reason = run_pass(units)
        if result is None:
            print(f"pass failed: {reason}", file=sys.stderr)
        else:
            setup.append(setup_s)
            rss.append(result["maxrss_kib"] / 1024)
            scales.append(result["clock"].median_scale())
        passes.append((Checker(workload), result, n_batch))
    scored = [checker.score(result, n_batch) for checker, result, n_batch in passes]
    wrong = [w for checker, _, _ in passes for w in checker.wrong][:5]
    workload = generate(name, seed)
    probes = run_probes(workload)
    latencies = [x for s in scored for x in s["latencies"]]
    q = tail_percentile(workload.ops_per_pass())
    attempted = sum(s["attempted"] for s in scored)
    failed = sum(s["failed"] for s in scored)
    probe_failed = sum(outcome != "ok" for outcome in probes)
    setup = [s for s in setup if not math.isnan(s)]
    metrics = {
        "ops_per_s": (statistics.median(s["answered"] / s["busy_s"] for s in scored if s["busy_s"] > 0), "ops/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (percentile(latencies, q), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
    }
    notes = [
        f"{len(scored)} passes of {workload.ops_per_pass()} ops; {attempted} ops attempted, {failed} failed",
        f"op_tail_ms is p{q:g}: {workload.ops_per_pass() * (1 - q / 100):.1f} ops per pass beyond it, "
        f"{len(latencies)} latency samples pooled",
        f"setup_s is the median of {len(setup)} interpreter starts",
        f"times are scaled to a {CAL_NOMINAL_NS / 1e6:g} ms calibration loop; "
        f"median scale this run {statistics.median(scales):.3f}",
        f"fail_share = {(failed + probe_failed) / (attempted + len(probes)):.6f} ratio "
        f"({failed} failed ops + {probe_failed} failed probes of {attempted + len(probes)})",
    ]
    notes += [f"probe {p.argv[0]} {p.argv[1][:40]}{'...' if len(p.argv[1]) > 40 else ''}: {o}"
              for p, o in zip(workload.probes, probes)]
    return metrics, notes + wrong, not wrong and failed == 0, attempted, failed


def trace(workload) -> tuple[dict, list[str], bool, int, int]:
    """TRACED_PASSES untraced, then as many traced passes; per-layer calls and self time."""
    units, n_batch = batch_units(workload)
    checker = Checker(workload)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.tsv"
    plain = [run_pass(units)[1] for _ in range(TRACED_PASSES)]
    traced = [run_pass(units, True, spans_path if i == 0 else None)[1] for i in range(TRACED_PASSES)]
    scored = [checker.score(r, n_batch) for r in [*plain, *traced]]
    attempted, failed = sum(s["attempted"] for s in scored), sum(s["failed"] for s in scored)
    notes = list(checker.wrong)
    if any(r is None for r in [*plain, *traced]):
        return {}, notes + ["a pass did not finish"], False, attempted, failed
    summaries = [_group(r["layers"], r["clock"].median_scale()) for r in traced]
    calls_repeat = all({k: v[0] for k, v in s.items()} == {k: v[0] for k, v in summaries[0].items()}
                       for s in summaries)
    if not calls_repeat:
        notes.append("call counts differ between the traced passes")
    metrics = {}
    for name, kind in LAYER_METRICS:
        values = [s.get(name, [0, 0])[0 if kind == "calls" else 1] for s in summaries]
        metrics[f"{name}.{kind}"] = (values[0], "count") if kind == "calls" else \
            (statistics.fmean(values) / 1e6, "ms")
    for layer in LAYERS:
        per_layer = [sum(v[1] for k, v in s.items() if k.split(".")[0] == layer and k not in GROUPS)
                     for s in summaries]
        metrics[f"{layer}.self_ms"] = (statistics.fmean(per_layer) / 1e6, "ms")
    hits, misses = traced[0]["factor_cache"]
    metrics["abelian.factor_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["abelian.factor_cache.misses"] = (misses, "count")
    busy = [s["busy_s"] for s in scored]
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(busy[TRACED_PASSES:]) / statistics.fmean(busy[:TRACED_PASSES]), "ratio")
    notes.append(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    return metrics, notes, calls_repeat and not checker.wrong and failed == 0, attempted, failed


def _group(layers: dict[str, list[int]], scale: float) -> dict[str, list[float]]:
    """A worker's name -> [calls, self ns], scaled, plus the grouped names of GROUPS."""
    out = {name: [calls, self_ns * scale] for name, (calls, self_ns) in layers.items()}
    for group, names in GROUPS.items():
        out[group] = [sum(out.get(n, [0, 0])[i] for n in names) for i in (0, 1)]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/spincalc/cli.py", "tests/helpers.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a spincalc checkout",
              file=sys.stderr)
        return 2
    workload = generate(args.workload, args.seed)
    metrics, notes, correct, attempted, failed = (
        trace(workload) if args.trace else measure(args.workload, args.seed, args.seconds)
    )
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in input_properties(workload).items():
        print(f"  {key:<40} {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
