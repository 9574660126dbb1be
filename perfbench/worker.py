"""Run one pass of ops through ``spincalc.cli.main`` in a fresh interpreter.

The first thing the worker does is import ``spincalc.cli``; the
monotonic clock at that point is reported as ``imported``, so the
parent can measure set-up from the moment it started the process.

``python3 worker.py --setup-only`` stops there.  Otherwise the worker
reads a job from stdin::

    {"units": [{"argv": [...], "stdin": "..." | null}, ...],
     "limit_s": 3.0, "trace": false, "spans_path": null}

and writes one JSON result to stdout.  Each unit is one ``cli.main``
call; its printed records are timestamped by the stdout sink.  A record
that takes longer than ``limit_s`` stops the unit with status
``timeout``.

Every ``CAL_EVERY_S`` (between ops of a batch, or between units) the
worker times a fixed calibration loop, outside the ops' timed
intervals, so the parent can scale each op to a machine of fixed speed:
on a shared host the speed of a CPU swings by up to a factor of two,
within a fraction of a second.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import spincalc.cli  # noqa: E402

IMPORTED = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from math import gcd  # noqa: E402

from workloads import LAYERS  # noqa: E402

CAL_ITERS = 5_000
CAL_EVERY_S = 0.05


class Calibrator:
    """Times a fixed loop of the kinds of work the program does (tuples,
    dicts, gcds of integers); samples are (mid-point ns, loop ns)."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []
        self.last = 0

    def sample(self) -> None:
        start = time.perf_counter_ns()
        table: dict[int, tuple] = {}
        acc = 0
        for i in range(CAL_ITERS):
            table[i % 97] = (i, i * i)
            acc += gcd(i * 1000003, 30030) + len(table) + len(tuple(range(i % 5)))
        self.last = time.perf_counter_ns()
        self.samples.append(((start + self.last) // 2, self.last - start))

    def sample_if_due(self) -> bool:
        if time.perf_counter_ns() - self.last < CAL_EVERY_S * 1e9:
            return False
        self.sample()
        return True


class OpTimeout(Exception):
    """Raised by SIGALRM when one op exceeds the per-op limit."""


class Alarm:
    """Per-op time limit, re-armed each time an op answers."""

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise OpTimeout()

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Tracer:
    """Spans around every public function of every layer, kept in memory.

    A span is (id, parent id, name, start ns, end ns, op id).  Functions
    are wrapped by rebinding them in every ``spincalc`` module that holds
    them, so calls between modules are seen too.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 1
        self.op = 0
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op))

        return traced

    def count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"spincalc.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in [importlib.import_module("spincalc"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        graded = modules["graded"].GradedGroup
        graded.direct_sum = self.wrap("graded.direct_sum", graded.direct_sum)
        # counted only: high-dimensional inputs call it millions of times,
        # and its time stays in the caller's self time
        graded.group = self.count("graded.group", graded.group)

    def summary(self) -> dict[str, list[int]]:
        """name -> [calls, self ns]; self time excludes child spans."""
        out: dict[str, list[int]] = {name: [n, 0] for name, n in self.counts.items()}
        child_ns: dict[int, int] = {}
        for sid, parent, _, start, end, _ in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        for sid, _, name, start, end, _ in self.spans:
            entry = out.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - child_ns.get(sid, 0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\top\n")
            for span in sorted(self.spans):
                f.write("\t".join(map(str, span)) + "\n")


class Sink(io.TextIOBase):
    """Stand-in stdout: one record per ``print``, timestamped when it ends.

    In a batch each record ends one op, which ran from the end of the
    previous one (or of the calibration after it) to this record.
    """

    def __init__(self, alarm: Alarm, tracer: Tracer | None, calibrator: Calibrator | None):
        self.alarm, self.tracer, self.calibrator = alarm, tracer, calibrator
        self.parts: list[str] = []
        self.records: list[str] = []
        self.ops: list[tuple[int, int]] = []
        self.start = time.perf_counter_ns()

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if s == "\n":
            end = time.perf_counter_ns()
            self.ops.append((self.start, end))
            self.records.append("".join(self.parts))
            self.parts.clear()
            if self.tracer is not None:
                self.tracer.op += 1
            self.start = end
            if self.calibrator is not None and self.calibrator.sample_if_due():
                self.start = time.perf_counter_ns()
            self.alarm.arm()
        else:
            self.parts.append(s)
        return len(s)


def run_unit(unit: dict, alarm: Alarm, tracer: Tracer | None, calibrator: Calibrator | None) -> dict:
    """One ``cli.main`` call; a calibrator is passed only to batches, untraced."""
    sink, err = Sink(alarm, tracer, calibrator), io.StringIO()
    real = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(unit.get("stdin") or ""), sink, err
    status, rc = "ok", None
    alarm.arm()
    t0 = sink.start = time.perf_counter_ns()
    try:
        rc = spincalc.cli.main(unit["argv"])
    except OpTimeout:
        status = "timeout"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the pass goes on; the op is counted as failed
        status = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        t1 = time.perf_counter_ns()
        alarm.disarm()
        sys.stdin, sys.stdout, sys.stderr = real
        if tracer is not None:
            tracer.op += 1
    return {
        "status": status, "rc": rc, "t0": t0, "t1": t1, "ops": sink.ops, "rest": [sink.start, t1],
        "records": sink.records, "stderr": err.getvalue()[-2000:],
    }


def main() -> int:
    calibrator = Calibrator()
    if "--setup-only" in sys.argv:
        for _ in range(3):
            calibrator.sample()
        print(json.dumps({"imported": IMPORTED, "cal": calibrator.samples}))
        return 0
    job = json.load(sys.stdin)
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        tracer.install()
    alarm = Alarm(job["limit_s"])
    calibrator.sample()
    units = []
    for unit in job["units"]:
        in_batch = calibrator if unit.get("stdin") is not None and tracer is None else None
        units.append(run_unit(unit, alarm, tracer, in_batch))
        calibrator.sample_if_due()
    calibrator.sample()
    result = {
        "imported": IMPORTED,
        "cal": calibrator.samples,
        "units": units,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        cache = getattr(importlib.import_module("spincalc.abelian"), "_prime_power_decomposition", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        result["factor_cache"] = [info.hits, info.misses] if info else [0, 0]
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
