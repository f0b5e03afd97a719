"""Benchmark for sedq: one workload per process, closed loop, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The last line of standard output is the result as one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs
each call untraced and then traced and reports the per-layer metrics and the
tracing overhead.  The line before it is a report with every number, the
outcome of each call by type, the checks and the environment stamp.  The
exit code is 0 unless an output check broke (1) or the program could not be
found or imported (2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5
# Seconds a bare interpreter takes to start on the reference host.
START_REF_S = 0.05
# Fixed (triple, events, seed) cases whose simulator digest is pinned.
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the usable CPU count; must run before numpy
    is imported.  A lower cap already in the environment is kept."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


# This benchmark was tuned on a shared 2-vCPU VM whose speed drifts by up to
# 2x over seconds (a fixed 25 ms probe read 15-30 ms within one minute), far
# beyond any useful bound.  So a fixed probe that does not touch sedq runs
# right before and right after each call, and each call is also timed in
# "reference seconds": its wall time times PROBE_REF_S over the mean of those
# two probes.  Bounded latency and throughput use reference seconds; raw
# seconds are reported beside them.
PROBE_REF_S = 0.02


def probe() -> float:
    """Seconds for a fixed mix of small numpy solves and dict/float work,
    like the per-state loops of sedq."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(16.0).reshape(4, 4) + 10 * np.eye(4)
    d = {}
    x = 0.0
    for i in range(1500):
        v = a @ np.full(4, i % 7 + 1.0)
        d[(i % 50, i % 3)] = float(v.sum())
        x += np.linalg.solve(a, v)[0]
    return time.perf_counter() - t0


def measure_setup() -> list[tuple[float, float]]:
    """Fresh interpreters importing ``sedq.cli`` (every layer, numpy and
    scipy), which a command-line user pays on every run: ``(seconds,
    reference seconds)`` per sample.

    The samples alternate with starts of a bare interpreter, and each
    sample's reference time is its wall time times ``START_REF_S`` over the
    median bare start of the run.  Import time follows the host's disk and
    CPU speed, which a bare start tracks far better than the in-process
    probe; the median keeps one slow start from skewing a sample.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def start(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        return time.perf_counter() - t0

    bare = [start("pass")]
    imports = []
    for _ in range(SETUP_SAMPLES):
        imports.append(start("import sedq.cli"))
        bare.append(start("pass"))
    scale = START_REF_S / statistics.median(bare)
    return [(dt, dt * scale) for dt in imports]


def environment(caps: dict, seed: int, workload: str, seconds: int, cases) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sedq").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "cases": [c.as_dict() for c in cases],
    }


@dataclass
class Loop:
    """Calls as ``(case index, outcome, seconds, reference seconds)``, their
    total wall time and the number of whole passes."""

    calls: list
    wall: float
    passes: int

    @property
    def ref_wall(self) -> float:
        return math.fsum(c[3] for c in self.calls)


def run_passes(wl, cases, seconds, tmp, gate, tracer=None) -> tuple[Loop, Loop | None]:
    """Closed loop over whole passes of ``cases``.

    Stops before a pass that would end more than half a pass after
    ``seconds``.  Probes and output checks run between calls with the loop
    clock paused.  A call's reference time uses the probes right before and
    right after it: the host's speed changes within a second, so nearer
    probes track it better than a median over a wider window.
    With a ``tracer``, each case runs untraced and traced, next to each other
    in time and in alternating order, so the two loops compare the same work
    at the same host speed; only the untraced calls are checked.
    """
    modes = (None, tracer) if tracer else (None,)
    raw = {m: [] for m in range(len(modes))}
    order = list(range(len(modes)))
    paused = 0.0
    done = 0
    t0 = time.perf_counter()
    last = probe()
    while True:
        for i, case in enumerate(cases):
            order.reverse()
            for m in order:
                tr = modes[m]
                if tr:
                    tr.install()
                    root = tr.begin_call(len(raw[m]))
                before = last
                t = time.perf_counter()
                res = wl.call(case, tmp)
                t_end = time.perf_counter()
                if tr:
                    tr.close(root)
                    tr.uninstall()
                last = probe()
                raw[m].append((i, res.outcome, t_end - t, before, last))
                if not tr:
                    wl.check(gate, case, res)
                    last = probe()
                del res
                paused += time.perf_counter() - t_end
        done += 1
        wall = time.perf_counter() - t0 - paused
        if wall * (done + 0.5) / done > seconds:
            break

    def loop(calls) -> Loop:
        out = []
        for i, outcome, dt, before, after in calls:
            out.append((i, outcome, dt, dt * 2 * PROBE_REF_S / (before + after)))
        return Loop(out, math.fsum(c[2] for c in out), done)

    return loop(raw[0]), loop(raw[1]) if tracer else None


def end_to_end(loop: Loop, setup, rss_mb, gate) -> tuple[dict, dict]:
    """Bounded end-to-end metrics, and the accuracy and outcome numbers
    reported beside them."""
    calls = loop.calls
    ok = sorted(c[2] for c in calls if c[1] == "ok")
    ok_ref = sorted(c[3] for c in calls if c[1] == "ok")
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "call_p50_ref_s": (statistics.median(ok_ref) if ok_ref else 0.0, "s"),
        "ok_calls_per_ref_s": (len(ok) / loop.ref_wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "setup_raw_s": (statistics.median(raw for raw, _ in setup), "s"),
        "call_p50_s": (statistics.median(ok) if ok else None, "s"),
        "ok_calls_per_s": (len(ok) / loop.wall, "1/s"),
        "call_p90_s": (statistics.quantiles(ok, n=10)[-1] if len(ok) >= 100 else None, "s"),
        "failed_frac": ((len(calls) - len(ok)) / len(calls), "ratio"),
        "max_rel_err": (gate.max_rel_err(), "ratio"),
        "max_rel_residual": (max(gate.residuals) if gate.residuals else None, "ratio"),
        "ok_calls": (len(ok), "count"),
    }
    return metrics, extra


def check_golden(gate) -> None:
    from workloads import Case, sim_digest

    for entry in json.loads(GOLDEN.read_text())["sim_digests"]:
        got = sim_digest(entry["triple"], entry["events"], entry["seed"])
        if got != entry["sha256"]:
            gate.fail(Case(*entry["triple"]), f"simulator digest {got} != {entry['sha256']}")


def probe_defects(wl, tmp, gate) -> dict[str, str]:
    """Call each known-defect input once, untimed, and return its outcome.
    An input that no longer fails is checked like a timed call."""
    from workloads import Case

    out = {}
    for triple in wl.defects:
        case = Case(*triple)
        res = wl.call(case, tmp)
        wl.check(gate, case, res)
        out[json.dumps(case.as_dict())] = res.outcome
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sedq" / "__init__.py").is_file():
        print(f"error: no sedq sources under {SRC}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))
    try:
        import sedq.cli  # noqa: F401  (loads every layer)
    except ImportError as exc:
        print(f"error: cannot import sedq: {exc}", file=sys.stderr)
        return 2
    if Path(sedq.__file__).resolve().parent != (SRC / "sedq").resolve():
        print(f"error: imported sedq from {sedq.__file__}", file=sys.stderr)
        return 2
    from spans import Tracer, layer_metrics, span_table
    from workloads import WORKLOADS, Gate

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cases = wl.make_cases(random.Random(args.seed))
    stamp = environment(caps, args.seed, wl.name, args.seconds, cases)
    phases = [("start", time.perf_counter())]
    setup = measure_setup()
    phases.append(("setup", time.perf_counter()))

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    gate = Gate()
    report = {"env": stamp, "setup_samples_s": setup}
    try:
        wl.warm_up(tmp)
        if args.trace:
            tracer = Tracer()
            loop, traced = run_passes(wl, cases, args.seconds, tmp, gate, tracer)
            table = span_table(tracer)
            layer = layer_metrics(table, tracer.counts, len(traced.calls))
            layer["trace.overhead_frac"] = traced.ref_wall / loop.ref_wall - 1.0
            layer["trace.spans_per_call"] = len(tracer.name) / len(traced.calls)
            report["spans"] = table
            report["missing_boundaries"] = tracer.missing
            del tracer
        else:
            loop, _ = run_passes(wl, cases, args.seconds, tmp, gate)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases.append(("loop", time.perf_counter()))
        defects = probe_defects(wl, tmp, gate)
        phases.append(("defects", time.perf_counter()))
        gate.finish(ROOT / ".perfbench_cache", stamp["source_sha256"])
        if wl.kind == "cli_validate":
            check_golden(gate)
        phases.append(("checks", time.perf_counter()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    e2e, extra = end_to_end(loop, setup, rss_mb, gate)
    calls = loop.calls
    outcomes = Counter(c[1] for c in calls)
    failed = len(calls) - outcomes.get("ok", 0)
    gate_numbers = {
        "gate.failed_frac": failed / len(calls),
        "gate.untyped_calls": sum(v for k, v in outcomes.items() if k.startswith("untyped:")),
        "gate.max_rel_err": extra["max_rel_err"][0] or 0.0,
        "gate.max_rel_residual": extra["max_rel_residual"][0] or 0.0,
        "gate.defect_failed": sum(out != "ok" for out in defects.values()),
    }
    if args.trace:
        layer["cli.bytes_written"] = gate.bytes_written / len(calls)
        layer.update(gate_numbers)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    correct = not gate.broken

    report.update(
        passes=loop.passes,
        loop_wall_s=loop.wall,
        calls=[list(c) for c in calls],
        outcomes=dict(outcomes),
        defect_outcomes=defects,
        phase_s={b[0]: b[1] - a[1] for a, b in zip(phases, phases[1:])},
        outcomes_by_case={
            json.dumps(cases[i].as_dict()): out
            for i, out, *_ in calls if out != "ok"
        },
        end_to_end={k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **extra}.items()},
        checks={
            "broken": gate.broken,
            "max_rel_err_by_case": {
                json.dumps(c.as_dict()): {"err": e, "tol": t} for c, (e, t) in gate.errors.items()
            },
            "reported_err_by_case": {
                json.dumps(c.as_dict()): e for c, e in gate.reported_err.items()
            },
        },
    )
    for name, (value, unit) in {**e2e, **extra}.items():
        print(f"{name:18s} {'-' if value is None else f'{value:.6g}':>12s} {unit}")
    if defects:
        print(f"known defects       {gate_numbers['gate.defect_failed']} of {len(defects)} failed: "
              + ", ".join(f"{k} {v}" for k, v in Counter(defects.values()).items()))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }))
    if not correct:
        print("output checks broke: " + "; ".join(gate.broken), file=sys.stderr)
        return 1
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us_per_node") or name.endswith("_us_per_state"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "max_rel_err", "max_rel_residual")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
