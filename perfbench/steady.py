"""Steadiness mode: run one workload repeatedly and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload sweep --runs 10 --first-seed 1

Each run is a fresh ``run.py`` process with the next seed.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.  A
spread above a third of the bound is flagged, because the bound must hold
when a change is compared against its parent.  Exits nonzero if a run fails
or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        row = []
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={values[name][-1]:.6g}")
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              + " ".join(row), flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "steady": spread < bounds[name] / 3}
        flag = "" if summary[name]["steady"] else "  <-- above a third of the bound"
        print(f"{name:16s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f} bound={bounds[name]}{flag}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "first_seed": args.first_seed, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
