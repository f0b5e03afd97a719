"""Command-line front end.

Subcommands::

    solve     solve the model and export state probabilities
    heatmap   export a P(q1, q2) grid for plotting
    nindex    tabulate the convergence index N over parameter lists
    validate  diff the solver against the truncated-chain oracle (and,
              optionally, the seeded simulator)
    lmap      export the per-state pass-count grid

Exit codes: 0 success, 1 numerical failure, 2 invalid input.  Data goes to
``--out`` (default stdout); human-readable diagnostics go to stderr with 6
significant digits, file payloads carry 17.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Sequence, get_args, get_type_hints

import numpy as np

from .compensation import TermTree, serialize_tree
from .convergence import compute_N
from .errors import InvalidParam, SedqError
from .model import ModelParams, validate_params
from .oracle import TruncationBox, compare, oracle_solve, simulate, SimConfig
from .solver import (
    SolverConfig,
    accuracy_passes,
    heatmap as solver_heatmap,
    solution_records,
    solve,
    triangle_states,
)

FILE_FMT = "{:.17g}"
CONSOLE_FMT = "{:.6g}"
FORMATS = ("csv", "json")
#: JSON value types a ``RunConfig`` annotation admits (a bool is no number)
JSON_TYPES = {int: (int,), float: (int, float), str: (str,), type(None): (type(None),)}


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of every knob a command accepts, from flags and ``--config``."""

    s: int
    rho: float
    q: float
    eps: float = 1e-4
    lmax: int = 16
    m: int | None = None
    k: int | None = None
    format: str = "csv"
    out: str = "-"

    def model(self) -> ModelParams:
        return validate_params(self.s, self.rho, self.q)

    def solver(self) -> SolverConfig:
        return SolverConfig(eps=self.eps, L_max=self.lmax, M=self.m, K=self.k)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--s", type=int, help="fast-server rate (positive integer)")
    sub.add_argument("--rho", type=float, help="utilization in (0, 1)")
    sub.add_argument("--q", type=float, help="tie-break probability in [0, 1]")
    sub.add_argument("--eps", type=float, help="series accuracy target")
    sub.add_argument("--lmax", type=int, help="cap on repair passes")
    sub.add_argument("--m", type=int, help="inner-triangle size (default N + 2)")
    sub.add_argument("--k", type=int, help="outer-triangle size (default >= 40)")
    sub.add_argument("--format", choices=FORMATS, help="output format")
    sub.add_argument("--out", help="output path, '-' for stdout")
    sub.add_argument("--config", help="JSON file with the same keys as the flags")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidParam(f"cannot read --config {args.config}: {exc}") from exc
        if not isinstance(base, dict):
            raise InvalidParam(f"--config {args.config} must hold a JSON object")
        unknown = sorted(set(base) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise InvalidParam(f"unknown --config keys: {', '.join(unknown)}")
        _check_config_types(base, args.config)
    for key in ("s", "rho", "q", "eps", "lmax", "m", "k", "format", "out"):
        val = getattr(args, key, None)
        if val is not None:
            base[key] = val
    for key in ("s", "rho", "q"):
        if key not in base:
            raise InvalidParam(f"missing required parameter --{key}")
    # an unwritable output path is bad input, found before any work is done
    paths = {"--out": base.get("out"), "--dump-tree": getattr(args, "dump_tree", None)}
    for flag, path in paths.items():
        if path in (None, "-"):
            continue
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise InvalidParam(f"{flag} {path} is not a writable file path")
    return RunConfig(**base)


def _check_config_types(base: dict, path: str) -> None:
    """Raise :class:`InvalidParam` for a value that does not fit its field."""
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        if f.name not in base:
            continue
        hint = hints[f.name]
        allowed = [t for kind in get_args(hint) or (hint,) for t in JSON_TYPES[kind]]
        if type(base[f.name]) not in allowed:
            raise InvalidParam(
                f"--config {path}: {f.name} = {base[f.name]!r} is not {f.type}"
            )
    if base.get("format", FORMATS[0]) not in FORMATS:
        raise InvalidParam(
            f"--config {path}: format must be one of {', '.join(FORMATS)}"
        )


def _numbers(text: str, sep: str, kind, flag: str) -> list:
    """The ``sep``-separated numbers of option ``flag``, read by ``kind``."""
    try:
        return [kind(x) for x in text.split(sep)]
    except ValueError as exc:
        raise InvalidParam(f"{flag}: cannot read numbers from {text!r}") from exc


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _write_rows(cfg: RunConfig, header: Sequence[str], rows, meta: dict) -> None:
    """Emit rows as CSV (with '#' metadata lines) or a JSON document."""
    fh, close = _open_out(cfg.out)
    try:
        if cfg.format == "json":
            _write_json(fh, header, rows, meta)
        else:
            for key in sorted(meta):
                fh.write(f"# {key}: {meta[key]}\n")
            fh.write(",".join(header) + "\n")
            # one template per table: floats as FILE_FMT, ints as str
            line = ",".join("%.17g" if isinstance(x, float) else "%d" for x in rows[0])
            fh.writelines(line % row + "\n" for row in rows)
    finally:
        if close:
            fh.close()


def _write_json(fh, header: Sequence[str], rows, meta: dict) -> None:
    """``json.dump({"meta": meta, "records": [...]}, fh, indent=1,
    sort_keys=True)`` plus a newline, one record at a time.

    One template per table renders a row with its keys sorted; a value
    prints as its ``repr``, which for ints and finite floats is JSON's.
    """
    keys = sorted(range(len(header)), key=header.__getitem__)
    fields = ",".join(f'\n   {json.dumps(header[i])}: {{{i}!r}}' for i in keys)
    record = "  {{" + fields + "\n  }}"
    meta_text = json.dumps(meta, indent=1, sort_keys=True).replace("\n", "\n ")
    fh.write(f'{{\n "meta": {meta_text},\n "records": [')
    fh.writelines(
        (",\n" if i else "\n") + record.format(*row) for i, row in enumerate(rows)
    )
    fh.write("\n ]\n}\n" if rows else "]\n}\n")


def _cells(grid: np.ndarray) -> list[list]:
    """Lists ``q1``, ``q2`` and ``P(q1, q2)`` of a heatmap grid, row-major."""
    return [*np.indices(grid.shape).reshape(2, -1).tolist(), grid.ravel().tolist()]


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    p = cfg.model()
    t0 = time.perf_counter()
    sol = solve(p, cfg.solver())
    wall = time.perf_counter() - t0
    rows = solution_records(sol)
    meta = {
        "s": p.s,
        "rho": FILE_FMT.format(p.rho),
        "q": FILE_FMT.format(p.q),
        "N": sol.N,
        "M": sol.M,
        "K": sol.K,
    }
    if getattr(args, "dump_tree", None):
        with open(args.dump_tree, "w") as fh:
            fh.write(serialize_tree(sol.tree))
    _write_rows(cfg, ("m", "n", "r", "q1", "q2", "probability"), rows, meta)
    tail = sol.diagnostics["tail_mass_estimate"]
    _info(
        f"N={sol.N} M={sol.M} K={sol.K} states={len(rows)} "
        f"truncation_mass={CONSOLE_FMT.format(tail)} "
        f"wall={CONSOLE_FMT.format(wall)}s"
    )
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if args.q1max is None or args.q2max is None:
        raise InvalidParam("heatmap requires --q1max and --q2max")
    if args.q1max < 0 or args.q2max < 0:
        raise InvalidParam("grid extents must be nonnegative")
    p = cfg.model()
    sol = solve(p, cfg.solver())
    grid = solver_heatmap(sol, args.q1max, args.q2max)
    rows = list(zip(*_cells(grid)))
    meta = {
        "s": p.s,
        "rho": FILE_FMT.format(p.rho),
        "q": FILE_FMT.format(p.q),
        "equal_delay_line": "q1 + 1 = (q2 + 1)/s",
        "equal_work_line": "q1 = q2/s",
    }
    _write_rows(cfg, ("q1", "q2", "probability"), rows, meta)
    _info(f"grid {args.q1max + 1}x{args.q2max + 1}, mass={grid.sum():.6g}")
    return 0


def cmd_nindex(args: argparse.Namespace) -> int:
    if args.q is None:
        raise InvalidParam("nindex requires --q")
    s_list = _numbers(args.s_list, ",", int, "--s-list")
    rho_list = _numbers(args.rho_list, ",", float, "--rho-list")
    cells = []
    for s in s_list:
        for rho in rho_list:
            p = validate_params(s, rho, args.q)
            cells.append((s, rho, compute_N(p)))
    print("s,rho,N")
    for s, rho, N in cells:
        print(f"{s},{FILE_FMT.format(rho)},{N}")
    return 0


def _default_box(p: ModelParams, target: float = 1e-9) -> TruncationBox:
    """Box sized so the edge mass sits well below ``target``."""
    decay = p.rho ** (1 + p.s)
    depth = math.ceil(math.log(target) / math.log(decay)) + 8
    depth = max(depth, 4 * p.s + 2)
    return TruncationBox(q1max=depth, q2max=p.s * depth + p.s)


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    p = cfg.model()
    if args.window < 0:
        raise InvalidParam(f"--window must be nonnegative, got {args.window}")
    if not args.tol >= 0:
        raise InvalidParam(f"--tol must be a nonnegative number, got {args.tol}")
    if not 1 <= args.events < math.inf:
        raise InvalidParam(f"--events must be a finite number >= 1, got {args.events}")
    if args.box:
        extents = _numbers(args.box.lower(), "x", int, "--box")
        if len(extents) != 2:
            raise InvalidParam(f"--box must look like Q1xQ2, got {args.box!r}")
        box = TruncationBox(*extents)
    else:
        box = _default_box(p)
    sol = solve(p, cfg.solver())
    oracle = oracle_solve(p, box)
    window = TruncationBox(
        min(args.window, box.q1max - 2), min(args.window, box.q2max - 2)
    )
    q1, q2, vals = _cells(solver_heatmap(sol, window.q1max, window.q2max))
    rep = compare(dict(zip(zip(q1, q2), vals)), oracle.probs, window)
    _info(
        f"solver vs oracle: max_rel_err={CONSOLE_FMT.format(rep.max_rel_err)} "
        f"max_abs_err={CONSOLE_FMT.format(rep.max_abs_err)} "
        f"worst_state={rep.worst_state} "
        f"oracle_boundary_mass={CONSOLE_FMT.format(oracle.boundary_mass)}"
    )
    failed = rep.max_rel_err > args.tol
    if args.simulate:
        sim = simulate(p, SimConfig(events=int(args.events), seed=args.seed))
        simrep = compare(sim.freq, oracle.probs, window)
        _info(
            f"simulation vs oracle: max_rel_err={CONSOLE_FMT.format(simrep.max_rel_err)} "
            f"max_abs_err={CONSOLE_FMT.format(simrep.max_abs_err)} "
            f"worst_state={simrep.worst_state}"
        )
    if failed:
        _info(
            f"FAIL: max_rel_err {CONSOLE_FMT.format(rep.max_rel_err)} exceeds "
            f"tol {CONSOLE_FMT.format(args.tol)} at state {rep.worst_state}"
        )
        return 1
    _info("PASS")
    return 0


def cmd_lmap(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    p = cfg.model()
    scfg = cfg.solver()
    if args.span < 0:
        raise InvalidParam(f"--span must be nonnegative, got {args.span}")
    m, n = zip(*triangle_states(args.span))
    Ls = accuracy_passes(TermTree(p), m, n, scfg.eps, scfg.L_max)
    rows = list(zip(m, n, Ls.tolist()))
    meta = {
        "s": p.s,
        "rho": FILE_FMT.format(p.rho),
        "q": FILE_FMT.format(p.q),
        "eps": FILE_FMT.format(cfg.eps),
        "L": "minimal passes within eps of the converged series value",
    }
    _write_rows(cfg, ("m", "n", "L"), rows, meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sedq",
        description="Stationary analysis of the two-server shortest-expected-delay queue",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve and export state probabilities")
    _add_model_flags(sp)
    sp.add_argument("--dump-tree", help="also write the term tree to this path")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("heatmap", help="export a P(q1, q2) grid")
    _add_model_flags(sp)
    sp.add_argument("--q1max", type=int)
    sp.add_argument("--q2max", type=int)
    sp.set_defaults(func=cmd_heatmap)

    sp = sub.add_parser("nindex", help="tabulate the convergence index N")
    sp.add_argument("--q", type=float)
    sp.add_argument("--s-list", default="2,5")
    sp.add_argument("--rho-list", default="0.1,0.3,0.5,0.7,0.9")
    sp.set_defaults(func=cmd_nindex)

    sp = sub.add_parser("validate", help="diff solver against the oracle")
    _add_model_flags(sp)
    sp.add_argument("--box", help="oracle box as Q1xQ2, e.g. 40x80")
    sp.add_argument("--window", type=int, default=15, help="comparison window")
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--simulate", action="store_true")
    sp.add_argument(
        "--events", type=float, default=1_000_000,
        help="event count, scientific notation accepted",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("lmap", help="export the per-state pass-count grid")
    _add_model_flags(sp)
    sp.add_argument("--span", type=int, default=12, help="largest m + |n| in the grid")
    sp.set_defaults(func=cmd_lmap)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParam as exc:
        _info(f"invalid input: {exc}")
        return 2
    except SedqError as exc:
        _info(f"numerical failure: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
