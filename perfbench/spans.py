"""Span tracing from outside the program, and the per-layer metrics.

A traced run replaces each boundary function by a wrapper in every ``sedq``
module that holds it, which is where callers look it up: the defining
module and each module that imported the name (``sedq.compensation.betas_pos``,
``sedq.cli.oracle_solve``, ...).  Methods are replaced on their class.  Each
span stores its name, start, end, parent and call id in flat arrays; spans
stay in memory until the run ends, when :func:`layer_metrics` derives
inclusive and self times from them.  A boundary that no longer exists under
its name is reported as missing and its metrics read 0.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

SKIP = object()


def _tree_terms(tree) -> int | None:
    try:
        return sum(
            len(level)
            for kind in ("hat_pos", "hat_neg", "tilde_pos", "tilde_neg")
            for level in getattr(tree, kind)
        )
    except (AttributeError, TypeError):
        return None


def _grow_before(args, kwargs):
    tree, L = args[0], args[1] if len(args) > 1 else kwargs.get("L")
    if tree.passes >= L:
        return SKIP  # nothing to grow: a no-op is series bookkeeping
    return tree.passes, _tree_terms(tree), tree.pruned


def _grow_after(counts, state, args, kwargs, out):
    tree = args[0]
    passes, terms, pruned = state
    counts["tree_passes"] += tree.passes - passes
    after = _tree_terms(tree)
    if terms is not None and after is not None:
        counts["terms_built"] += after - terms
    counts["pruned_terms"] += tree.pruned - pruned


def _tree_init_after(counts, state, args, kwargs, out):
    tree = args[0]
    counts["terms_built"] += _tree_terms(tree) or 0
    counts["pruned_terms"] += tree.pruned


def _series_after(counts, state, args, kwargs, out):
    counts["states_evaluated"] += 1
    counts["passes_evaluated"] += out[1]


def _boundary_after(counts, state, args, kwargs, out):
    counts["tm_unknowns"] += len(out) * args[0].s


def _n_after(counts, state, args, kwargs, out):
    counts["N_sum"] += out


def _oracle_after(counts, state, args, kwargs, out):
    box = args[1] if len(args) > 1 else kwargs["box"]
    counts["box_states"] += (box.q1max + 1) * (box.q2max + 1)


def _sim_after(counts, state, args, kwargs, out):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    counts["sim_events"] += cfg.events


@dataclass(frozen=True)
class Boundary:
    """A function to trace: ``attr`` in ``module``, possibly ``Class.method``.

    ``before`` may return :data:`SKIP` to leave a call untraced; ``after``
    records counts at the boundary from the arguments and the result.
    """

    module: str
    attr: str
    before: object = None
    after: object = None

    @property
    def name(self) -> str:
        layer = self.module.split(".")[-1].lstrip("_")
        return f"{layer}.{self.attr}"


BOUNDARIES = (
    Boundary("sedq.kernel", "betas_pos"),
    Boundary("sedq.kernel", "beta_neg"),
    Boundary("sedq.kernel", "alpha_neg"),
    Boundary("sedq.kernel", "partner_alpha_pos"),
    Boundary("sedq.kernel", "eigvec_pos"),
    Boundary("sedq.kernel", "eigvec_neg"),
    Boundary("sedq.kernel", "winding_count"),
    Boundary("sedq.compensation", "TermTree.__init__", after=_tree_init_after),
    Boundary("sedq.compensation", "TermTree.ensure_passes", _grow_before, _grow_after),
    Boundary("sedq.compensation", "initial_solution"),
    Boundary("sedq.compensation", "vertical_step_pos"),
    Boundary("sedq.compensation", "vertical_step_neg"),
    Boundary("sedq.compensation", "horizontal_step_pos"),
    Boundary("sedq.compensation", "horizontal_step_neg"),
    Boundary("sedq._linalg", "solve_checked"),
    Boundary("sedq.convergence", "compute_N", after=_n_after),
    Boundary("sedq.convergence", "limit_coeffs"),
    Boundary("sedq.model", "validate_params"),
    Boundary("sedq.model", "build_rate_matrices"),
    Boundary("sedq.model", "equation_stencil"),
    Boundary("sedq.model", "balance_residual"),
    Boundary("sedq.solver", "solve"),
    Boundary("sedq.solver", "adaptive_L", after=_series_after),
    Boundary("sedq.solver", "boundary_solve", after=_boundary_after),
    Boundary("sedq.solver", "normalize"),
    Boundary("sedq.solver", "metrics"),
    Boundary("sedq.solver", "solution_records"),
    Boundary("sedq.oracle", "oracle_solve", after=_oracle_after),
    Boundary("sedq.oracle", "simulate", after=_sim_after),
    Boundary("sedq.oracle", "compare"),
    Boundary("sedq.cli", "main"),
)
CALL = "harness.call"


class Tracer:
    """Spans in flat arrays; ``outer`` marks spans with no ancestor of the
    same name, so inclusive time never counts a recursion twice."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth: dict[int, int] = defaultdict(int)
        self.call_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._patches: list | None = None

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.call.append(self.call_id)
        self.outer.append(self.depth[nid] == 0)
        self.end.append(0.0)
        self.depth[nid] += 1
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.depth[self.name[i]] -= 1

    def wrap(self, fn, b: Boundary):
        nid = self.name_id(b.name)
        counts = self.counts

        def traced(*args, **kwargs):
            state = None
            if b.before is not None:
                try:
                    state = b.before(args, kwargs)
                except Exception:  # a broken probe must not break the program
                    state = None
                if state is SKIP:
                    return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if b.after is not None:
                try:
                    b.after(counts, state, args, kwargs, out)
                except Exception:  # a broken probe must not break the program
                    pass
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", b.attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _find_patches(self, boundaries) -> list[tuple[object, str, object, object]]:
        """``(holder, attribute, original, wrapper)`` for every place a
        boundary function is looked up."""
        patches = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "sedq"]
        for b in boundaries:
            home = sys.modules.get(b.module)
            if "." in b.attr:
                cls_name, meth = b.attr.split(".")
                cls = getattr(home, cls_name, None)
                orig = getattr(cls, "__dict__", {}).get(meth)
                if orig is None:
                    self.missing.append(b.name)
                    continue
                patches.append((cls, meth, orig, self.wrap(orig, b)))
                continue
            orig = getattr(home, b.attr, None)
            if orig is None:
                self.missing.append(b.name)
                continue
            traced = self.wrap(orig, b)
            for mod in modules:
                for gname, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, gname, orig, traced))
        return patches

    def install(self, boundaries=BOUNDARIES) -> None:
        if self._patches is None:
            self._patches = self._find_patches(boundaries)
        for holder, attr, _, traced in self._patches:
            setattr(holder, attr, traced)

    def uninstall(self) -> None:
        for holder, attr, orig, _ in reversed(self._patches or ()):
            setattr(holder, attr, orig)

    def begin_call(self, call_id: int) -> int:
        self.call_id = call_id
        return self.open(self.name_id(CALL))


def span_table(tr: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: count, inclusive seconds (outermost spans) and self
    seconds (duration minus the time covered by direct children)."""
    import numpy as np

    n = len(tr.name)
    if n == 0:
        return {}
    name = np.frombuffer(tr.name, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    outer = np.frombuffer(tr.outer, dtype=np.int8).astype(bool)
    dur = np.frombuffer(tr.end, dtype=np.float64) - np.frombuffer(tr.start, dtype=np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - covered
    k = len(tr.names)
    cnt = np.bincount(name, minlength=k)
    incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
    own = np.bincount(name, weights=self_t, minlength=k)
    return {
        tr.names[i]: {"count": int(cnt[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
        for i in range(k)
    }


LAYERS = ("kernel", "compensation", "linalg", "convergence", "model", "solver", "oracle", "cli")


def layer_metrics(table: dict, counts: dict, n_calls: int) -> dict[str, float]:
    """Per-layer metrics, each per traced call (rates are ratios of totals)."""

    def cnt(name):
        return table.get(name, {}).get("count", 0)

    def incl(*names):
        return sum(table.get(n, {}).get("incl_s", 0.0) for n in names)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    per = 1.0 / max(n_calls, 1)
    roots = incl("kernel.betas_pos", "kernel.beta_neg")
    hsteps = cnt("compensation.horizontal_step_pos") + cnt("compensation.horizontal_step_neg")
    hs = incl("compensation.horizontal_step_pos", "compensation.horizontal_step_neg")
    vsteps = cnt("compensation.vertical_step_pos") + cnt("compensation.vertical_step_neg")
    built, pruned = counts.get("terms_built", 0), counts.get("pruned_terms", 0)
    states = counts.get("states_evaluated", 0)
    series = own("solver.adaptive_L")
    box_states, sim_events = counts.get("box_states", 0), counts.get("sim_events", 0)
    out = {
        "kernel.betas_pos_calls": cnt("kernel.betas_pos") * per,
        "kernel.betas_pos_s": incl("kernel.betas_pos") * per,
        "kernel.beta_neg_calls": cnt("kernel.beta_neg") * per,
        "kernel.beta_neg_s": incl("kernel.beta_neg") * per,
        "kernel.winding_count_calls": cnt("kernel.winding_count") * per,
        "kernel.winding_count_s": incl("kernel.winding_count") * per,
        "kernel.eigvec_s": incl("kernel.eigvec_pos", "kernel.eigvec_neg") * per,
        "kernel.roots_us_per_node": 1e6 * ratio(roots, cnt("kernel.betas_pos")),
        "compensation.tree_growth_s": incl(
            "compensation.TermTree.__init__", "compensation.TermTree.ensure_passes"
        ) * per,
        "compensation.horizontal_steps": hsteps * per,
        "compensation.horizontal_s": hs * per,
        "compensation.horizontal_us_per_node": 1e6 * ratio(hs, hsteps),
        "compensation.vertical_steps": vsteps * per,
        "compensation.vertical_s": incl(
            "compensation.vertical_step_pos", "compensation.vertical_step_neg"
        ) * per,
        "compensation.initial_solution_s": incl("compensation.initial_solution") * per,
        "compensation.tree_passes": counts.get("tree_passes", 0) * per,
        "compensation.terms_built": built * per,
        "compensation.pruned_terms": pruned * per,
        "compensation.pruned_ratio": ratio(pruned, built + pruned),
        "linalg.solve_checked_calls": cnt("linalg.solve_checked") * per,
        "linalg.solve_checked_s": incl("linalg.solve_checked") * per,
        "convergence.compute_N_s": incl("convergence.compute_N") * per,
        "convergence.N": ratio(counts.get("N_sum", 0), cnt("convergence.compute_N")),
        "model.balance_residual_calls": cnt("model.balance_residual") * per,
        "model.balance_residual_s": incl("model.balance_residual") * per,
        "model.equation_stencil_calls": cnt("model.equation_stencil") * per,
        "solver.states_evaluated": states * per,
        "solver.passes_evaluated": counts.get("passes_evaluated", 0) * per,
        "solver.series_s": series * per,
        "solver.series_us_per_state": 1e6 * ratio(series, states),
        "solver.boundary_solve_s": incl("solver.boundary_solve") * per,
        "solver.tm_unknowns": counts.get("tm_unknowns", 0) * per,
        "solver.normalize_s": incl("solver.normalize") * per,
        "solver.solve_self_s": own("solver.solve") * per,
        "solver.metrics_s": incl("solver.metrics") * per,
        "solver.records_s": incl("solver.solution_records") * per,
        "oracle.oracle_solve_s": incl("oracle.oracle_solve") * per,
        "oracle.box_states": box_states * per,
        "oracle.states_per_s": ratio(box_states, incl("oracle.oracle_solve")),
        "oracle.simulate_s": incl("oracle.simulate") * per,
        "oracle.sim_events": sim_events * per,
        "oracle.sim_events_per_s": ratio(sim_events, incl("oracle.simulate")),
        "oracle.compare_s": incl("oracle.compare") * per,
        "cli.self_s": own("cli.main") * per,
        "harness.self_s": own(CALL) * per,
    }
    for layer in LAYERS:
        if layer == "cli":
            continue
        total = sum(v["self_s"] for k, v in table.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = total * per
    return out
