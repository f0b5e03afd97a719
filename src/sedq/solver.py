"""Equilibrium solver: truncated series, triangle solve, normalization.

The series converges faster the further a state lies from the origin, and
the minimal depth needed for a fixed accuracy grows as the state approaches
the origin.  The solver exploits this with a three-region scheme on the
triangles ``T_x = {(m, n): m + |n| <= x}``:

1. compute the convergence index ``N`` (see :mod:`sedq.convergence`),
2. pick ``M`` and ``K`` with ``N < M < K``,
3. evaluate states in ``T_K - T_M`` from the series, stopping at the first
   pass whose relative update falls below ``eps``,
4. solve the finite balance system on ``T_M`` with the series values as
   boundary data,
5. normalize over ``T_K``.

The distribution is one ``(states, s)`` array: the series states of
``T_K - T_M`` in triangle order, then ``T_M``.  Every step works on whole
arrays of states; the ``T_M`` system is scattered from the stencil table in
one indexed assignment (:func:`boundary_solve`).
Series evaluation is incremental: pass ``L`` adds exactly one block of
terms (a vertical level for odd ``L``, a horizontal level for even ``L``) to
every state still active, and a state drops out once it stops
(:func:`series_values`).  States on the ``n = 0`` axis receive nothing from
vertical passes; the stopping rule only tests passes that change the value
and stops once two of them in a row are quiet.
The residual diagnostic sums each balance-equation family's stencil over
all of its states at once, through the same walk of the table.  The L-map
reported by the CLI instead measures each truncation against the converged
series value (:func:`accuracy_passes`), whose level sets organize by
``m + |n|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .compensation import TermTree
from .convergence import compute_N
from .errors import (
    DepthExceeded,
    GridExceedsTruncation,
    InvalidParam,
    MissingNeighbor,
    NoConvergenceWithinLmax,
    NonPositiveMass,
    SingularSystem,
)
from .model import (
    FAMILY_OF,
    ModelParams,
    build_rate_matrices,
    family_stencil,
    from_internal,
    to_internal,
)

__all__ = [
    "SolverConfig",
    "EquilibriumSolution",
    "triangle_states",
    "eval_series",
    "series_values",
    "accuracy_passes",
    "boundary_solve",
    "normalize",
    "solve",
    "metrics",
    "heatmap",
    "solution_records",
]

NEGATIVE_DUST = -1e-12
TINY = 1e-280
#: passes beyond ``L_max`` that make the converged reference of the L-map
REF_EXTRA = 3


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the numerical scheme.

    ``M``/``K`` default to ``N + 2`` and ``max(40, M + 30)``; enlarging ``K``
    mostly affects how much of the tail is materialized, not accuracy.
    """

    eps: float = 1e-4
    L_max: int = 16
    M: int | None = None
    K: int | None = None

    def __post_init__(self):
        if not self.eps > 0:
            raise InvalidParam(f"eps must be positive, got {self.eps}")
        if self.L_max < 1:
            raise InvalidParam(f"L_max must be at least 1, got {self.L_max}")


@dataclass
class EquilibriumSolution:
    """Normalized distribution over ``T_K`` plus the tree behind it.

    Row ``i`` of the ``(states, s)`` array ``dist`` is state ``(m[i], n[i])``,
    series states first; ``probs`` maps each state to its row (a view).
    """

    params: ModelParams
    m: np.ndarray
    n: np.ndarray
    dist: np.ndarray
    C: float
    tree: TermTree
    N: int
    M: int
    K: int
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def probs(self) -> dict[tuple[int, int], np.ndarray]:
        """Each state's row of ``dist`` (a view), built on first use."""
        return dict(zip(zip(self.m.tolist(), self.n.tolist()), self.dist))


def _triangle(K: int) -> tuple[np.ndarray, np.ndarray]:
    """``(m, n)`` index arrays of ``T_K``, in :func:`triangle_states` order."""
    m = np.repeat(np.arange(K + 1), 2 * (K - np.arange(K + 1)) + 1)
    n = np.arange(len(m)) - np.searchsorted(m, m) - (K - m)
    return m, n


def triangle_states(K: int) -> Iterator[tuple[int, int]]:
    """All ``(m, n)`` with ``m >= 0`` and ``m + |n| <= K``, sorted."""
    m, n = _triangle(K)
    return zip(m.tolist(), n.tolist())


def _pass_value(tree: TermTree, m: np.ndarray, n: np.ndarray, k: int) -> np.ndarray:
    """Terms of pass ``k`` summed at each state ``(m[i], n[i])``.

    Pass 0 and even passes add a horizontal level ``k/2``, whose h-vectors
    feed the ``n = 0`` axis; odd passes add a vertical level ``(k+1)/2``,
    which never touches the axis (its rows stay zero).
    """
    kinds = ("tilde_pos", "tilde_neg") if k % 2 else ("hat_pos", "hat_neg", "h_vecs")
    out = np.zeros((len(m), tree.params.s), dtype=complex)
    for sign, kind in zip((1, -1, 0), kinds):
        rows = np.sign(n) == sign
        if rows.any():
            out[rows] = getattr(tree, kind)[(k + 1) // 2].value(m[rows], n[rows])
    return out


def eval_series(tree: TermTree, m, n, L: int) -> np.ndarray:
    """Series values at states ``(m, n)`` truncated after ``L`` repair passes.

    ``m`` and ``n`` are index arrays (result shape ``(k, s)``) or ints (result
    shape ``(s,)``).
    """
    ms, ns = np.atleast_1d(m), np.atleast_1d(n)
    if np.any(ms < 0):
        raise InvalidParam(f"m must be nonnegative, got {ms.min()}")
    if L > tree.passes:
        raise DepthExceeded(f"pass {L} requested but only {tree.passes} built")
    total = sum(_pass_value(tree, ms, ns, k) for k in range(L + 1))
    return total if np.ndim(m) else total[0]


def _rel_gap(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Per row, ``max_r |new(r) - old(r)| / |old(r)|``.

    An entry whose change and ``old`` are both below ``TINY`` does not
    count; a change on a tiny ``old`` gives ``inf``.
    """
    diff, base = np.abs(new - old), np.abs(old)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(base < TINY, np.where(diff < TINY, 0.0, np.inf), diff / base)
    return rel.max(axis=1)


def series_values(
    tree: TermTree, m: np.ndarray, n: np.ndarray, eps: float, L_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Series values at states ``(m[i], n[i])`` and the pass count of each.

    A state stops at the smallest pass ``L`` whose relative update
    ``max_r |p_L(r) - p_{L-1}(r)| / |p_{L-1}(r)|`` beats ``eps``.  Vertical
    and horizontal increments alternate in size, so passes that cannot touch
    the state are skipped and it stops only once the gaps of its last *two*
    value-changing passes are both below ``eps``.  Each pass is added to the
    states still active (``L == 0``); the tree grows on demand.  Returns
    ``(p, L)`` with ``p`` of shape ``(k, s)``.
    """
    m, n = np.asarray(m), np.asarray(n)
    val = _pass_value(tree, m, n, 0)
    last, prev = np.full((2, len(m)), math.inf)
    L = np.zeros(len(m), dtype=int)
    for k in range(1, L_max + 1):
        if np.all(L > 0):
            break
        tree.ensure_passes(k)
        rows = np.flatnonzero((L == 0) & ((k % 2 == 0) | (n != 0)))
        old = val[rows]
        val[rows] = new = old + _pass_value(tree, m[rows], n[rows], k)
        prev[rows], last[rows] = last[rows], _rel_gap(new, old)
        L[(L == 0) & (last < eps) & (prev < eps)] = k
    if np.any(L == 0):
        i = np.argmax(L == 0)
        raise NoConvergenceWithinLmax(
            f"state ({m[i]}, {n[i]}): relative gap {last[i]:.3e} after {L_max} passes"
        )
    return val, L


def accuracy_passes(
    tree: TermTree, m: np.ndarray, n: np.ndarray, eps: float, L_max: int
) -> np.ndarray:
    """Minimal pass count already within ``eps`` of the converged value.

    One count per state ``(m[i], n[i])``.  The reference is the series
    ``REF_EXTRA`` passes beyond ``L_max``; the result is capped at ``L_max``
    when even that truncation misses ``eps`` (near the origin the series
    converges slowly or not at all, and the cap is what a depth-capped
    computation observes there).  This converged-reference measure is what
    the L-map command reports: unlike the consecutive-pass gap, its level
    sets organize by ``m + |n|``.
    """
    m, n = np.atleast_1d(m), np.atleast_1d(n)
    if np.any(m < 0):
        raise InvalidParam(f"m must be nonnegative, got {m.min()}")
    tree.ensure_passes(L_max + REF_EXTRA)
    sums = [_pass_value(tree, m, n, 0)]
    for k in range(1, L_max + REF_EXTRA + 1):
        sums.append(sums[-1] + _pass_value(tree, m, n, k))
    L = np.full(len(m), L_max)
    for k in range(1, L_max):
        # a state still at L_max has not come within eps yet
        L[(L == L_max) & (_rel_gap(sums[k], sums[-1]) < eps)] = k
    return L


def boundary_solve(
    p: ModelParams, m: np.ndarray, n: np.ndarray, vals: np.ndarray, M: int
) -> np.ndarray:
    """Solve the balance equations on ``T_M`` given values outside it.

    Row ``i`` of the real array ``vals`` is the value at ``(m[i], n[i])``, a
    state outside ``T_M``.  Every stencil entry of every ``T_M`` equation is
    scattered into one dense matrix at once; the entries on outside states
    move to the right-hand side in stencil order.  Transitions change
    ``m + |n|`` by at most one, so only the ring ``m + |n| = M + 1`` is ever
    consulted.  Returns the ``(|T_M|, s)`` values in triangle order.
    """
    s = p.s
    tm, tn = _triangle(M)
    size = len(tm)
    row = _row_index(np.concatenate([tm, m]), np.concatenate([tn, n]))
    # one entry per (state, stencil entry), each state's in stencil order
    here, nm, nn, blocks = map(np.concatenate, zip(*(
        (np.repeat(rows, len(b)), fm.ravel(), fn.ravel(), np.tile(b, (len(rows), 1, 1)))
        for rows, fm, fn, b in _families(p, tm, tn)
    )))
    there = row(nm, nn)
    if np.any(there < 0):
        i = np.argmax(there < 0)
        raise MissingNeighbor(f"triangle solve needs outer state ({nm[i]}, {nn[i]})")
    inner, out = there < size, there >= size
    A = np.zeros((size, s, size, s))
    A[here[inner], :, there[inner], :] = blocks[inner]
    rhs = np.zeros((size, s))
    vec = vals[there[out] - size, :, None]
    np.subtract.at(rhs, here[out], np.matmul(blocks[out], vec)[:, :, 0])
    A = A.reshape(size * s, size * s)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystem(f"triangle system condition {cond:.3e} exceeds 1e12")
    return np.linalg.solve(A, rhs.ravel()).reshape(size, s)


def _families(p: ModelParams, m: np.ndarray, n: np.ndarray):
    """Each balance-equation family's states among ``(m[i], n[i])``.

    Yields ``(rows, nm, nn, blocks)``: the equation of state ``rows[i]``
    reads ``sum_j blocks[j] @ p(nm[i, j], nn[i, j])``, its own block first.
    """
    rm = build_rate_matrices(p)
    zero, edge = m == 0, np.clip(n, -2, 2)
    for (at_zero, at_edge), fam in FAMILY_OF.items():
        rows = np.flatnonzero((zero == at_zero) & (edge == at_edge))
        dm, dn, blocks = map(np.array, zip(*family_stencil(rm, p.s, fam)))
        yield rows, m[rows, None] + dm, n[rows, None] + dn, blocks


def _row_index(m: np.ndarray, n: np.ndarray):
    """Map from index arrays ``(mm, nn)`` to the rows of ``(m[i], n[i])``, else -1.

    Valid for states up to one ring beyond the farthest ``(m[i], n[i])``.
    """
    top = int(np.max(m + np.abs(n))) + 1
    row = np.full((top + 1, 2 * top + 1), -1)
    row[m, n + top] = np.arange(len(m))
    return lambda mm, nn: row[mm, nn + top]


def normalize(vals: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Scale ``vals`` (one row per state) to total mass one.

    Entries in ``(-1e-12, 0)`` are numerical dust and are clipped to zero
    (their count is returned); anything more negative is a numerical failure
    and raises :class:`NonPositiveMass`, as a non-positive total does.  The
    total adds the row sums one after another in row order.  Returns
    ``(probabilities, C, clipped)`` with ``C`` the applied factor.
    """
    vals = np.real(np.asarray(vals)).astype(float)
    if np.any(vals < NEGATIVE_DUST):
        i = np.argmax((vals < NEGATIVE_DUST).any(axis=1))
        raise NonPositiveMass(f"row {i} carries negative mass {vals[i].min():.3e}")
    neg = vals < 0
    clipped = int(np.count_nonzero(neg))
    vals[neg] = 0.0
    total = float(sum(vals.sum(axis=1)))
    if total <= 0:
        raise NonPositiveMass(f"total mass {total} is not positive")
    C = 1.0 / total
    return vals * C, C, clipped


def _worst_residual(
    p: ModelParams, m: np.ndarray, n: np.ndarray, probs: np.ndarray, span: int
) -> float:
    """Largest balance residual on ``T_span``, relative to the local scale.

    Row ``i`` of ``probs`` is state ``(m[i], n[i])``; the rows must cover
    ``T_{span+1}``, which holds every neighbor.  The residuals are summed
    one family and one stencil entry at a time, over all states at once.
    """
    rate = (1 + p.s) * (p.rho + 1)
    row = _row_index(m, n)
    tm, tn = _triangle(span)
    worst = 0.0
    for _, nm, nn, blocks in _families(p, tm, tn):
        res = local = 0.0
        for j, block in enumerate(blocks):
            vec = probs[row(nm[:, j], nn[:, j])]
            res = res + np.matmul(block, vec[:, :, None])[:, :, 0]
            local = np.maximum(local, np.abs(vec).max(axis=1))
        rel = np.abs(res).max(axis=1) / (rate * np.maximum(local, TINY))
        worst = max(worst, float(rel.max(initial=0.0)))
    return worst


def solve(p: ModelParams, cfg: SolverConfig | None = None) -> EquilibriumSolution:
    """Run the full scheme and return the normalized distribution on ``T_K``."""
    cfg = cfg or SolverConfig()
    N = compute_N(p)
    M = cfg.M if cfg.M is not None else N + 2
    K = cfg.K if cfg.K is not None else max(40, M + 30)
    if not N < M:
        raise InvalidParam(f"M = {M} must exceed the convergence index N = {N}")
    if not M < K:
        raise InvalidParam(f"K = {K} must exceed M = {M}")

    # rows: the series states of T_K - T_M, then T_M, each in triangle order
    m, n = _triangle(K)
    order = np.argsort(m + np.abs(n) <= M, kind="stable")
    m, n = m[order], n[order]
    cut = int(np.count_nonzero(m + np.abs(n) > M))

    tree = TermTree(p)
    series, L = series_values(tree, m[:cut], n[:cut], cfg.eps, cfg.L_max)
    scale = np.abs(series).max(axis=1)
    live = scale > 0
    rel_imag = np.abs(series.imag).max(axis=1)[live] / scale[live]
    inner = boundary_solve(p, m[:cut], n[:cut], series.real, M)
    probs, C, clipped = normalize(np.concatenate([series.real, inner]))

    ring = sum(probs[m + np.abs(n) == K].sum(axis=1))
    r = p.rho ** (1 + p.s)
    diagnostics = {
        # passes per row of dist; 0 on the T_M rows, which no series fills
        "L_used": np.concatenate([L, np.zeros(len(m) - cut, dtype=int)]),
        "max_rel_imag": float(rel_imag.max(initial=0.0)),
        "clipped": clipped,
        "pruned_terms": tree.pruned,
        "tail_mass_estimate": float(ring * r / (1 - r)),
        "tree_passes": tree.passes,
        "max_rel_residual": _worst_residual(p, m, n, probs, K - 1),
    }
    return EquilibriumSolution(
        params=p, m=m, n=n, dist=probs, C=C, tree=tree, N=N, M=M, K=K,
        diagnostics=diagnostics,
    )


def metrics(sol: EquilibriumSolution) -> dict[str, float]:
    """Moments of the queue-length distribution plus the idle probability."""
    s = sol.params.s
    q1, q2 = from_internal((sol.m[:, None], sol.n[:, None], np.arange(s)), s)
    # cumsum adds q * p one entry after another in row order, as a loop would
    mean_q1 = np.cumsum(q1 * sol.dist)[-1]
    mean_q2 = np.cumsum(q2 * sol.dist)[-1]
    return {
        "mean_q1": mean_q1,
        "mean_q2": mean_q2,
        "mean_total": mean_q1 + mean_q2,
        "p_idle": float(sol.dist[_row_index(sol.m, sol.n)(0, 0), 0]),
        "tail_mass": sol.diagnostics.get("tail_mass_estimate", 0.0),
    }


def heatmap(sol: EquilibriumSolution, q1max: int, q2max: int) -> np.ndarray:
    """Grid ``P(q1, q2)`` for ``0 <= q1 <= q1max``, ``0 <= q2 <= q2max``.

    Cells mapping outside the solved triangle would be wrong if reported as
    zero, so the whole request is rejected when not covered.
    """
    if q1max < 0 or q2max < 0:
        raise InvalidParam("grid extents must be nonnegative")
    s = sol.params.s
    if max(q1max, q2max // s) > sol.K:
        raise GridExceedsTruncation(
            f"grid needs m + |n| up to {max(q1max, q2max // s)} "
            f"but the solution covers {sol.K}"
        )
    m, n, r = to_internal(np.ogrid[: q1max + 1, : q2max + 1], s)
    return sol.dist[_row_index(sol.m, sol.n)(m, n), r]


def solution_records(
    sol: EquilibriumSolution,
) -> list[tuple[int, int, int, int, int, float]]:
    """Rows ``(m, n, r, q1, q2, probability)`` sorted by state."""
    s, r = sol.params.s, np.arange(sol.params.s)
    rows = []
    # a few thousand states at a time: the column lists stay short-lived
    for i in np.array_split(np.lexsort((sol.n, sol.m)), len(sol.m) // 4096 + 1):
        m, n = sol.m[i, None], sol.n[i, None]
        cols = np.broadcast_arrays(m, n, r, *from_internal((m, n, r), s), sol.dist[i])
        rows += zip(*(c.ravel().tolist() for c in cols))
    return rows
