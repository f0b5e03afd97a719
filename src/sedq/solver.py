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

Series evaluation is incremental: pass ``L`` adds exactly one block of terms
(a vertical level for odd ``L``, a horizontal level for even ``L``), so the
per-state accuracy loop costs one block per pass.  States on the ``n = 0``
axis receive nothing from vertical passes; the accuracy loop only tests
passes that change the value and stops once two of them in a row are quiet.
The L-map reported by the CLI instead measures each truncation against the
converged series value (:func:`accuracy_passes`), whose level sets organize
by ``m + |n|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    InternalState,
    ModelParams,
    QueueState,
    balance_residual,
    build_rate_matrices,
    equation_stencil,
    from_internal,
    to_internal,
)

__all__ = [
    "SolverConfig",
    "EquilibriumSolution",
    "triangle_states",
    "eval_series",
    "adaptive_L",
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
        if self.eps <= 0:
            raise InvalidParam(f"eps must be positive, got {self.eps}")
        if self.L_max < 1:
            raise InvalidParam(f"L_max must be at least 1, got {self.L_max}")


@dataclass
class EquilibriumSolution:
    """Normalized distribution over ``T_K`` plus the tree behind it."""

    params: ModelParams
    probs: dict[tuple[int, int], np.ndarray]
    C: float
    tree: TermTree
    N: int
    M: int
    K: int
    diagnostics: dict = field(default_factory=dict)


def triangle_states(K: int) -> Iterator[tuple[int, int]]:
    """All ``(m, n)`` with ``m >= 0`` and ``m + |n| <= K``, sorted."""
    for m in range(K + 1):
        for n in range(-(K - m), K - m + 1):
            yield (m, n)


def _pass_block(
    tree: TermTree, m: int, n: int, pass_k: int
) -> np.ndarray | None:
    """Contribution of pass ``pass_k`` to state ``(m, n)``.

    Returns ``None`` when the pass cannot touch the state (vertical passes
    never feed the ``n = 0`` axis).
    """
    if pass_k % 2 == 1:  # vertical pass: tilde level (k+1)/2
        if n == 0:
            return None
        levels = tree.tilde_pos if n > 0 else tree.tilde_neg
    else:  # horizontal pass (or the initial triple): hat level k/2
        levels = tree.h_vecs if n == 0 else tree.hat_pos if n > 0 else tree.hat_neg
    return levels[(pass_k + 1) // 2].value(m, n)


def eval_series(tree: TermTree, m: int, n: int, L: int) -> np.ndarray:
    """Series value at ``(m, n)`` truncated after ``L`` repair passes."""
    if m < 0:
        raise InvalidParam(f"m must be nonnegative, got {m}")
    if L > tree.passes:
        raise DepthExceeded(f"pass {L} requested but only {tree.passes} built")
    total = np.zeros(tree.params.s, dtype=complex)
    for k in range(L + 1):
        block = _pass_block(tree, m, n, k)
        if block is not None:
            total += block
    return total


def _rel_gap(new: np.ndarray, old: np.ndarray) -> float:
    gap = 0.0
    for a, b in zip(new, old):
        diff = abs(a - b)
        if diff < TINY and abs(b) < TINY:
            continue
        if abs(b) < TINY:
            return math.inf
        gap = max(gap, diff / abs(b))
    return gap


def adaptive_L(
    tree: TermTree,
    m: int,
    n: int,
    eps: float,
    L_max: int,
) -> tuple[np.ndarray, int]:
    """Smallest pass count whose relative update beats ``eps``.

    The relative update of pass ``L`` is ``max_r |p_L(r) - p_{L-1}(r)| /
    |p_{L-1}(r)|``.  Vertical and horizontal increments alternate in size, so
    passes that cannot touch the state are skipped and the loop stops only
    once the gaps of the last *two* value-changing passes are both below
    ``eps``.  Grows the tree on demand and returns ``(p_L, L)``.
    """
    tree.ensure_passes(min(1, L_max))
    cur = _pass_block(tree, m, n, 0)
    last_gap = prev_gap = math.inf
    for k in range(1, L_max + 1):
        tree.ensure_passes(k)
        delta = _pass_block(tree, m, n, k)
        if delta is None:
            continue
        new = cur + delta
        prev_gap, last_gap = last_gap, _rel_gap(new, cur)
        cur = new
        if last_gap < eps and prev_gap < eps:
            return cur, k
    raise NoConvergenceWithinLmax(
        f"state ({m}, {n}): relative gap {last_gap:.3e} after {L_max} passes"
    )


def accuracy_passes(tree: TermTree, m: int, n: int, eps: float, L_max: int) -> int:
    """Minimal pass count already within ``eps`` of the converged value.

    The reference is the series ``REF_EXTRA`` passes beyond ``L_max``; the
    result is capped at ``L_max`` when even that truncation misses ``eps``
    (near the origin the series converges slowly or not at all, and the cap
    is what a depth-capped computation observes there).  This converged-
    reference measure is what the L-map command reports: unlike the
    consecutive-pass gap, its level sets organize by ``m + |n|``.
    """
    tree.ensure_passes(L_max + REF_EXTRA)
    ref = eval_series(tree, m, n, L_max + REF_EXTRA)
    cur = _pass_block(tree, m, n, 0)
    for k in range(1, L_max + 1):
        delta = _pass_block(tree, m, n, k)
        if delta is not None:
            cur = cur + delta
        if _rel_gap(cur, ref) < eps:
            return k
    return L_max


def boundary_solve(
    p: ModelParams,
    outer: dict[tuple[int, int], np.ndarray],
    M: int,
) -> dict[tuple[int, int], np.ndarray]:
    """Solve the balance equations on ``T_M`` given values outside it.

    One balance equation per state of ``T_M`` (``s`` scalar rows each);
    neighbors outside the triangle are looked up in ``outer`` and moved to
    the right-hand side.  Transitions change ``m + |n|`` by at most one, so
    only the ring ``m + |n| = M + 1`` is ever consulted.
    """
    rm = build_rate_matrices(p)
    s = p.s
    states = list(triangle_states(M))
    pos = {st: i for i, st in enumerate(states)}
    size = s * len(states)
    A = np.zeros((size, size))
    rhs = np.zeros(size)
    for st in states:
        row = s * pos[st]
        for mm, nn, block in equation_stencil(rm, s, st[0], st[1]):
            if (mm, nn) in pos:
                col = s * pos[(mm, nn)]
                A[row : row + s, col : col + s] += block
            else:
                if (mm, nn) not in outer:
                    raise MissingNeighbor(
                        f"triangle solve needs outer state ({mm}, {nn})"
                    )
                rhs[row : row + s] -= block @ np.real(outer[(mm, nn)])
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystem(f"triangle system condition {cond:.3e} exceeds 1e12")
    x = np.linalg.solve(A, rhs)
    return {st: x[s * pos[st] : s * (pos[st] + 1)] for st in states}


def normalize(
    vals: dict[tuple[int, int], np.ndarray],
) -> tuple[dict[tuple[int, int], np.ndarray], float, int]:
    """Scale ``vals`` to total mass one.

    Entries in ``(-1e-12, 0)`` are numerical dust and are clipped to zero
    (their count is returned); anything more negative is an error.  Returns
    ``(probabilities, C, clipped)`` with ``C`` the applied factor.
    """
    clipped = 0
    cleaned: dict[tuple[int, int], np.ndarray] = {}
    for st, vec in vals.items():
        vec = np.real(np.asarray(vec)).astype(float)
        if np.any(vec < NEGATIVE_DUST):
            raise InvalidParam(
                f"state {st} carries negative mass {vec.min():.3e}"
            )
        neg = vec < 0
        clipped += int(np.count_nonzero(neg))
        if np.any(neg):
            vec = np.where(neg, 0.0, vec)
        cleaned[st] = vec
    total = float(sum(v.sum() for v in cleaned.values()))
    if total <= 0:
        raise NonPositiveMass(f"total mass {total} is not positive")
    C = 1.0 / total
    return {st: v * C for st, v in cleaned.items()}, C, clipped


def _worst_residual(
    p: ModelParams, probs: dict[tuple[int, int], np.ndarray], span: int
) -> float:
    """Largest balance residual on ``T_span``, relative to the local scale."""
    rm = build_rate_matrices(p)
    rate = (1 + p.s) * (p.rho + 1)
    worst = 0.0
    for m, n in triangle_states(span):
        res = balance_residual(p, lambda mm, nn: probs[(mm, nn)], (m, n, 0), rm)
        local = max(
            float(np.max(np.abs(probs[(mm, nn)])))
            for mm, nn, _ in equation_stencil(rm, p.s, m, n)
        )
        worst = max(worst, float(np.max(np.abs(res))) / (rate * max(local, TINY)))
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

    tree = TermTree(p)
    vals: dict[tuple[int, int], np.ndarray] = {}
    L_used: dict[tuple[int, int], int] = {}
    max_rel_imag = 0.0
    for m, n in triangle_states(K):
        if m + abs(n) <= M:
            continue
        vec, L = adaptive_L(tree, m, n, cfg.eps, cfg.L_max)
        scale = float(np.max(np.abs(vec)))
        if scale > 0:
            max_rel_imag = max(max_rel_imag, float(np.max(np.abs(vec.imag))) / scale)
        vals[(m, n)] = vec.real
        L_used[(m, n)] = L

    vals.update(boundary_solve(p, vals, M))
    probs, C, clipped = normalize(vals)

    ring = sum(probs[st].sum() for st in probs if st[0] + abs(st[1]) == K)
    r = p.rho ** (1 + p.s)
    diagnostics = {
        "L_used": L_used,
        "max_rel_imag": max_rel_imag,
        "clipped": clipped,
        "pruned_terms": tree.pruned,
        "tail_mass_estimate": float(ring * r / (1 - r)),
        "tree_passes": tree.passes,
        "max_rel_residual": _worst_residual(p, probs, K - 1),
    }
    return EquilibriumSolution(
        params=p, probs=probs, C=C, tree=tree, N=N, M=M, K=K,
        diagnostics=diagnostics,
    )


def metrics(sol: EquilibriumSolution) -> dict[str, float]:
    """Moments of the queue-length distribution plus the idle probability."""
    s = sol.params.s
    mean_q1 = mean_q2 = 0.0
    for (m, n), vec in sol.probs.items():
        for r in range(s):
            q1, q2 = from_internal(InternalState(m, n, r), s)
            mean_q1 += q1 * vec[r]
            mean_q2 += q2 * vec[r]
    return {
        "mean_q1": mean_q1,
        "mean_q2": mean_q2,
        "mean_total": mean_q1 + mean_q2,
        "p_idle": float(sol.probs[(0, 0)][0]),
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
    grid = np.zeros((q1max + 1, q2max + 1))
    for q1 in range(q1max + 1):
        for q2 in range(q2max + 1):
            m, n, r = to_internal(QueueState(q1, q2), s)
            grid[q1, q2] = sol.probs[(m, n)][r]
    return grid


def solution_records(
    sol: EquilibriumSolution,
) -> list[tuple[int, int, int, int, int, float]]:
    """Rows ``(m, n, r, q1, q2, probability)`` sorted by state."""
    s = sol.params.s
    rows = []
    for (m, n) in sorted(sol.probs):
        vec = sol.probs[(m, n)]
        for r in range(s):
            q1, q2 = from_internal(InternalState(m, n, r), s)
            rows.append((m, n, r, q1, q2, float(vec[r])))
    return rows
