"""Compensation-term construction: initial triple and the (s+1)-ary tree.

The stationary distribution is assembled from product forms
``coeff * alpha^m * beta^|n| * vec`` added in alternating repair passes:

* Level 0 is the unique triple (``s`` upper-quadrant forms sharing
  ``alpha = rho^(1+s)``, a horizontal vector for the ``n = 0`` row, one
  lower-quadrant form) satisfying the interior *and* horizontal balance
  equations.
* A *vertical pass* repairs the ``m = 0`` boundary: each upper form gains a
  partner with the same beta, the partner alpha being the second root of its
  branch quadratic (which shares the eigenvector); each lower form gains the
  unique in-disk partner of the negative kernel.  The two-term sums satisfy
  the vertical equations exactly.
* A *horizontal pass* repairs the ``n in {-1, 0, 1}`` rows: each vertical
  term spawns ``s`` new upper forms, one lower form and a fresh horizontal
  vector, solved from a dense ``(2s+1) x (2s+1)`` system.

Each vertical term therefore has ``s + 1`` children, giving an (s+1)-ary
tree.  Within level ``l`` the parent ``i`` owns child indices
``d(i)+1 .. d(i)+s`` (upper) and ``i*(s+1)`` (lower), ``d(i) = (i-1)*(s+1)``.

The tree stores every level of each kind (``hat_pos``, ``hat_neg``,
``tilde_pos``, ``tilde_neg``, ``h_vecs``) as one :class:`Block` of arrays;
the level and kind of a term are where its block is stored.  An ``n = 0``
row vector is a block row with ``beta = coeff = 1``, so one formula
evaluates every block.  Vertical steps work one node at a time on
:class:`Term` rows with Python scalars.  A horizontal pass works on the
level: :func:`horizontal_repair` takes up to :data:`REPAIR_CHUNK` vertical
terms at once, finds their roots and solves their systems in stacked calls,
and gives each node the bits it would get alone.  Moduli decrease strictly
down the tree, so coefficients eventually underflow; terms whose
contribution falls below 1e-300 are pruned from their level with a counter.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._linalg import solve_checked
from .errors import SedqError
from .kernel import (
    alpha_neg,
    beta_neg,
    betas_pos,
    eigvec_neg,
    eigvec_pos,
    partner_alpha_pos,
)
from .model import ModelParams, RateMatrices, build_rate_matrices

__all__ = [
    "Term",
    "Block",
    "Bundle",
    "TermTree",
    "initial_solution",
    "vertical_step_pos",
    "vertical_step_neg",
    "horizontal_repair",
    "grow_tree",
    "serialize_tree",
]

PRUNE_FLOOR = 1e-300
#: vertical terms per stacked :func:`horizontal_repair` call (bounds memory)
REPAIR_CHUNK = 64
#: states per weight matrix in :meth:`Block.value`, which bounds its memory
VALUE_ROWS = 256


class Term(NamedTuple):
    """One product form ``coeff * alpha^m * beta^|n| * vec``: a block row."""

    index: int
    alpha: complex
    beta: complex
    coeff: complex
    vec: np.ndarray


@dataclass(frozen=True)
class Block:
    """One tree level of one kind: ``k`` terms as arrays, ``vec`` of shape (k, s)."""

    index: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    coeff: np.ndarray
    vec: np.ndarray

    @classmethod
    def of(cls, terms: list[Term], s: int) -> Block:
        """Stack ``terms``; an empty level still has ``vec`` of shape (0, s)."""
        return cls(
            index=np.array([t.index for t in terms], dtype=int),
            alpha=np.array([t.alpha for t in terms], dtype=complex),
            beta=np.array([t.beta for t in terms], dtype=complex),
            coeff=np.array([t.coeff for t in terms], dtype=complex),
            vec=np.array([t.vec for t in terms], dtype=complex).reshape(-1, s),
        )

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i: int) -> Term:
        """Row ``i`` with Python scalars, the types the repair steps compute in."""
        return Term(
            int(self.index[i]),
            complex(self.alpha[i]),
            complex(self.beta[i]),
            complex(self.coeff[i]),
            self.vec[i],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def value(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Sum of the block's terms at each state ``(m[i], n[i])``, shape (k, s).

        Powers take Python-int exponents (an integer-array exponent rounds
        differently) and each row is its own vector-matrix product, so a
        state's value does not depend on the other states evaluated with it.
        """
        ms, m_at = np.unique(m, return_inverse=True)
        ns, n_at = np.unique(np.abs(n), return_inverse=True)
        apow = np.array([self.alpha ** int(e) for e in ms])
        bpow = np.array([self.beta ** int(e) for e in ns])
        out = np.empty((len(m), self.vec.shape[1]), dtype=complex)
        for i in range(0, len(m), VALUE_ROWS):
            at = slice(i, i + VALUE_ROWS)
            w = self.coeff * apow[m_at[at]] * bpow[n_at[at]]
            out[at] = np.matmul(w[:, None, :], self.vec)[:, 0, :]
        return out


@dataclass
class Bundle:
    """Output of one horizontal step: s upper terms, one lower, one h-vector."""

    pos: list[Term]
    neg: Term
    h: Term


def initial_solution(p: ModelParams, rm: RateMatrices | None = None) -> Bundle:
    """Level-0 triple with ``alpha = rho^(1+s)``.

    The lower-quadrant coefficient is fixed to 1 (any nonzero choice only
    rescales the final normalization constant).  The s upper coefficients
    solve a dense s x s system; the horizontal vector follows by a direct
    solve.  The result satisfies the interior equations of both quadrants and
    all three horizontal families.
    """
    if rm is None:
        rm = build_rate_matrices(p)
    s = p.s
    alpha = p.rho ** (1 + s)
    roots = betas_pos(alpha, p)
    bneg = beta_neg(alpha, p)
    ipos = [eigvec_pos(alpha, r.value, p) for r in roots]
    ineg = eigvec_neg(alpha, bneg, p)

    G = rm.A_01 + alpha * rm.A_m11
    M1 = rm.A_1m1 + alpha * rm.A_0m1
    M2 = rm.B_11 + alpha * rm.B_01

    cols = np.empty((s, s), dtype=complex)
    for j, vec in enumerate(ipos):
        cols[:, j] = roots[j].value * (M1 @ vec) + alpha**2 * (
            rm.B_00 @ np.linalg.solve(G, vec)
        )
    rhs = -bneg * (M2 @ ineg)
    # eigenvector entries grade like alpha^(r/s); undo that row by row
    grade = abs(alpha) ** (-np.arange(s) / s)
    c_hat = solve_checked(
        cols * grade[:, None], rhs * grade, "initial coefficient system"
    )
    h = alpha * np.linalg.solve(G, sum(c * v for c, v in zip(c_hat, ipos)))
    x = np.concatenate([h, c_hat, [1.0]])
    return _bundle_from_solution(1, complex(alpha), x, roots, bneg, ipos, ineg, s)


def vertical_step_pos(t: Term, p: ModelParams) -> Term:
    """Partner term so the two-term sum satisfies the upper vertical equations.

    The partner alpha is the second root of the same branch quadratic (inside
    ``|beta|``), sharing the eigenvector; the coefficient is
    ``-c * (1 - (beta/alpha)(1+s)rho) / (1 - (beta/alpha')(1+s)rho)``.
    """
    b = (1 + p.s) * p.rho
    alpha1 = partner_alpha_pos(t.alpha, t.beta, p)
    denom = 1 - (t.beta / alpha1) * b
    if denom == 0:
        raise ZeroDivisionError("vertical coefficient denominator vanished")
    coeff = -t.coeff * (1 - (t.beta / t.alpha) * b) / denom
    return Term(t.index, alpha1, t.beta, coeff, t.vec)


def vertical_step_neg(t: Term, p: ModelParams) -> Term:
    """Partner term so the two-term sum satisfies the lower vertical equations."""
    s = p.s
    b = (1 + s) * p.rho
    alpha1 = alpha_neg(t.beta, p)
    vec1 = eigvec_neg(alpha1, t.beta, p)
    denom = s - (t.beta / alpha1) * b * vec1[s - 1]
    if denom == 0:
        raise ZeroDivisionError("vertical coefficient denominator vanished")
    coeff = -t.coeff * (s - (t.beta / t.alpha) * b * t.vec[s - 1]) / denom
    return Term(t.index, alpha1, t.beta, coeff, vec1)


def _bundle_from_solution(
    index: int,
    alpha: complex,
    x: np.ndarray,
    roots,
    bneg: complex,
    ipos: list[np.ndarray],
    ineg: np.ndarray,
    s: int,
) -> Bundle:
    """Children of node ``index`` from ``x = (h, c_1..c_s, c_{s+1})``."""
    d = (index - 1) * (s + 1)
    pos = [
        Term(d + r.branch, alpha, r.value, complex(c), v)
        for r, c, v in zip(roots, x[s : 2 * s], ipos)
    ]
    neg = Term(index * (s + 1), alpha, bneg, complex(x[2 * s]), ineg)
    h = Term(index, alpha, 1 + 0j, 1 + 0j, x[0:s])
    return Bundle(pos=pos, neg=neg, h=h)


def horizontal_repair(
    terms: Sequence[Term],
    upper: Sequence[bool],
    p: ModelParams,
    rm: RateMatrices | None = None,
) -> list[Bundle]:
    """Repair bundles for vertical terms, upper ones where ``upper`` is true.

    Each bundle shares its term's alpha with the s + 1 in-disk betas of the
    two kernels; its coefficients and h-vector solve the ``(2s+1) x (2s+1)``
    system with unknowns ``h(0..s-1), c_1..c_s, c_{s+1}``.  Rows: the s
    equations of the ``n = 1`` family, the s of the ``n = 0`` family, and the
    one surviving tie-breaking equation of the ``n = -1`` family
    ``alpha*s*h(0) + (1+s)*rho*q*h(s-1) - alpha*s*c_{s+1} = rhs``.  An upper
    term is a source on the ``n = 1, 0`` rows, a lower one on ``n = 0, -1``.

    The systems are solved under their natural grading: in the deep-tree
    limit the h entries shrink like ``|alpha|^((r+1)/s)`` and each row
    carries ``|alpha|^(r/s + 1)`` (``|alpha|`` for the tie row); dividing
    these out turns each system into a perturbation of the well-conditioned
    limit system, so the condition check measures genuine rank loss instead
    of the grading.  All terms share one stacked root and solve call.
    """
    if rm is None:
        rm = build_rate_matrices(p)
    s = p.s
    lam = p.arrival_rate
    n = 2 * s + 1
    alphas = np.array([t.alpha for t in terms], dtype=complex)
    roots_of = betas_pos(alphas, p)
    bneg_of = beta_neg(alphas, p)
    A = np.zeros((len(terms), n, n), dtype=complex)
    rhs = np.zeros((len(terms), n), dtype=complex)
    row_scale = np.empty((len(terms), n))
    col_scale = np.empty((len(terms), n))
    r = np.arange(s)
    modes = []
    for i, (t, up, roots, bneg) in enumerate(zip(terms, upper, roots_of, bneg_of)):
        alpha = t.alpha
        ipos = [eigvec_pos(alpha, root.value, p) for root in roots]
        ineg = eigvec_neg(alpha, bneg, p)
        modes.append((ipos, ineg))
        G = rm.A_01 + alpha * rm.A_m11
        M1 = rm.A_1m1 + alpha * rm.A_0m1
        M2 = rm.B_11 + alpha * rm.B_01
        a = A[i]
        a[0:s, 0:s] = G
        for j in range(s):
            a[0:s, s + j] = -alpha * ipos[j]
            a[s : 2 * s, s + j] = roots[j].value * (M1 @ ipos[j])
        a[s : 2 * s, 0:s] = alpha * rm.B_00
        a[s : 2 * s, 2 * s] = bneg * (M2 @ ineg)
        a[2 * s, 0] += alpha * s
        a[2 * s, s - 1] += lam * p.q
        a[2 * s, 2 * s] += -alpha * s
        if up:
            rhs[i, 0:s] = t.coeff * alpha * t.vec
            rhs[i, s : 2 * s] = -t.coeff * t.beta * (M1 @ t.vec)
        else:
            rhs[i, s : 2 * s] = -t.coeff * t.beta * (M2 @ t.vec)
            rhs[i, 2 * s] = t.coeff * alpha * s
        aa = abs(alpha)
        row = aa ** (-r / s - 1)
        row_scale[i] = np.concatenate([row, row, [1 / aa]])
        col_scale[i] = np.concatenate([aa ** ((r + 1) / s), np.ones(s + 1)])
    scaled = A * row_scale[:, :, None] * col_scale[:, None, :]
    x = solve_checked(scaled, rhs * row_scale, "horizontal repair system") * col_scale
    return [
        _bundle_from_solution(t.index, t.alpha, xi, roots, bneg, ipos, ineg, s)
        for t, xi, roots, bneg, (ipos, ineg) in zip(terms, x, roots_of, bneg_of, modes)
    ]


class TermTree:
    """All compensation terms built so far, one :class:`Block` per level.

    ``passes`` counts completed repair passes: pass 0 is the initial triple,
    odd passes are vertical, even passes horizontal.  After ``L`` passes the
    tree holds horizontal levels ``0..L//2`` (coefficients + h-vectors) and
    vertical levels ``1..(L+1)//2`` (``tilde_*[0]`` is empty).  Levels are
    append-only; sibling nodes are independent given their parent.
    """

    def __init__(self, p: ModelParams):
        self.params = p
        self.rm = build_rate_matrices(p)
        bundle = initial_solution(p, self.rm)
        s = p.s
        self.hat_pos: list[Block] = [Block.of(bundle.pos, s)]
        self.hat_neg: list[Block] = [Block.of([bundle.neg], s)]
        self.h_vecs: list[Block] = [Block.of([bundle.h], s)]
        self.tilde_pos: list[Block] = [Block.of([], s)]
        self.tilde_neg: list[Block] = [Block.of([], s)]
        self.passes = 0
        self.pruned = 0

    def _pruned_block(self, terms: list[Term]) -> Block:
        """Block of ``terms`` without those below the prune floor (counted)."""
        kept = [t for t in terms if not abs(t.coeff) * abs(t.beta) < PRUNE_FLOOR]
        self.pruned += len(terms) - len(kept)
        return Block.of(kept, self.params.s)

    @staticmethod
    def _step(fn, level: int, term: Term, *args):
        """Run one repair step, tagging failures with the tree position."""
        try:
            return fn(term, *args)
        except SedqError as exc:
            raise type(exc)(f"level {level}, node {term.index}: {exc}") from exc

    def _repair_level(self, level: int) -> list[Bundle]:
        """Horizontal bundles for every vertical term of ``level``.

        Upper terms first, then lower, :data:`REPAIR_CHUNK` at a time.  A
        chunk that fails is re-run one node at a time, so the error names the
        first failing node.
        """
        p = self.params
        pos, neg = self.tilde_pos[level], self.tilde_neg[level]
        terms = [*pos, *neg]
        upper = [True] * len(pos) + [False] * len(neg)
        bundles: list[Bundle] = []
        for i in range(0, len(terms), REPAIR_CHUNK):
            chunk = slice(i, i + REPAIR_CHUNK)
            try:
                bundles += horizontal_repair(terms[chunk], upper[chunk], p, self.rm)
            except SedqError:
                bundles += [
                    self._step(_repair_one, level, t, up, p, self.rm)
                    for t, up in zip(terms[chunk], upper[chunk])
                ]
        return bundles

    def ensure_passes(self, L: int) -> None:
        """Grow the tree until ``L`` repair passes are complete."""
        p = self.params
        while self.passes < L:
            k = self.passes + 1
            if k % 2 == 1:
                parent = k // 2
                new_pos = [
                    self._step(vertical_step_pos, parent, t, p)
                    for t in self.hat_pos[parent]
                ]
                new_neg = [
                    self._step(vertical_step_neg, parent, t, p)
                    for t in self.hat_neg[parent]
                ]
                self.tilde_pos.append(self._pruned_block(new_pos))
                self.tilde_neg.append(self._pruned_block(new_neg))
            else:
                level = k // 2
                bundles = self._repair_level(level)
                self.hat_pos.append(
                    self._pruned_block([t for b in bundles for t in b.pos])
                )
                self.hat_neg.append(self._pruned_block([b.neg for b in bundles]))
                self.h_vecs.append(Block.of([b.h for b in bundles], p.s))
            self.passes = k

    def max_abs_alpha(self, level: int) -> float:
        """Largest |alpha| over the level (level 0: the initial alpha)."""
        if level == 0:
            return abs(self.hat_pos[0][0].alpha)
        pos, neg = self.tilde_pos[level], self.tilde_neg[level]
        return float(np.abs(np.concatenate([pos.alpha, neg.alpha])).max())

    def max_abs_beta(self, level: int) -> float:
        """Largest |beta| over the horizontal terms of the level."""
        pos, neg = self.hat_pos[level], self.hat_neg[level]
        return float(np.abs(np.concatenate([pos.beta, neg.beta])).max())


def _repair_one(t: Term, up: bool, p: ModelParams, rm: RateMatrices) -> Bundle:
    """One term's bundle: the node-by-node re-run of a failed chunk."""
    return horizontal_repair([t], [up], p, rm)[0]


def grow_tree(p: ModelParams, L: int) -> TermTree:
    """Tree with ``L`` completed repair passes (``L = 0``: initial triple only)."""
    tree = TermTree(p)
    tree.ensure_passes(L)
    return tree


def serialize_tree(tree: TermTree) -> str:
    """One CSV record per term: kind, level, index, complex parts, vector.

    Horizontal-vector records (kind ``h``) leave the beta and coefficient
    columns empty and carry the h entries in the vector columns.
    """
    buf = io.StringIO()
    s = tree.params.s
    vec_cols = ",".join(f"vec{r}_re,vec{r}_im" for r in range(s))
    buf.write(
        "kind,level,index,alpha_re,alpha_im,beta_re,beta_im,"
        f"coeff_re,coeff_im,{vec_cols}\n"
    )

    def cplx(*zs) -> str:
        return ",".join(f"{z.real:.17g},{z.imag:.17g}" for z in zs)

    for kind in ("hat_pos", "hat_neg", "tilde_pos", "tilde_neg", "h_vecs"):
        for level, block in enumerate(getattr(tree, kind)):
            for t in block:
                if kind == "h_vecs":
                    head = f"h,{level},{t.index},{cplx(t.alpha)},,,,"
                else:
                    parts = cplx(t.alpha, t.beta, t.coeff)
                    head = f"{kind},{level},{t.index},{parts}"
                buf.write(f"{head},{cplx(*t.vec)}\n")
    return buf.getvalue()
