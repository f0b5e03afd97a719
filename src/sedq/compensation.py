"""Compensation-term construction: initial triple and the (s+1)-ary tree.

The stationary distribution is assembled from product forms
``coeff * alpha^m * beta^|n| * vec`` added in alternating repair passes:

* A *horizontal pass* repairs the ``n in {-1, 0, 1}`` rows: each vertical
  term spawns ``s`` new upper forms, one lower form and a fresh horizontal
  vector, solved from a dense ``(2s+1) x (2s+1)`` system.  Level 0 solves
  the same system without a parent at ``alpha = rho^(1+s)``, closed by
  ``c_{s+1} = 1`` instead of the tie-breaking row, which holds there anyway.
* A *vertical pass* repairs the ``m = 0`` boundary: each upper form gains a
  partner with the same beta, the partner alpha being the second root of its
  branch quadratic (which shares the eigenvector); each lower form gains the
  unique in-disk partner of the negative kernel.  The two-term sums satisfy
  the vertical equations exactly.

Each vertical term therefore has ``s + 1`` children, giving an (s+1)-ary
tree.  Within level ``l`` the parent ``i`` owns child indices
``d(i)+1 .. d(i)+s`` (upper) and ``i*(s+1)`` (lower), ``d(i) = (i-1)*(s+1)``.

The tree stores every level of each kind (``hat_pos``, ``hat_neg``,
``tilde_pos``, ``tilde_neg``, ``h_vecs``) as one :class:`Block` of arrays;
an ``n = 0`` row vector is a block row with ``beta = coeff = 1``, so one
formula evaluates every block.  A vertical pass maps a level to its partner
level in one call per kind, and a horizontal pass repairs
:data:`REPAIR_CHUNK` vertical terms per call of :func:`horizontal_repair`,
with stacked root searches and one stacked solve.  Rows are independent, so
a step that fails is re-run one row at a time to name the failing node.
Moduli decrease strictly down the tree, so coefficients eventually
underflow; terms whose contribution falls below 1e-300 are pruned from their
level with a counter.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

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
    "Block",
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


@dataclass(frozen=True)
class Block:
    """``k`` product forms as arrays, ``vec`` of shape (k, s): a tree level."""

    index: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    coeff: np.ndarray
    vec: np.ndarray

    @classmethod
    def join(cls, blocks, s: int) -> Block:
        """The rows of ``blocks`` in order; no rows give ``vec`` of shape (0, s)."""
        z = np.zeros(0, dtype=complex)
        empty = cls(np.zeros(0, dtype=int), z, z, z, np.zeros((0, s), dtype=complex))
        columns = zip(*(b._columns() for b in [empty, *blocks]))
        return cls(*(np.concatenate(col) for col in columns))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.index, self.alpha, self.beta, self.coeff, self.vec

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows) -> Block:
        """The block of ``rows``: a slice, a boolean mask or an index array."""
        if not isinstance(rows, slice) and np.ndim(rows) == 0:
            raise TypeError("a Block takes a slice, mask or index array of rows")
        return Block(*(col[rows] for col in self._columns()))

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


def _couplings(alpha: np.ndarray, rm: RateMatrices):
    """``G, M1, M2`` at each ``alpha``: the h, upper and lower blocks of the rows."""
    a3 = alpha[:, None, None]
    return rm.A_01 + a3 * rm.A_m11, rm.A_1m1 + a3 * rm.A_0m1, rm.B_11 + a3 * rm.B_01


def _repair_children(index, alpha, last, rhs, p: ModelParams, rm: RateMatrices):
    """Upper, lower and h-vector children of nodes ``index`` at ``alpha`` (k,).

    The children share their node's alpha with the s + 1 in-disk betas of
    the two kernels; ``x = (h(0..s-1), c_1..c_s, c_{s+1})`` solves the
    ``(2s+1) x (2s+1)`` system of the s ``n = 1`` rows, the s ``n = 0`` rows
    and the closing row ``last`` (k, 2s+1), with right-hand sides ``rhs``.

    The systems are solved under their natural grading: in the deep-tree
    limit the h entries shrink like ``|alpha|^((r+1)/s)`` and each family
    row carries ``|alpha|^(r/s + 1)`` (``|alpha|`` for the closing row);
    dividing these out turns each system into a perturbation of the
    well-conditioned limit system, so the condition check measures genuine
    rank loss instead of the grading.  All nodes share one stacked root
    search and one stacked solve.
    """
    k, s = len(alpha), p.s
    a3 = alpha[:, None, None]
    betas = betas_pos(alpha, p)
    bneg = beta_neg(alpha, p)
    ipos = eigvec_pos(alpha[:, None], betas, p)  # (k, branch, entry)
    ineg = eigvec_neg(alpha, bneg, p)
    G, M1, M2 = _couplings(alpha, rm)
    cols = ipos.transpose(0, 2, 1)  # column j: the eigenvector of branch j + 1

    A = np.zeros((k, 2 * s + 1, 2 * s + 1), dtype=complex)
    A[:, 0:s, 0:s] = G
    A[:, 0:s, s : 2 * s] = -a3 * cols
    A[:, s : 2 * s, s : 2 * s] = betas[:, None, :] * (M1 @ cols)
    A[:, s : 2 * s, 0:s] = a3 * rm.B_00
    A[:, s : 2 * s, 2 * s] = bneg[:, None] * (M2 @ ineg[:, :, None])[:, :, 0]
    A[:, 2 * s] = last

    aa = np.abs(alpha)[:, None]
    r = np.arange(s)
    row = aa ** (-r / s - 1)
    row_scale = np.concatenate([row, row, 1 / aa], axis=1)
    col_scale = np.ones_like(row_scale)
    col_scale[:, :s] = aa ** ((r + 1) / s)
    scaled = A * row_scale[:, :, None] * col_scale[:, None, :]
    x = solve_checked(scaled, rhs * row_scale, "horizontal repair system") * col_scale

    # parent i owns the upper children d(i)+1 .. d(i)+s and the lower i*(s+1)
    d = (index - 1) * (s + 1)
    up_index = (d[:, None] + np.arange(1, s + 1)).ravel()
    pos = Block(up_index, np.repeat(alpha, s), betas.ravel(), x[:, s : 2 * s].ravel(),
                ipos.reshape(k * s, s))
    neg = Block(index * (s + 1), alpha, bneg, x[:, 2 * s], ineg)
    ones = np.ones(k, dtype=complex)
    return pos, neg, Block(index, alpha, ones, ones, x[:, :s])


def initial_solution(
    p: ModelParams, rm: RateMatrices | None = None
) -> tuple[Block, Block, Block]:
    """Level-0 triple with ``alpha = rho^(1+s)``: upper, lower and h-vector block.

    The ``n = 1`` and ``n = 0`` rows of a horizontal repair without a source,
    closed by ``c_{s+1} = 1`` (any nonzero lower coefficient only rescales the
    normalization).  At this alpha the tie-breaking ``n = -1`` row follows
    from the others, so the triple satisfies the interior equations of both
    quadrants and all three horizontal families.
    """
    if rm is None:
        rm = build_rate_matrices(p)
    unit = np.eye(2 * p.s + 1)[-1:]
    alpha = np.array([p.rho ** (1 + p.s)], dtype=complex)
    return _repair_children(np.array([1]), alpha, unit, unit, p, rm)


def vertical_step_pos(t: Block, p: ModelParams) -> Block:
    """Partner terms so each two-term sum satisfies the upper vertical equations.

    The partner alpha is the second root of the same branch quadratic (inside
    ``|beta|``), sharing the eigenvector; the coefficient is
    ``-c * (1 - (beta/alpha)(1+s)rho) / (1 - (beta/alpha')(1+s)rho)``.
    """
    b = (1 + p.s) * p.rho
    alpha1 = partner_alpha_pos(t.alpha, t.beta, p)
    denom = 1 - (t.beta / alpha1) * b
    if np.any(denom == 0):
        raise ZeroDivisionError("vertical coefficient denominator vanished")
    coeff = -t.coeff * (1 - (t.beta / t.alpha) * b) / denom
    return Block(t.index, alpha1, t.beta, coeff, t.vec)


def vertical_step_neg(t: Block, p: ModelParams) -> Block:
    """Partner terms so each two-term sum satisfies the lower vertical equations."""
    s = p.s
    b = (1 + s) * p.rho
    alpha1 = alpha_neg(t.beta, p)
    vec1 = eigvec_neg(alpha1, t.beta, p)
    denom = s - (t.beta / alpha1) * b * vec1[:, s - 1]
    if np.any(denom == 0):
        raise ZeroDivisionError("vertical coefficient denominator vanished")
    coeff = -t.coeff * (s - (t.beta / t.alpha) * b * t.vec[:, s - 1]) / denom
    return Block(t.index, alpha1, t.beta, coeff, vec1)


def horizontal_repair(
    terms: Block,
    upper: np.ndarray,
    p: ModelParams,
    rm: RateMatrices | None = None,
) -> tuple[Block, Block, Block]:
    """Children of vertical terms, upper ones where ``upper`` is true.

    Returns the upper, lower and h-vector blocks of :func:`_repair_children`,
    closed by the one surviving tie-breaking equation of the ``n = -1``
    family ``alpha*s*h(0) + (1+s)*rho*q*h(s-1) - alpha*s*c_{s+1} = rhs``.
    An upper term is a source on the ``n = 1, 0`` rows, a lower one on
    ``n = 0, -1``.
    """
    if rm is None:
        rm = build_rate_matrices(p)
    s = p.s
    alpha = terms.alpha
    tie = np.zeros((len(terms), 2 * s + 1), dtype=complex)
    tie[:, 0] += alpha * s
    tie[:, s - 1] += p.arrival_rate * p.q
    tie[:, 2 * s] += -alpha * s

    # an upper term is a source through M1, a lower one through M2
    _, M1, M2 = _couplings(alpha, rm)
    up = upper[:, None]
    coeff = terms.coeff[:, None]
    source = np.where(up[:, :, None], M1, M2) @ terms.vec[:, :, None]
    rhs = np.zeros_like(tie)
    rhs[:, 0:s] = np.where(up, coeff * alpha[:, None] * terms.vec, 0)
    rhs[:, s : 2 * s] = -(coeff * terms.beta[:, None]) * source[:, :, 0]
    rhs[:, 2 * s] = np.where(upper, 0, terms.coeff * alpha * s)
    return _repair_children(terms.index, alpha, tie, rhs, p, rm)


def _named(level: int, step, rows: tuple, *args):
    """``step(*rows, *args)``: a repair step on the rows of a tree level.

    ``rows`` are the row-aligned arguments, a :class:`Block` first.  A
    :class:`SedqError` is re-raised as ``level L, node i: ...`` for the first
    row that fails when run alone; the rows of a step are independent.
    """
    try:
        return step(*rows, *args)
    except SedqError:
        for i, node in enumerate(rows[0].index.tolist()):
            try:
                step(*(r[i : i + 1] for r in rows), *args)
            except SedqError as exc:
                raise type(exc)(f"level {level}, node {node}: {exc}") from exc
        raise


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
        pos, neg, h = initial_solution(p, self.rm)
        self.hat_pos: list[Block] = [pos]
        self.hat_neg: list[Block] = [neg]
        self.h_vecs: list[Block] = [h]
        self.tilde_pos: list[Block] = [Block.join([], p.s)]
        self.tilde_neg: list[Block] = [Block.join([], p.s)]
        self.passes = 0
        self.pruned = 0

    def _pruned(self, block: Block) -> Block:
        """``block`` without the rows below the prune floor (counted)."""
        low = np.abs(block.coeff) * np.abs(block.beta) < PRUNE_FLOOR
        self.pruned += int(np.count_nonzero(low))
        return block[~low]

    def _repair_level(self, level: int) -> list[Block]:
        """Upper, lower and h-vector children of every vertical term of ``level``.

        Upper terms first, then lower, :data:`REPAIR_CHUNK` at a time.
        """
        p = self.params
        pos, neg = self.tilde_pos[level], self.tilde_neg[level]
        terms = Block.join([pos, neg], p.s)
        upper = np.arange(len(terms)) < len(pos)
        parts = []
        for i in range(0, len(terms), REPAIR_CHUNK):
            at = slice(i, i + REPAIR_CHUNK)
            rows = (terms[at], upper[at])
            parts.append(_named(level, horizontal_repair, rows, p, self.rm))
        return [Block.join([part[j] for part in parts], p.s) for j in range(3)]

    def ensure_passes(self, L: int) -> None:
        """Grow the tree until ``L`` repair passes are complete."""
        p = self.params
        while self.passes < L:
            k = self.passes + 1
            level = k // 2
            if k % 2 == 1:
                new_pos = _named(level, vertical_step_pos, (self.hat_pos[level],), p)
                new_neg = _named(level, vertical_step_neg, (self.hat_neg[level],), p)
                self.tilde_pos.append(self._pruned(new_pos))
                self.tilde_neg.append(self._pruned(new_neg))
            else:
                pos, neg, h = self._repair_level(level)
                self.hat_pos.append(self._pruned(pos))
                self.hat_neg.append(self._pruned(neg))
                self.h_vecs.append(h)
            self.passes = k

    def max_abs_alpha(self, level: int) -> float:
        """Largest |alpha| over the level (level 0: the initial alpha)."""
        if level == 0:
            return float(abs(self.hat_pos[0].alpha[0]))
        pos, neg = self.tilde_pos[level], self.tilde_neg[level]
        return float(np.abs(np.concatenate([pos.alpha, neg.alpha])).max())

    def max_abs_beta(self, level: int) -> float:
        """Largest |beta| over the horizontal terms of the level."""
        pos, neg = self.hat_pos[level], self.hat_neg[level]
        return float(np.abs(np.concatenate([pos.beta, neg.beta])).max())


def grow_tree(p: ModelParams, L: int) -> TermTree:
    """Tree with ``L`` completed repair passes (``L = 0``: initial triple only)."""
    tree = TermTree(p)
    tree.ensure_passes(L)
    return tree


def serialize_tree(tree: TermTree) -> str:
    """One CSV record per term: kind, level, index, complex parts, vector.

    Horizontal-vector records (kind ``h``) leave the beta and coefficient
    columns empty and carry the h entries in the vector columns.  Each block
    is formatted by one template repeated once per row.
    """
    buf = io.StringIO()
    s = tree.params.s
    vec_cols = ",".join(f"vec{r}_re,vec{r}_im" for r in range(s))
    buf.write(
        "kind,level,index,alpha_re,alpha_im,beta_re,beta_im,"
        f"coeff_re,coeff_im,{vec_cols}\n"
    )
    pair = "%.17g,%.17g"
    for kind in ("hat_pos", "hat_neg", "tilde_pos", "tilde_neg", "h_vecs"):
        for level, block in enumerate(getattr(tree, kind)):
            if kind == "h_vecs":
                head, parts = f"h,{level},%d,{pair},,,,", [block.alpha]
            else:
                head = f"{kind},{level},%d,{pair},{pair},{pair}"
                parts = [block.alpha, block.beta, block.coeff]
            cplx = np.column_stack([*parts, block.vec])
            reim = np.stack([cplx.real, cplx.imag], axis=-1)  # re, im side by side
            reim = reim.reshape(len(cplx), 2 * cplx.shape[1])
            cols = np.column_stack([block.index, reim])
            line = head + "," + ",".join([pair] * s) + "\n"
            buf.write((line * len(block)) % tuple(cols.ravel().tolist()))
    return buf.getvalue()
