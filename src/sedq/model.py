"""Model definition for the two-server shortest-expected-delay (SED) queue.

Two exponential servers with rates 1 and ``s`` (``s`` a positive integer) each
serve their own FCFS queue.  Poisson arrivals of rate ``lambda = rho * (1+s)``
join the queue with the smaller expected delay: queue 1 promises ``q1 + 1``,
queue 2 promises ``(q2 + 1) / s``; ties go to queue 1 with probability ``q``.
The system is stable iff ``rho < 1``.

Internally the chain is described on states ``(m, n, r)`` where queue 2 is
counted in groups of ``s`` customers (``j = q2 // s`` groups, ``r = q2 % s``
remainder), ``m = min(q1, j)`` and ``n = j - q1``.  On that half-plane the
walk is homogeneous within each quadrant and its transition rates organize
into ten ``s x s`` blocks: ``A_{x,y}`` for the upper quadrant (``n > 0``) and
``B_{x,y}`` for the lower (``n < 0``), with ``(x, y)`` the step in ``(m, n)``.

This module owns parameter validation, the bijection between ``(q1, q2)`` and
``(m, n, r)``, construction of the rate blocks, and the balance equations.
Those are one table: ``FAMILY_OF`` maps ``(m == 0, clip(n, -2, 2))`` to one
of ten families, and ``STENCILS`` maps each family to its relative
``(dm, dn, block)`` entries.  :func:`equation_stencil` and
:func:`balance_residual` read one state's equation from it; the solver reads
whole families (:func:`family_stencil`) to assemble ``T_M`` and to check a
triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParam, MissingNeighbor, UnstableSystem

__all__ = [
    "ModelParams",
    "QueueState",
    "InternalState",
    "RateMatrices",
    "validate_params",
    "to_internal",
    "from_internal",
    "build_rate_matrices",
    "FAMILY_OF",
    "STENCILS",
    "equation_family",
    "family_stencil",
    "equation_stencil",
    "balance_residual",
]


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter triple of the SED system.

    Attributes:
        s: service rate of the fast server (slow server has rate 1).
        rho: utilization, ``lambda / (1 + s)``, strictly inside (0, 1).
        q: probability that a tie-breaking arrival joins queue 1.
    """

    s: int
    rho: float
    q: float

    @property
    def arrival_rate(self) -> float:
        """Total arrival rate ``lambda = rho * (1 + s)`` (derived, not stored)."""
        return self.rho * (1 + self.s)


def validate_params(s: int, rho: float, q: float) -> ModelParams:
    """Validate ``(s, rho, q)`` and return an immutable :class:`ModelParams`.

    Raises:
        UnstableSystem: if ``rho >= 1`` (offered load at or above capacity).
        InvalidParam: if ``s`` is not a positive integer or ``s**s`` (a
            factor of the kernel determinants) exceeds the float range,
            ``rho <= 0`` or NaN, or ``q`` lies outside ``[0, 1]``.
    """
    if isinstance(s, float):
        if not s.is_integer():
            raise InvalidParam(f"s must be a positive integer, got {s}")
        s = int(s)
    if not isinstance(s, (int, np.integer)) or s < 1:
        raise InvalidParam(f"s must be a positive integer, got {s!r}")
    if s * math.log(s) > math.log(np.finfo(float).max):
        raise InvalidParam(f"s = {s} is too large: s**s exceeds the float range")
    rho = float(rho)
    q = float(q)
    if rho >= 1.0:
        raise UnstableSystem(
            f"system unstable: rho = {rho} but stability requires rho < 1"
        )
    if not rho > 0.0:
        raise InvalidParam(f"rho must lie in (0, 1), got {rho}")
    if not 0.0 <= q <= 1.0:
        raise InvalidParam(f"q must lie in [0, 1], got {q}")
    return ModelParams(s=int(s), rho=rho, q=q)


class QueueState(NamedTuple):
    """Queue lengths including customers in service."""

    q1: int
    q2: int


class InternalState(NamedTuple):
    """Group-counted state: shortest group count, group difference, remainder."""

    m: int
    n: int
    r: int


def _ints(*xs):
    """Python ints for scalar input (hashable, JSON-ready); arrays pass through."""
    return tuple(x if np.ndim(x) else int(x) for x in xs)


def to_internal(st: QueueState, s: int) -> InternalState:
    """Map queue lengths (ints or integer arrays) to the group-counted state.

    ``j = q2 // s`` groups in queue 2, ``m = min(q1, j)``, ``n = j - q1`` and
    ``r = q2 % s`` ungrouped customers.
    """
    q1, q2 = st
    j, r = divmod(q2, s)
    return InternalState(*_ints(np.minimum(q1, j), j - q1, r))


def from_internal(st: InternalState, s: int) -> QueueState:
    """Inverse of :func:`to_internal`, for ints or integer arrays alike.

    For ``n >= 0`` the shorter side is queue 1 (``q1 = m``, ``j = m + n``);
    for ``n < 0`` it is queue 2 (``j = m``, ``q1 = m - n``).
    """
    m, n, r = st
    q1 = m + np.maximum(-n, 0)
    j = m + np.maximum(n, 0)
    return QueueState(*_ints(q1, j * s + r))


@dataclass(frozen=True)
class RateMatrices:
    """The ten ``s x s`` transition-rate blocks of the half-plane walk.

    ``A`` blocks act in the upper quadrant, ``B`` blocks in the lower; the
    suffix encodes the step, with ``m1`` standing for ``-1`` (so ``A_1m1`` is
    the block for a ``(+1, -1)`` step).  ``A_00``/``B_00`` carry the negative
    diagonal (total outflow) plus the within-cell remainder transitions.
    """

    A_1m1: np.ndarray
    A_01: np.ndarray
    A_m11: np.ndarray
    A_0m1: np.ndarray
    A_00: np.ndarray
    B_11: np.ndarray
    B_01: np.ndarray
    B_0m1: np.ndarray
    B_m1m1: np.ndarray
    B_00: np.ndarray


def _unit_matrix(s: int, x: int, y: int) -> np.ndarray:
    out = np.zeros((s, s))
    out[x, y] = 1.0
    return out


def build_rate_matrices(p: ModelParams) -> RateMatrices:
    """Assemble all ten rate blocks for the given parameters.

    Row sums of ``A_00 + A_1m1 + A_m11 + A_0m1`` and of
    ``B_00 + B_11 + B_01 + B_m1m1`` vanish (rate conservation).
    """
    s, rho, q = p.s, p.rho, p.q
    lam = p.arrival_rate
    eye = np.eye(s)
    sub = np.diag(np.ones(s - 1), -1) if s > 1 else np.zeros((s, s))

    A_00 = -(1 + s) * (rho + 1) * eye + s * sub.T
    rm = RateMatrices(
        A_1m1=lam * eye,
        A_01=lam * (1 - q) * _unit_matrix(s, 0, s - 1),
        A_m11=eye.copy(),
        A_0m1=s * _unit_matrix(s, s - 1, 0),
        A_00=A_00,
        B_11=lam * _unit_matrix(s, 0, s - 1),
        B_01=eye.copy(),
        B_0m1=lam * q * _unit_matrix(s, s - 1, s - 1),
        B_m1m1=s * _unit_matrix(s, s - 1, 0),
        B_00=A_00 + lam * sub,
    )
    for block in vars(rm).values():
        block.flags.writeable = False
    return rm


# The ten balance-equation families.  A state's family depends only on
# ``(m == 0, clip(n, -2, 2))``; its equation is a fixed stencil of relative
# ``(dm, dn, block)`` entries, the state's own block (with the outflow
# diagonal) first.  ``I`` and ``C`` in a block name add the identity and the
# corner ``s * e_0 e_0^T`` that the ``m = 0`` boundary contributes.

FAMILY_OF = {
    (False, 2): "I+", (False, 1): "H+", (False, 0): "H", (False, -1): "H-",
    (False, -2): "I-", (True, 2): "V+", (True, 1): "O+", (True, 0): "O0",
    (True, -1): "O-", (True, -2): "V-",
}

STENCILS = {
    "I+": ((0, 0, "A_00"), (-1, 1, "A_1m1"), (0, 1, "A_0m1"), (1, -1, "A_m11")),
    "I-": ((0, 0, "B_00"), (-1, -1, "B_11"), (0, -1, "B_01"), (1, 1, "B_m1m1")),
    "H+": ((0, 0, "A_00"), (-1, 1, "A_1m1"), (0, 1, "A_0m1"), (1, -1, "A_m11"),
           (0, -1, "A_01")),
    "H-": ((0, 0, "B_00"), (-1, -1, "B_11"), (0, -1, "B_01"), (1, 1, "B_m1m1"),
           (0, 1, "B_0m1")),
    "H": ((0, 0, "B_00"), (-1, 1, "A_1m1"), (-1, -1, "B_11"), (0, 1, "A_0m1"),
          (0, -1, "B_01")),
    "V+": ((0, 0, "A_00+I"), (0, 1, "A_0m1"), (1, -1, "A_m11")),
    "V-": ((0, 0, "B_00+C"), (0, -1, "B_01"), (1, 1, "B_m1m1")),
    "O+": ((0, 0, "A_00+I"), (0, 1, "A_0m1"), (1, -1, "A_m11"), (0, -1, "A_01")),
    "O-": ((0, 0, "B_00+C"), (0, -1, "B_01"), (1, 1, "B_m1m1"), (0, 1, "B_0m1")),
    "O0": ((0, 0, "B_00+I+C"), (0, 1, "A_0m1"), (0, -1, "B_01")),
}


def equation_family(m: int, n: int) -> str:
    """Name of the balance-equation family governing state ``(m, n)``."""
    if m < 0:
        raise InvalidParam(f"state ({m}, {n}) outside the half-plane")
    return FAMILY_OF[(bool(m == 0), int(max(-2, min(2, n))))]


def family_stencil(
    rm: RateMatrices, s: int, fam: str
) -> list[tuple[int, int, np.ndarray]]:
    """Stencil of family ``fam`` as ``[(dm, dn, coefficient block), ...]``."""
    out = []
    for dm, dn, name in STENCILS[fam]:
        base, *extras = name.split("+")
        block = getattr(rm, base)
        for extra in extras:
            block = block + (np.eye(s) if extra == "I" else s * _unit_matrix(s, 0, 0))
        out.append((dm, dn, block))
    return out


def equation_stencil(
    rm: RateMatrices, s: int, m: int, n: int
) -> list[tuple[int, int, np.ndarray]]:
    """Balance equation at ``(m, n)`` as ``[(m', n', coefficient block), ...]``.

    The equation reads ``sum_k block_k @ p(m_k, n_k) = 0``; the first entry is
    always the state's own block (containing the outflow diagonal).
    """
    return [
        (m + dm, n + dn, block)
        for dm, dn, block in family_stencil(rm, s, equation_family(m, n))
    ]


ProbFn = Callable[[int, int], np.ndarray]


def balance_residual(
    p: ModelParams,
    prob: ProbFn,
    st: InternalState | tuple[int, int, int] | tuple[int, int],
    rm: RateMatrices | None = None,
) -> np.ndarray:
    """Residual of the balance equation governing ``st``.

    ``prob`` maps ``(m, n)`` to the length-``s`` probability vector of that
    cell.  The residual is the left-hand side of the equation selected by
    ``(m, n)`` and vanishes at an exact stationary solution.

    Raises:
        MissingNeighbor: if ``prob`` raises ``KeyError`` or returns ``None``
            for a state the equation touches.
    """
    if rm is None:
        rm = build_rate_matrices(p)
    m, n = st[0], st[1]
    res = np.zeros(p.s, dtype=complex)
    for mm, nn, block in equation_stencil(rm, p.s, m, n):
        try:
            vec = prob(mm, nn)
        except KeyError as exc:
            raise MissingNeighbor(f"no probability for state ({mm}, {nn})") from exc
        if vec is None:
            raise MissingNeighbor(f"no probability for state ({mm}, {nn})")
        res += block @ np.asarray(vec)
    if np.all(np.isreal(res)):
        return res.real
    return res
