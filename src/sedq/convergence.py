"""Limiting behavior of deep tree levels and the convergence index N.

As the tree deepens, every alpha and beta shrinks to zero and all node-level
ratios approach constants: the in-disk root ratios ``beta/alpha`` and
``alpha/beta`` tend to the roots of two real quadratics,

    v^2*(1+s)*rho - v*(1+s)*(rho+1) + 1 = 0          (upper kernel)
    w^2*((1+s)*rho)^s - w*s^s*(fp0^s + fm0^s) + s^s = 0   (lower kernel)

with ``fp0, fm0 = f_pm(0)``, and the coefficient ratios of consecutive terms
approach closed forms (vertical steps, lower-quadrant children) or max-abs
bounds obtained from small dense limit systems (horizontal children).

Bounding a term by its ancestor through these constants gives three
``(s+1) x (s+1)`` nonnegative ratio matrices whose entries decay
geometrically in ``m + |n|``; the series converges absolutely wherever their
spectral radii drop below one.  ``compute_N`` returns the minimal index N
such that this holds for all ``m + |n| > N`` (and for the ``n = 0`` series at
``m >= N``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._linalg import solve_checked
from .errors import InvalidParam, SearchExhausted
from .kernel import f_pm, roots_of_unity, v_ratio_roots, w_ratio_roots
from .model import ModelParams

__all__ = [
    "LimitConstants",
    "limit_roots",
    "limit_coeffs",
    "ratio_matrix",
    "spectral_radius",
    "compute_N",
]


@dataclass(frozen=True)
class LimitConstants:
    """Limit ratios feeding the convergence matrices.

    ``v``/``w`` are the quadratic roots above (``x_minus < 1 < x_plus``),
    ``f0_*`` the geometric modes at beta = 0.  The ``K_*`` constants are the
    limiting coefficient ratios: ``cv`` for vertical repairs, ``chs1`` for the
    lower-quadrant child of a horizontal repair, ``ch`` for the max-abs bound
    on its upper-quadrant children; ``pos``/``neg`` refers to the quadrant of
    the parent term.
    """

    s: int
    v_minus: float
    v_plus: float
    w_minus: float
    w_plus: float
    f0_minus: float
    f0_plus: float
    K_pos_cv: complex
    K_neg_cv: complex
    K_pos_ch: float
    K_neg_ch: float
    K_pos_chs1: complex
    K_neg_chs1: complex


def limit_roots(
    p: ModelParams,
) -> tuple[float, float, float, float, float, float]:
    """``(v_minus, v_plus, w_minus, w_plus, f0_minus, f0_plus)``.

    Both discriminants are positive for rho in (0, 1); Vieta gives
    ``v_plus*v_minus = 1/((1+s)*rho)`` and ``w_minus*f0_plus^s = 1``.
    """
    v_minus, v_plus = v_ratio_roots(p)
    w_minus, w_plus = w_ratio_roots(p)
    fp0, fm0 = f_pm(0.0, p)
    return v_minus, v_plus, w_minus, w_plus, fm0.real, fp0.real


def _limit_system_matrix(p: ModelParams, v_minus: float) -> np.ndarray:
    """The 2s x 2s block matrix shared by both horizontal limit systems."""
    s = p.s
    units = roots_of_unity(s)
    r = np.arange(s)[:, None]
    W = (v_minus ** (r / s)) * units[None, :] ** r
    sub = np.diag(np.ones(s - 1), -1) if s > 1 else np.zeros((s, s))
    corner = np.zeros((s, s))
    corner[0, s - 1] = 1.0
    A = np.zeros((2 * s, 2 * s), dtype=complex)
    A[0:s, 0:s] = v_minus * W
    A[0:s, s:] = sub
    A[s:, 0:s] = -W
    A[s:, s:] = p.arrival_rate * (1 - p.q) * corner
    return A


@lru_cache(maxsize=128)
def limit_coeffs(p: ModelParams) -> LimitConstants:
    """All limit constants for ``p`` (cached); :class:`InvalidParam` on overflow."""
    s = p.s
    b = (1 + s) * p.rho
    v_minus, v_plus, w_minus, w_plus, f0m, f0p = limit_roots(p)

    K_pos_cv = -(1 - v_minus * b) / (1 - v_plus * b)
    K_neg_cv = -(s - w_minus * b * f0p ** (s - 1)) / (
        s - w_plus * b * f0m ** (s - 1)
    )
    if p.q == 0:
        # tie mass never joins queue 1; the tie term dominates both ratios
        K_pos_chs1 = 0.0 + 0.0j
        K_neg_chs1 = -1.0 + 0.0j
    else:
        tie = v_minus * s * (1 - p.q) / p.q
        K_pos_chs1 = (v_minus - v_plus) / (tie + w_minus * f0p ** (s - 1))
        K_neg_chs1 = -(tie + w_plus * f0m ** (s - 1)) / (
            tie + w_minus * f0p ** (s - 1)
        )

    # the closed forms, checked before the limit system that they feed
    closed = dict(
        v_minus=float(v_minus),
        v_plus=float(v_plus),
        w_minus=float(w_minus),
        w_plus=float(w_plus),
        f0_minus=float(f0m),
        f0_plus=float(f0p),
        K_pos_cv=complex(K_pos_cv),
        K_neg_cv=complex(K_neg_cv),
        K_pos_chs1=complex(K_pos_chs1),
        K_neg_chs1=complex(K_neg_chs1),
    )
    _check_finite(p, closed)

    # row j < s: the upper children of branch j + 1; row s: the lower child
    units = roots_of_unity(s)
    r = np.arange(s)
    w = (v_plus ** (r / s)) * units[:, None] ** r
    rhs = np.zeros((s + 1, 2 * s), dtype=complex)
    rhs[:s, :s] = -v_plus * w
    rhs[:s, 0] -= K_pos_chs1 * w_minus * f0p ** (s - 1)
    rhs[:s, s:] = w
    rhs[s, 0] = -(w_plus * f0m ** (s - 1) + K_neg_chs1 * w_minus * f0p ** (s - 1))
    A = np.broadcast_to(_limit_system_matrix(p, v_minus), (s + 1, 2 * s, 2 * s))
    coeffs = np.abs(solve_checked(A, rhs, "horizontal limit system")[:, :s])
    ch = dict(K_pos_ch=float(np.max(coeffs[:s])), K_neg_ch=float(np.max(coeffs[s])))
    _check_finite(p, ch)
    return LimitConstants(s=s, **closed, **ch)


def _check_finite(p: ModelParams, constants: dict) -> None:
    """:class:`InvalidParam` naming the first non-finite of ``constants``."""
    bad = [name for name, val in constants.items() if not np.isfinite(val)]
    if bad:
        raise InvalidParam(f"s = {p.s} is too large at rho = {p.rho}: the limit "
                           f"constant {bad[0]} overflows the float range")


def ratio_matrix(kind: str, m: int, n: int, c: LimitConstants) -> np.ndarray:
    """Limiting term-ratio matrix ``R1``, ``R2`` or ``R3`` at state ``(m, n)``.

    Row index = parent type (s upper branches then the lower child), column =
    child type.  Every entry is nonnegative and non-increasing in ``m`` and
    ``|n|``; ``R3(m)`` is ``R2(m, 0)``.
    """
    if kind not in ("R1", "R2", "R3"):
        raise ValueError(f"unknown ratio-matrix kind {kind!r}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if kind == "R3":
        return ratio_matrix("R2", m, 0, c)
    s = c.s
    nn = abs(n)
    ch_p, ch_n = c.K_pos_ch, c.K_neg_ch
    cv_p, cv_n = abs(c.K_pos_cv), abs(c.K_neg_cv)
    chs1_p, chs1_n = abs(c.K_pos_chs1), abs(c.K_neg_chs1)
    vm, vp, wm, wp = c.v_minus, c.v_plus, c.w_minus, c.w_plus

    R = np.empty((s + 1, s + 1))
    R[0:s, 0:s] = ch_p * cv_p * (vm / vp) ** (m + nn)
    R[s, s] = chs1_n * cv_n * (wm / wp) ** (m + nn)
    if kind == "R1":
        R[s, 0:s] = ch_n * cv_n * vm**nn * (wm / wp) ** m * (1 / wp) ** nn
        R[0:s, s] = chs1_p * cv_p * (vm / vp) ** m * (1 / vp) ** nn * wm**nn
    else:
        R[s, 0:s] = ch_n * cv_p * vm**nn * (vm / vp) ** m * (1 / wp) ** nn
        R[0:s, s] = chs1_p * cv_n * (1 / vp) ** nn * wm**nn * (wm / wp) ** m
    return R


def spectral_radius(mat: np.ndarray) -> float:
    """Largest eigenvalue modulus of a finite square matrix."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"need a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def compute_N(p: ModelParams, cap: int = 64) -> int:
    """Minimal N with all three ratio-matrix radii below one beyond it.

    Checks every split of the frontier ``m + |n| = N + 1`` (``|n| >= 1``) for
    ``R1``/``R2`` plus ``R3(N)``; entries only shrink further out, so the
    frontier check covers the whole region.
    """
    c = limit_coeffs(p)
    for N in range(cap + 1):
        if spectral_radius(ratio_matrix("R3", N, 0, c)) >= 1.0:
            continue
        k = N + 1
        ok = True
        for nn in range(1, k + 1):
            m = k - nn
            if (
                spectral_radius(ratio_matrix("R1", m, nn, c)) >= 1.0
                or spectral_radius(ratio_matrix("R2", m, nn, c)) >= 1.0
            ):
                ok = False
                break
        if ok:
            return N
    raise SearchExhausted(f"no convergence index found up to cap {cap}")
