"""Kernel equations: determinants, in-disk roots, and eigenvectors.

A product form ``alpha^m beta^n v`` satisfies the interior balance equations
of the upper quadrant iff ``D+(alpha, beta) v = 0`` with

    D+(a, b) = a*b*A_00 + a*b^2*A_0m1 + a^2*A_m11 + b^2*A_1m1,

whose determinant collapses to the scalar equation

    (a*b*(1+s)*(rho+1) - b^2*(1+s)*rho - a^2)^s - b*(a*b*s)^s = 0.

Dividing by ``(a*b*s)^s`` and taking s-th roots splits it into ``s`` branch
equations ``(...)/(a*b*s) = u_i * b^(1/s)`` with ``u_i`` the s-th roots of
unity and ``b^(1/s)`` the principal root.  For each fixed ``|alpha| < 1``
every branch owns exactly one root ``beta`` inside the open disk of radius
``|alpha|``; those are the roots the initial triple and the horizontal
repair steps consume.  A vertical step keeps ``beta`` and needs one new
``alpha`` only: the second root of the branch quadratic in ``alpha``
(:func:`partner_alpha_pos`), or the in-disk root of the lower kernel
(:func:`alpha_neg`).  Branch labels for moving ``beta`` are anchored
through ``sigma = u_i * alpha^(1/s)`` (see :func:`_branch_residual_z`); the
one-root-per-branch property would not survive a naive principal-root
reading across the cut.

The lower quadrant has ``D-(a, b) = a*b*B_00 + a*b^2*B_01 + a^2*B_m1m1 +
b^2*B_11``.  Writing ``fp, fm`` for the two roots of ``s*x^2 +
(b - (1+s)(rho+1))*x + (1+s)*rho = 0``, its determinant reduces (by the
Waring power-sum identity) to

    a^2*s^s + b^2*((1+s)*rho)^s - a*b*W(b) = 0,   W(x) = s^s*(fp(x)^s + fm(x)^s),

which is polynomial in both variables and owns exactly one in-disk root on
each side.

Root finding follows one strategy throughout: rescale the unknown by the
fixed variable (so all interesting roots live in the unit disk) and run
complex Newton from the root's small-alpha limit.  As alpha shrinks the
in-disk ratios ``beta/alpha`` coalesce at ``v-`` (upper kernel,
:func:`v_ratio_roots`) and ``w-`` (lower kernel, :func:`w_ratio_roots`), so
that limit is the one start of each root.  The in-disk counts need no
contour: a Rouché identity proves the upper one for every ``|alpha| < 1``,
and a Schur-Cohn test checks the lower one.  Violations raise
:class:`~sedq.errors.RootCountMismatch` rather than being repaired silently.

Every function takes a scalar or an array through one numpy implementation.
:func:`betas_pos` and :func:`beta_neg` take a scalar alpha or a 1-D stack,
solved and checked by one masked Newton iteration over all its roots.  The
vertical roots and the eigenvectors broadcast their arguments.  Elementwise
arithmetic gives a scalar call the bits of its row in a stack.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateEigenvector, DegenerateQuadratic, RootCountMismatch
from .model import ModelParams, RateMatrices, build_rate_matrices

__all__ = [
    "det_pos",
    "det_neg",
    "branch_value_pos",
    "betas_pos",
    "partner_alpha_pos",
    "beta_neg",
    "alpha_neg",
    "f_pm",
    "eigvec_pos",
    "eigvec_neg",
    "kernel_matrix_pos",
    "kernel_matrix_neg",
    "v_ratio_roots",
    "w_ratio_roots",
]

#: residual tolerance (relative) for accepting a root
ROOT_RTOL = 1e-10
#: coincidence threshold, relative to the expected branch-splitting scale
DISTINCT_ATOL = 1e-8
#: Newton steps per root in :func:`_branch_newton` and :func:`beta_neg`
NEWTON_STEPS = 60


def _ab(p: ModelParams) -> tuple[float, float]:
    """The two rate combinations every kernel formula is built from."""
    return (1 + p.s) * (p.rho + 1), (1 + p.s) * p.rho


def _stackable(fn):
    """``fn`` on complex arrays of at least one dimension, then ``p``.

    With scalar arguments only, the result is row 0.  numpy computes on
    scalars with other code than on arrays, so this is what gives a scalar
    call the bits of its row in a stack.
    """

    @functools.wraps(fn)
    def run(*args):
        *xs, p = args
        out = fn(*(np.atleast_1d(np.asarray(x, dtype=complex)) for x in xs), p)
        return out if any(np.ndim(x) for x in xs) else out[0]

    return run


def _nonzero(alpha: np.ndarray, beta: np.ndarray, what: str) -> None:
    if np.any(alpha == 0) or np.any(beta == 0):
        raise ZeroDivisionError(f"{what} undefined at alpha = 0 or beta = 0")


def _in_disk(x: np.ndarray, name: str) -> None:
    bad = ~((np.abs(x) > 0) & (np.abs(x) < 1))
    if np.any(bad):
        raise RootCountMismatch(
            f"need 0 < |{name}| < 1, got |{name}| = {abs(x[bad][0])}"
        )


def _check_residual(det, scale) -> None:
    """Raise unless ``|det| <= ROOT_RTOL * scale`` wherever ``scale > 0``."""
    if np.any((scale > 0) & (np.abs(det) > ROOT_RTOL * scale)):
        raise RootCountMismatch("root residual exceeds tolerance")


def principal_root(z, s: int):
    """Principal s-th root, branch cut on the negative real axis (0 at 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(np.log(np.asarray(z, dtype=complex)) / s)


def roots_of_unity(s: int) -> np.ndarray:
    """``u_i = exp(2*pi*1j*i/s)`` for ``i = 1..s`` (so ``u_s = 1``)."""
    return np.exp(2j * np.pi * np.arange(1, s + 1) / s)


def det_pos(alpha, beta, p: ModelParams):
    """Determinant of the upper-quadrant kernel matrix, in closed form."""
    a, b = _ab(p)
    core = alpha * beta * a - beta * beta * b - alpha * alpha
    return core**p.s - beta * (alpha * beta * p.s) ** p.s


def _det_pos_scale(alpha, beta, p: ModelParams):
    a, b = _ab(p)
    aa, bb = abs(alpha), abs(beta)
    return (aa * bb * a + bb * bb * b + aa * aa) ** p.s + bb * (aa * bb * p.s) ** p.s


def branch_value_pos(alpha, beta, branch: int, p: ModelParams):
    """Residual of branch equation ``branch`` (1-based) at ``(alpha, beta)``."""
    _nonzero(alpha, beta, "branch equation")
    a, b = _ab(p)
    u = np.exp(2j * np.pi * branch / p.s)
    core = alpha * beta * a - beta * beta * b - alpha * alpha
    return core / (alpha * beta * p.s) - u * principal_root(beta, p.s)


def f_pm(beta, p: ModelParams):
    """The two roots of ``s*x^2 + (beta - (1+s)(rho+1))*x + (1+s)*rho = 0``.

    Vieta: ``fp*fm = (1+s)*rho/s`` and ``fp + fm = ((1+s)(rho+1) - beta)/s``.
    For ``beta = 0`` both roots are real with ``0 < fm < 1 < fp``.
    """
    a, b = _ab(p)
    s = p.s
    disc = np.sqrt(np.asarray((beta - a) ** 2 - 4 * s * b, dtype=complex))
    return (a - beta + disc) / (2 * s), (a - beta - disc) / (2 * s)


@functools.lru_cache(maxsize=64)
def _waring(p: ModelParams) -> np.ndarray:
    """Coefficients in ``x`` of ``W(x) = s^s * (fp(x)^s + fm(x)^s)``.

    Power sums of the two quadratic roots are symmetric, so the square root
    drops out and the result is a polynomial, built once per ``p``:
    ``sum_i (-1)^i * s/(s-i) * C(s-i, i) * (s*b)^i * (a - x)^(s-2i)``.
    """
    a, b = _ab(p)
    s = p.s
    total = np.zeros(s + 1)
    for i in range(s // 2 + 1):
        coeff = (-1) ** i * (s / (s - i)) * math.comb(s - i, i) * (s * b) ** i
        term = coeff * npoly.polypow([a, -1.0], s - 2 * i)
        total[: term.size] += term
    total.flags.writeable = False
    return total


def _horner(coeffs: np.ndarray, x):
    """The polynomial ``coeffs`` (lowest degree first) at ``x``.

    A ``(k, n)`` stack of polynomials is evaluated row ``i`` at ``x[i]``.
    """
    val = 0
    for c in np.moveaxis(coeffs, -1, 0)[::-1]:
        val = val * x + c
    return val


def det_neg(alpha, beta, p: ModelParams):
    """Waring-simplified determinant of the lower-quadrant kernel matrix."""
    _, b = _ab(p)
    s = p.s
    fp, fm = f_pm(beta, p)
    return (
        alpha * alpha * s**s
        + beta * beta * b**s
        - alpha * beta * s**s * (fp**s + fm**s)
    )


def _det_neg_scale(alpha, beta, p: ModelParams):
    _, b = _ab(p)
    s = p.s
    fp, fm = f_pm(beta, p)
    aa, bb = abs(alpha), abs(beta)
    return (
        aa * aa * s**s
        + bb * bb * b**s
        + aa * bb * s**s * (abs(fp) ** s + abs(fm) ** s)
    )


def v_ratio_roots(p: ModelParams) -> tuple[float, float]:
    """Limit ratios ``v-, v+``: roots of ``v^2*(1+s)*rho - v*(1+s)*(rho+1) + 1``."""
    _, b = _ab(p)
    disc = math.sqrt((p.rho + 1) ** 2 - 4 * p.rho / (1 + p.s))
    v_plus = (p.rho + 1 + disc) / (2 * p.rho)
    return (1.0 / b) / v_plus, v_plus


def w_ratio_roots(p: ModelParams) -> tuple[float, float]:
    """Limit ratios ``w-, w+``: roots of ``w^2*((1+s)*rho)^s - w*W(0) + s^s``.

    ``W(0) = s^s*(fp0^s + fm0^s)`` with ``fp0, fm0 = f_pm(0)``; the
    discriminant is positive for rho in (0, 1).
    """
    _, b = _ab(p)
    s = p.s
    fp0, fm0 = f_pm(0.0, p)
    fp0, fm0 = fp0.real, fm0.real
    with np.errstate(over="ignore", invalid="ignore"):  # limit_coeffs checks
        power_sum = s**s * (fp0**s + fm0**s)
        wdisc = np.sqrt(power_sum**2 - 4 * b**s * s**s)
        w_plus = (power_sum + wdisc) / (2 * b**s)
    return (s**s / b**s) / w_plus, w_plus


def _check_distinct(values: np.ndarray, radius: np.ndarray, s: int) -> None:
    """Pairwise separation check of each row, scaled by the branch splitting.

    The s in-disk roots coalesce as the disk shrinks: their genuine
    separation scales like ``radius^(1 + 1/s)`` (the branches split at order
    ``radius^(1/s)`` around the common limit ratio).  The 1e-8 coincidence
    threshold is therefore taken relative to that scale, so the check keeps
    flagging true double roots without tripping on deep, healthy levels.
    """
    gap = np.abs(values[:, :, None] - values[:, None, :])
    scale = radius ** (1 + 1 / s)
    close = np.triu(gap <= DISTINCT_ATOL * scale[:, None, None], 1)
    if np.any(close):
        i, j, k = np.argwhere(close)[0]
        raise RootCountMismatch(
            f"in-disk roots {values[i, j]} and {values[i, k]} coincide"
        )


def _branch_residual_z(z, sigma, a: float, b: float, s: int):
    """Scaled branch residual in ``z = beta/alpha`` and its derivative.

    The branch equations are labelled through ``sigma = u_i * alpha^(1/s)``
    with the two principal roots taken separately:

        (a*z - b*z^2 - 1) / (s*z) = sigma * z^(1/s).

    Labelling through ``(alpha*z)^(1/s)`` instead would lose the one-root-
    per-branch property whenever ``arg(alpha) + arg(z)`` wraps past pi (the
    product rule for principal roots fails there and two in-disk roots can
    land on the same label).
    """
    zroot = principal_root(z, s)
    r = a / s - (b / s) * z - 1 / (s * z) - sigma * zroot
    dr = -b / s + 1 / (s * z**2) - (sigma / s) * zroot / z
    return r, dr


def _branch_newton(starts: np.ndarray, sigma: np.ndarray, p: ModelParams):
    """Newton on the branch equations from the ``(k, s)`` starts.

    ``sigma`` has the shape of ``starts``.  An entry stops once
    ``|step| <= 1e-15*|z|``, when the step is not finite, or after
    :data:`NEWTON_STEPS` steps.  Returns the final iterates and which of
    them are in-disk branch roots to a relative 1e-12.
    """
    a, b = _ab(p)
    s = p.s
    z = starts.ravel().copy()
    sigma = sigma.ravel()
    live = np.arange(z.size)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            if not live.size:
                break
            r, dr = _branch_residual_z(z[live], sigma[live], a, b, s)
            step = r / dr
            moved = np.isfinite(step)
            z[live[moved]] -= step[moved]
            live = live[moved & (np.abs(step) > 1e-15 * np.abs(z[live]))]
        r, _ = _branch_residual_z(z, sigma, a, b, s)
        scale = a / s + np.abs(b * z / s) + np.abs(1 / (s * z))
        scale += np.abs(sigma * principal_root(z, s))
        ok = np.isfinite(z) & (z != 0) & (np.abs(z) < 1.0)
        ok &= np.abs(r) <= 1e-12 * scale
    return z.reshape(starts.shape), ok.reshape(starts.shape)


@_stackable
def betas_pos(alpha, p: ModelParams) -> np.ndarray:
    """The s roots of the positive kernel inside ``|beta| < |alpha|``.

    ``alpha`` is a scalar, giving shape ``(s,)``, or a 1-D stack, giving
    ``(k, s)``; column ``j`` is the root of branch ``j + 1``.

    The count ``s`` holds for every ``|alpha| < 1``, so it is not checked.
    In ``z = beta/alpha`` the determinant is ``P0 - alpha*s^s*z^(s+1)``,
    ``P0 = (a*z - b*z^2 - 1)^s = (-b)^s*((z - v-)(z - v+))^s``, ``v- < 1 <
    v+``.  On ``|z| = 1``, ``|P0| >= (b*(1 - v-)*(v+ - 1))^s = s^s`` (Vieta:
    ``b*(1 - v-)*(v+ - 1) = a - b - 1 = s``), above ``|alpha|*s^s``; Rouché
    gives the ``s`` zeros of ``P0`` in the disk.

    Newton finds each root on its own branch equation from the small-alpha
    start ``z = v- + s*sigma*v-^(1+1/s) / (b*(v+ - v-))``: the roots
    coalesce at ``v-`` as alpha shrinks and split along their branches at
    order ``alpha^(1/s)``.
    """
    _in_disk(alpha, "alpha")
    _, b = _ab(p)
    s = p.s
    v_minus, v_plus = v_ratio_roots(p)
    sigma = principal_root(alpha, s)[:, None] * roots_of_unity(s)
    start = v_minus + s * sigma * v_minus ** (1 + 1 / s) / (b * (v_plus - v_minus))
    z, ok = _branch_newton(start, sigma, p)
    if not np.all(ok):
        i, j = np.argwhere(~ok)[0]
        raise RootCountMismatch(
            f"no in-disk root found on branch {j + 1} at alpha = {alpha[i]}"
        )
    a2 = alpha[:, None]
    beta = a2 * z
    _check_residual(det_pos(a2, beta, p), _det_pos_scale(a2, beta, p))
    _check_distinct(beta, np.abs(alpha), s)
    return beta


@_stackable
def partner_alpha_pos(alpha, beta, p: ModelParams):
    """The second root of the branch quadratic in alpha.

    For fixed ``beta`` the branch equation is quadratic in alpha with root
    product ``beta^2*(1+s)*rho`` (Vieta), so the partner of a known root
    comes for free.  The quadratic itself is pinned by the pair's kernel
    ratio ``c = (a*alpha*beta - b*beta^2 - alpha^2)/(alpha*beta*s)`` (equal
    to the branch value, and identical for both roots), which keeps the step
    independent of how the branch index is labelled.  The two roots straddle
    ``|beta|`` and share their eigenvector.
    """
    _nonzero(alpha, beta, "partner root")
    a, b = _ab(p)
    s = p.s
    c = (a * alpha * beta - b * beta * beta - alpha * alpha) / (alpha * beta * s)
    other = beta * beta * b / alpha
    # Newton steps on x^2 - x*beta*(a - s*c) + beta^2*b keep chains tight
    lin = beta * (a - s * c)
    moving = np.ones(other.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(2):
            step = (other * other - other * lin + beta * beta * b) / (2 * other - lin)
            moving &= np.isfinite(step)
            other = np.where(moving, other - step, other)
    size = np.maximum(np.abs(alpha), np.abs(other))
    close = np.abs(other - alpha) <= DISTINCT_ATOL * size
    if np.any(close):
        raise DegenerateQuadratic(
            f"branch quadratic has a double root near alpha = {alpha[close][0]}"
        )
    return other


def _cofactor_outside_disk(coeffs: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """Which rows of ``coeffs`` over ``z - z0`` have no zero in ``|z| <= 1``.

    ``coeffs`` is a ``(k, n)`` stack, lowest degree first, and ``z0`` one
    root per row, its smallest, so Horner from the top divides stably.  The
    cofactor ``q`` then takes the Schur-Cohn test (Henrici, *Applied and
    Computational Complex Analysis* I, sec. 6.8): ``|q_d| < |q_0|`` at its
    degree ``d``, then the same for ``conj(q_0)*q - q_d*q*`` (``q*``:
    reversed, conjugated) down to degree 1; a zero on the circle fails a
    step.  Rows are scaled to max-abs 1 first, so nothing overflows; a NaN
    fails.
    """
    q = np.empty((len(coeffs), coeffs.shape[1] - 1), dtype=complex)
    q[:, -1] = coeffs[:, -1]
    for j in range(q.shape[1] - 1, 0, -1):
        q[:, j - 1] = coeffs[:, j] + z0 * q[:, j]
    ok = np.ones(len(q), dtype=bool)
    with np.errstate(all="ignore"):
        for d in range(q.shape[1] - 1, 0, -1):
            q = q[:, : d + 1] / np.max(np.abs(q[:, : d + 1]), axis=1, keepdims=True)
            ok &= np.abs(q[:, d]) < np.abs(q[:, 0])
            q = q[:, :1].conj() * q - q[:, d:] * q[:, ::-1].conj()
    return ok


@_stackable
def beta_neg(alpha, p: ModelParams):
    """The unique root of the negative kernel inside ``|beta| < |alpha|``.

    ``alpha`` is a scalar, or a 1-D array for one root per entry (solved
    together, as in :func:`betas_pos`).  Newton in ``z = beta/alpha`` starts
    from the small-alpha limit ``w-`` and stops as :func:`_branch_newton`
    does.  No closed-form Rouché bound holds at level 0 in heavy traffic, so
    :func:`_cofactor_outside_disk` checks that the other zeros lie outside.
    """
    _in_disk(alpha, "alpha")
    _, b = _ab(p)
    s = p.s
    # determinant in z = beta/alpha:  s^s + b^s*z^2 - z*W(alpha*z)
    coeffs = np.zeros((len(alpha), max(3, s + 2)), dtype=complex)
    coeffs[:, 0] = s**s
    coeffs[:, 2] += b**s
    coeffs[:, 1 : s + 2] -= _waring(p) * alpha[:, None] ** np.arange(s + 1)
    dcoeffs = npoly.polyder(coeffs, axis=1)
    z = np.full(len(alpha), w_ratio_roots(p)[0], dtype=complex)
    live = np.arange(len(z))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            if not live.size:
                break
            step = _horner(coeffs[live], z[live]) / _horner(dcoeffs[live], z[live])
            z[live] -= step
            live = live[np.abs(step) > 1e-15 * np.abs(z[live])]
    _in_disk(z, "beta/alpha")
    if not np.all(_cofactor_outside_disk(coeffs, z)):
        raise RootCountMismatch(
            "negative kernel does not have exactly one root inside the disk"
        )
    beta = alpha * z
    _check_residual(det_neg(alpha, beta, p), _det_neg_scale(alpha, beta, p))
    return beta


@_stackable
def alpha_neg(beta, p: ModelParams):
    """The unique root of the negative kernel inside ``|alpha| < |beta|``.

    In ``z = alpha/beta`` the determinant is the quadratic
    ``s^s*z^2 - W(beta)*z + b^s`` with constant power-sum term, solved in
    closed form.
    """
    _in_disk(beta, "beta")
    _, b = _ab(p)
    s = p.s
    w = _horner(_waring(p), beta)
    disc = np.sqrt(w * w - 4 * s**s * b**s)
    # take the numerically stable root first, its partner via Vieta
    z1, z2 = (w + disc) / (2 * s**s), (w - disc) / (2 * s**s)
    z1 = np.where(np.abs(z1) < np.abs(z2), z2, z1)
    z2 = (b**s / s**s) / z1
    found = (np.abs(z1) < 1.0).astype(int) + (np.abs(z2) < 1.0)
    if np.any(found != 1):
        raise RootCountMismatch(
            "expected 1 in-disk root of the negative kernel, "
            f"found {found[found != 1][0]}"
        )
    alpha = beta * np.where(np.abs(z1) < 1.0, z1, z2)
    _check_residual(det_neg(alpha, beta, p), _det_neg_scale(alpha, beta, p))
    return alpha


@_stackable
def eigvec_pos(alpha, beta, p: ModelParams) -> np.ndarray:
    """Eigenvector of the positive kernel, normalized to entry 0 = 1.

    Entries are geometric: entry ``r`` equals ``ratio^r`` with ``ratio`` the
    common branch value; on branch ``i`` this is ``(u_i * beta^(1/s))^r``.
    The arguments broadcast; the entries are the last axis.
    """
    _nonzero(alpha, beta, "eigenvector")
    a, b = _ab(p)
    ratio = (alpha * beta * a - beta * beta * b - alpha * alpha) / (alpha * beta * p.s)
    return ratio[..., None] ** np.arange(p.s)


@_stackable
def eigvec_neg(alpha, beta, p: ModelParams) -> np.ndarray:
    """Eigenvector of the negative kernel, normalized to entry 0 = 1.

    Built from the two geometric modes ``fp^r`` and ``fm^r`` mixed through
    ``F(x) = (1+s)*rho*x^(-1)*((beta/alpha)*x^s - 1)``; the mix is symmetric
    in the two modes, so the square-root branch inside ``f_pm`` cancels.
    The arguments broadcast; the entries are the last axis.
    """
    _nonzero(alpha, beta, "eigenvector")
    _, b = _ab(p)
    s = p.s
    if s == 1:
        return np.ones(np.broadcast(alpha, beta).shape + (1,), dtype=complex)
    fp, fm = f_pm(beta, p)
    ratio = beta / alpha
    Fp = b / fp * (ratio * fp**s - 1)
    Fm = b / fm * (ratio * fm**s - 1)
    denom = Fm - Fp
    # a double mode costs sqrt(eps) accuracy in fp - fm, hence the threshold;
    # it can only happen at |beta| >= 1, outside the kernel-root domain
    if np.any(np.abs(denom) <= 1e-7 * (np.abs(Fm) + np.abs(Fp))):
        raise DegenerateEigenvector(
            "the two geometric modes of the negative eigenvector coincide"
        )
    r = np.arange(s)
    Fp, Fm, denom = Fp[..., None], Fm[..., None], denom[..., None]
    return (Fm * fp[..., None] ** r - Fp * fm[..., None] ** r) / denom


def kernel_matrix_pos(
    alpha: complex, beta: complex, p: ModelParams, rm: RateMatrices | None = None
) -> np.ndarray:
    """``D+(alpha, beta)`` assembled from the rate blocks (for verification)."""
    if rm is None:
        rm = build_rate_matrices(p)
    return (
        alpha * beta * rm.A_00
        + alpha * beta * beta * rm.A_0m1
        + alpha * alpha * rm.A_m11
        + beta * beta * rm.A_1m1
    )


def kernel_matrix_neg(
    alpha: complex, beta: complex, p: ModelParams, rm: RateMatrices | None = None
) -> np.ndarray:
    """``D-(alpha, beta)`` assembled from the rate blocks (for verification)."""
    if rm is None:
        rm = build_rate_matrices(p)
    return (
        alpha * beta * rm.B_00
        + alpha * beta * beta * rm.B_01
        + alpha * alpha * rm.B_m1m1
        + beta * beta * rm.B_11
    )
