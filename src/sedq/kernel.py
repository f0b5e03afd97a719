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

    a^2*s^s + b^2*((1+s)*rho)^s - a*b*s^s*(fp(b)^s + fm(b)^s) = 0,

which is polynomial in both variables and owns exactly one in-disk root on
each side.

Root finding follows one strategy throughout: rescale the unknown by the
fixed variable (so all interesting roots live in the unit disk), expand into
a polynomial, take companion-matrix eigenvalues, keep the in-disk roots,
polish with a few complex Newton steps, and certify the in-disk count with an
argument-principle winding number over the disk boundary.  Violations raise
:class:`~sedq.errors.RootCountMismatch` rather than being repaired silently.

:func:`betas_pos` and :func:`beta_neg` also take a 1-D array of alphas, as
the horizontal repair of a whole tree level does: all counts are certified
in one evaluation over :data:`CONTOUR` and the companion matrices go to one
stacked ``eigvals`` call per size.  The Newton polish stays a scalar loop
per root (numpy array arithmetic may fuse multiply-adds and would move the
last bits), so a root from a stack equals the root found alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateEigenvector, DegenerateQuadratic, RootCountMismatch
from .model import ModelParams, RateMatrices, build_rate_matrices

__all__ = [
    "BranchedRoot",
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
    "winding_count",
    "v_ratio_roots",
]

#: residual tolerance (relative) for accepting a polished root
ROOT_RTOL = 1e-10
#: coincidence threshold, relative to the expected branch-splitting scale
DISTINCT_ATOL = 1e-8
#: points on the certification contour
CONTOUR_POINTS = 2048
#: the certification contour: the unit circle, closed (first point repeated)
CONTOUR = np.exp(1j * np.linspace(0.0, 2 * np.pi, CONTOUR_POINTS + 1))
#: polynomials per contour evaluation in :func:`winding_count` (bounds memory)
CONTOUR_ROWS = 4
#: Newton steps per start in :func:`_branch_newton_z`
NEWTON_STEPS = 60


@dataclass(frozen=True)
class BranchedRoot:
    """One in-disk kernel root with its branch label."""

    value: complex
    branch: int


def _ab(p: ModelParams) -> tuple[float, float]:
    """The two rate combinations every kernel formula is built from."""
    return (1 + p.s) * (p.rho + 1), (1 + p.s) * p.rho


def principal_root(z: complex, s: int) -> complex:
    """Principal s-th root, branch cut on the negative real axis."""
    if z == 0:
        return 0.0 + 0.0j
    return complex(np.exp(np.log(complex(z)) / s))


def roots_of_unity(s: int) -> np.ndarray:
    """``u_i = exp(2*pi*1j*i/s)`` for ``i = 1..s`` (so ``u_s = 1``)."""
    return np.exp(2j * np.pi * np.arange(1, s + 1) / s)


def det_pos(alpha: complex, beta: complex, p: ModelParams) -> complex:
    """Determinant of the upper-quadrant kernel matrix, in closed form."""
    a, b = _ab(p)
    core = alpha * beta * a - beta * beta * b - alpha * alpha
    return core**p.s - beta * (alpha * beta * p.s) ** p.s


def _det_pos_scale(alpha: complex, beta: complex, p: ModelParams) -> float:
    a, b = _ab(p)
    aa, bb = abs(alpha), abs(beta)
    return (aa * bb * a + bb * bb * b + aa * aa) ** p.s + bb * (aa * bb * p.s) ** p.s


def branch_value_pos(
    alpha: complex, beta: complex, branch: int, p: ModelParams
) -> complex:
    """Residual of branch equation ``branch`` (1-based) at ``(alpha, beta)``."""
    if alpha == 0 or beta == 0:
        raise ZeroDivisionError("branch equation undefined at alpha = 0 or beta = 0")
    a, b = _ab(p)
    u = np.exp(2j * np.pi * branch / p.s)
    core = alpha * beta * a - beta * beta * b - alpha * alpha
    return core / (alpha * beta * p.s) - u * principal_root(beta, p.s)


def f_pm(beta: complex, p: ModelParams) -> tuple[complex, complex]:
    """The two roots of ``s*x^2 + (beta - (1+s)(rho+1))*x + (1+s)*rho = 0``.

    Vieta: ``fp*fm = (1+s)*rho/s`` and ``fp + fm = ((1+s)(rho+1) - beta)/s``.
    For ``beta = 0`` both roots are real with ``0 < fm < 1 < fp``.
    """
    a, b = _ab(p)
    s = p.s
    disc = np.sqrt(complex((beta - a) ** 2 - 4 * s * b))
    fp = (a - beta + disc) / (2 * s)
    fm = (a - beta - disc) / (2 * s)
    return complex(fp), complex(fm)


def _waring_power_sum_coeffs(alpha: complex, p: ModelParams) -> np.ndarray:
    """Coefficients in ``z`` of ``s^s * (fp(alpha*z)^s + fm(alpha*z)^s)``.

    Power sums of the two quadratic roots are symmetric, so the square root
    drops out and the result is a polynomial:
    ``sum_i (-1)^i * s/(s-i) * C(s-i, i) * (s*b)^i * (a - alpha*z)^(s-2i)``.
    """
    a, b = _ab(p)
    s = p.s
    total = np.zeros(s + 1, dtype=complex)
    for i in range(s // 2 + 1):
        coeff = (-1) ** i * (s / (s - i)) * math.comb(s - i, i) * (s * b) ** i
        term = coeff * npoly.polypow(np.array([a, -alpha], dtype=complex), s - 2 * i)
        total[: term.size] += term
    return total


def det_neg(alpha: complex, beta: complex, p: ModelParams) -> complex:
    """Waring-simplified determinant of the lower-quadrant kernel matrix."""
    a, b = _ab(p)
    s = p.s
    fp, fm = f_pm(beta, p)
    return (
        alpha * alpha * s**s
        + beta * beta * b**s
        - alpha * beta * s**s * (fp**s + fm**s)
    )


def _det_neg_scale(alpha: complex, beta: complex, p: ModelParams) -> float:
    b = (1 + p.s) * p.rho
    s = p.s
    fp, fm = f_pm(beta, p)
    aa, bb = abs(alpha), abs(beta)
    return (
        aa * aa * s**s
        + bb * bb * b**s
        + aa * bb * s**s * (abs(fp) ** s + abs(fm) ** s)
    )


def _trim_leading(coeffs: np.ndarray, min_degree: int) -> np.ndarray:
    """Drop top coefficients that are negligible next to the largest one.

    Deep in the tree the highest powers carry factors like ``alpha^s`` and
    become many orders smaller than the rest; their roots sit far outside
    the unit disk and are irrelevant, but the grading wrecks the companion
    matrix.  Trimmed roots only seed a Newton polish against the full
    polynomial (or branch equation), so the cut can be aggressive.
    """
    mags = np.abs(coeffs)
    top = float(np.max(mags))
    keep = len(coeffs)
    while keep - 1 > min_degree and mags[keep - 1] < 1e-20 * top:
        keep -= 1
    return coeffs[:keep]


def winding_count(coeffs: np.ndarray, radius: float) -> int | np.ndarray:
    """Number of polynomial zeros inside ``|z| < radius`` by winding number.

    ``coeffs`` is one polynomial or a ``(k, deg+1)`` stack of them; a stack
    returns one count per row.  Trapezoid walk of the argument of ``P``
    along :data:`CONTOUR`; the total phase change divided by ``2*pi`` is the
    zero count.  Raises :class:`RootCountMismatch` when the integral is too
    far from an integer or the polynomial nearly vanishes on the contour
    (root on the boundary).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    rows = np.atleast_2d(coeffs)
    powers = np.vander(radius * CONTOUR, rows.shape[1], increasing=True).T
    counts = np.empty(len(rows), dtype=int)
    for i in range(0, len(rows), CONTOUR_ROWS):
        w = rows[i : i + CONTOUR_ROWS] @ powers
        mags = np.abs(w)
        scale = np.max(mags, axis=1)
        if np.any(scale == 0.0) or np.any(np.min(mags, axis=1) < 1e-13 * scale):
            raise RootCountMismatch("kernel determinant nearly vanishes on the contour")
        steps = np.angle(w[:, 1:] * w[:, :-1].conj())  # arg(w[k+1] / w[k])
        total = np.sum(steps, axis=1) / (2 * np.pi)
        count = np.rint(total)
        off = np.abs(total - count) > 0.25
        if np.any(off):
            raise RootCountMismatch(
                f"winding integral {total[off][0]:.6f} is not close to an integer"
            )
        counts[i : i + len(w)] = count
    return int(counts[0]) if coeffs.ndim == 1 else counts


def _companion_roots(polys: list[np.ndarray]) -> list[np.ndarray]:
    """``npoly.polyroots`` of each polynomial, bit for bit.

    Companion matrices of one size share a single stacked ``eigvals`` call;
    LAPACK sees each matrix exactly as it would alone.
    """
    out: list[np.ndarray | None] = [None] * len(polys)
    by_size: dict[int, list[int]] = {}
    for i, c in enumerate(polys):
        if len(c) < 3 or c[-1] == 0:  # polyroots trims and special-cases these
            out[i] = npoly.polyroots(c)
        else:
            by_size.setdefault(len(c), []).append(i)
    for size, idx in by_size.items():
        c = np.array([polys[i] for i in idx])
        n = size - 1
        mat = np.zeros((len(idx), n, n), dtype=c.dtype)
        mat[:, np.arange(1, n), np.arange(n - 1)] = 1
        mat[:, :, -1] -= c[:, :-1] / c[:, -1:]
        roots = np.sort(np.linalg.eigvals(mat), axis=-1)
        for i, r in zip(idx, roots):
            out[i] = r
    return out


def v_ratio_roots(p: ModelParams) -> tuple[float, float]:
    """Limit ratios ``v-, v+``: roots of ``v^2*(1+s)*rho - v*(1+s)*(rho+1) + 1``."""
    _, b = _ab(p)
    disc = math.sqrt((p.rho + 1) ** 2 - 4 * p.rho / (1 + p.s))
    v_plus = (p.rho + 1 + disc) / (2 * p.rho)
    return (1.0 / b) / v_plus, v_plus


def _check_distinct(values: np.ndarray, radius: float, s: int) -> None:
    """Pairwise separation check, scaled by the expected branch splitting.

    The s in-disk roots coalesce as the disk shrinks: their genuine
    separation scales like ``radius^(1 + 1/s)`` (the branches split at order
    ``radius^(1/s)`` around the common limit ratio).  The 1e-8 coincidence
    threshold is therefore taken relative to that scale, so the check keeps
    flagging true double roots without tripping on deep, healthy levels.
    """
    scale = radius ** (1 + 1 / s)
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= DISTINCT_ATOL * scale:
                raise RootCountMismatch(
                    f"in-disk roots {values[i]} and {values[j]} coincide"
                )


def _branch_residual_z(
    z: complex, sigma: complex, a: float, b: float, s: int
) -> tuple[complex, complex]:
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


def _branch_newton_z(
    starts: list[complex], sigma: complex, p: ModelParams
) -> complex | None:
    """First start from which Newton lands on an in-disk branch root.

    Each start runs :data:`NEWTON_STEPS` steps unless the step falls below
    1e-16 relative.  Near a root the iterate often cycles between
    neighbouring floats instead; the step is a pure function of ``z``, so
    once an iterate repeats the walk is periodic, no stop test can fire any
    more, and the iterate the full walk would end on is read off the cycle.
    """
    a, b = _ab(p)
    s = p.s
    for start in starts:
        z = complex(start)
        seen: dict[complex, int] = {}
        walk = [z]
        for i in range(1, NEWTON_STEPS + 1):
            if z == 0 or not cmath.isfinite(z):
                break
            r, dr = _branch_residual_z(z, sigma, a, b, s)
            step = r / dr
            if not cmath.isfinite(step):
                break
            z = z - step
            if abs(step) < 1e-16 * abs(z):
                break
            # from step 1 on z is a numpy scalar; its bytes tell -0.0 from 0.0
            j = seen.setdefault(z, i)
            if j < i and walk[j].tobytes() == z.tobytes():
                z = walk[j + (NEWTON_STEPS - j) % (i - j)]
                break
            walk.append(z)
        if z == 0 or not cmath.isfinite(z) or abs(z) >= 1.0:
            continue
        r, _ = _branch_residual_z(z, sigma, a, b, s)
        zroot = principal_root(z, s)
        scale = a / s + abs(b * z / s) + abs(1 / (s * z)) + abs(sigma * zroot)
        if abs(r) <= 1e-12 * scale:
            return z
    return None


def _alphas(alpha) -> list[complex]:
    """The alphas of a scalar or 1-D stack as Python complex, checked in-disk."""
    alphas = [complex(x) for x in np.atleast_1d(alpha)]
    for x in alphas:
        if not 0 < abs(x) < 1:
            raise RootCountMismatch(f"need 0 < |alpha| < 1, got |alpha| = {abs(x)}")
    return alphas


def betas_pos(alpha, p: ModelParams) -> list[BranchedRoot] | list[list[BranchedRoot]]:
    """The s roots of the positive kernel inside ``|beta| < |alpha|``.

    ``alpha`` is a scalar, or a 1-D array for one list of roots per entry.
    The in-disk count is certified by the winding number of the determinant
    (in ``z = beta/alpha``) over the unit circle; each root is then located
    on its own branch equation by Newton.  Companion-matrix eigenvalues seed
    the iteration, backed by the small-alpha asymptotic start
    ``z = v- + s*sigma*v-^(1+1/s) / (b*(v+ - v-))``: the in-disk roots
    coalesce at ``v-`` as alpha shrinks, which starves the companion matrix
    of accuracy exactly where the asymptotics turn sharp.  A stack is
    certified in one contour evaluation and seeded by one ``eigvals`` call.
    """
    alphas = _alphas(alpha)
    a, b = _ab(p)
    s = p.s
    # determinant in z = beta/alpha:  (a*z - b*z^2 - 1)^s - alpha*s^s*z^(s+1)
    coeffs = np.zeros((len(alphas), 2 * s + 2), dtype=complex)
    coeffs[:, : 2 * s + 1] = npoly.polypow(np.array([-1.0, a, -b], dtype=complex), s)
    coeffs[:, s + 1] -= np.array([x * s**s for x in alphas])
    if np.any(winding_count(coeffs, 1.0) != s):
        raise RootCountMismatch(
            f"positive kernel does not have exactly {s} roots inside the disk"
        )
    z_roots = _companion_roots([_trim_leading(c, 2) for c in coeffs])
    out = [
        _branch_roots(x, list(z[np.abs(z) < 1.0]), p) for x, z in zip(alphas, z_roots)
    ]
    return out if np.ndim(alpha) else out[0]


def _branch_roots(alpha: complex, seeds: list, p: ModelParams) -> list[BranchedRoot]:
    """One Newton-polished root per branch at ``alpha``, seeded by ``seeds``."""
    _, b = _ab(p)
    s = p.s
    v_minus, v_plus = v_ratio_roots(p)
    aroot = principal_root(alpha, s)
    out = []
    for branch, u in enumerate(roots_of_unity(s), start=1):
        sigma = u * aroot
        asymptotic = v_minus + (
            s * sigma * v_minus ** (1 + 1 / s) / (b * (v_plus - v_minus))
        )
        starts = sorted(seeds, key=lambda z: abs(z - asymptotic))[:2]
        starts.append(asymptotic)
        z = _branch_newton_z(starts, sigma, p)
        if z is None:
            raise RootCountMismatch(
                f"no in-disk root found on branch {branch} at alpha = {alpha}"
            )
        beta = alpha * z
        scale = _det_pos_scale(alpha, beta, p)
        if scale > 0 and abs(det_pos(alpha, beta, p)) > ROOT_RTOL * scale:
            raise RootCountMismatch("root residual exceeds tolerance")
        out.append(BranchedRoot(value=complex(beta), branch=branch))
    _check_distinct(np.array([r.value for r in out]), abs(alpha), s)
    return out


def partner_alpha_pos(alpha: complex, beta: complex, p: ModelParams) -> complex:
    """The second root of the branch quadratic in alpha.

    For fixed ``beta`` the branch equation is quadratic in alpha with root
    product ``beta^2*(1+s)*rho`` (Vieta), so the partner of a known root
    comes for free.  The quadratic itself is pinned by the pair's kernel
    ratio ``c = (a*alpha*beta - b*beta^2 - alpha^2)/(alpha*beta*s)`` (equal
    to the branch value, and identical for both roots), which keeps the step
    independent of how the branch index is labelled.  The two roots straddle
    ``|beta|`` and share their eigenvector.
    """
    if alpha == 0 or beta == 0:
        raise ZeroDivisionError("partner root undefined at alpha = 0 or beta = 0")
    a, b = _ab(p)
    s = p.s
    c = (a * alpha * beta - b * beta * beta - alpha * alpha) / (alpha * beta * s)
    other = beta * beta * b / alpha
    # one Newton step on x^2 - x*beta*(a - s*c) + beta^2*b keeps chains tight
    lin = beta * (a - s * c)
    for _ in range(2):
        val = other * other - other * lin + beta * beta * b
        der = 2 * other - lin
        if der == 0 or not np.isfinite(val / der):
            break
        other = other - val / der
    if abs(other - alpha) <= DISTINCT_ATOL * max(abs(alpha), abs(other)):
        raise DegenerateQuadratic(
            f"branch quadratic has a double root near alpha = {alpha}"
        )
    return complex(other)


def beta_neg(alpha, p: ModelParams) -> complex | list[complex]:
    """The unique root of the negative kernel inside ``|beta| < |alpha|``.

    ``alpha`` is a scalar, or a 1-D array for one root per entry (certified
    and seeded together, as in :func:`betas_pos`).
    """
    alphas = _alphas(alpha)
    b = (1 + p.s) * p.rho
    s = p.s
    # determinant in z = beta/alpha:  s^s + b^s*z^2 - z*W(alpha*z)
    # where W is the Waring power-sum polynomial of the f roots.
    coeffs = np.zeros((len(alphas), max(3, s + 2)), dtype=complex)
    coeffs[:, 0] = s**s
    coeffs[:, 2] += b**s
    for row, x in zip(coeffs, alphas):
        w = _waring_power_sum_coeffs(x, p)
        row[1 : 1 + w.size] -= w
    if np.any(winding_count(coeffs, 1.0) != 1):
        raise RootCountMismatch(
            "negative kernel does not have exactly one root inside the disk"
        )
    z_roots = _companion_roots([_trim_leading(c, 2) for c in coeffs])
    dcoeffs = npoly.polyder(coeffs, axis=1)
    out = [
        _polish_neg(x, c, dc, z, p)
        for x, c, dc, z in zip(alphas, coeffs, dcoeffs, z_roots)
    ]
    return out if np.ndim(alpha) else out[0]


def _polish_neg(
    alpha: complex,
    coeffs: np.ndarray,
    dcoeffs: np.ndarray,
    z_roots: np.ndarray,
    p: ModelParams,
) -> complex:
    """The in-disk root among ``z_roots``, polished on ``coeffs``, as beta."""
    inside = z_roots[np.abs(z_roots) < 1.0]
    if len(inside) != 1:
        raise RootCountMismatch(
            f"expected 1 in-disk root, companion matrix found {len(inside)}"
        )
    z = complex(inside[0])
    for _ in range(4):
        step = npoly.polyval(z, coeffs) / npoly.polyval(z, dcoeffs)
        if not np.isfinite(step):
            break
        z -= step
        if abs(step) < 1e-16 * abs(z):
            break
    beta = alpha * z
    scale = _det_neg_scale(alpha, beta, p)
    if scale > 0 and abs(det_neg(alpha, beta, p)) > ROOT_RTOL * scale:
        raise RootCountMismatch("root residual exceeds tolerance")
    return complex(beta)


def alpha_neg(beta: complex, p: ModelParams) -> complex:
    """The unique root of the negative kernel inside ``|alpha| < |beta|``.

    In ``z = alpha/beta`` the determinant is the quadratic
    ``s^s*z^2 - W(beta)*z + b^s`` with constant power-sum term, solved in
    closed form.
    """
    if not 0 < abs(beta) < 1:
        raise RootCountMismatch(f"need 0 < |beta| < 1, got |beta| = {abs(beta)}")
    b = (1 + p.s) * p.rho
    s = p.s
    beta = complex(beta)
    w = complex(npoly.polyval(beta, _waring_power_sum_coeffs(1.0, p)))
    disc = np.sqrt(w * w - 4 * s**s * b**s)
    # evaluate the numerically stable root first, partner via Vieta
    z1 = (w + disc) / (2 * s**s)
    if abs(z1) < abs(w - disc) / (2 * s**s):
        z1 = (w - disc) / (2 * s**s)
    z2 = (b**s / s**s) / z1
    inside = [z for z in (z1, z2) if abs(z) < 1.0]
    if len(inside) != 1:
        raise RootCountMismatch(
            f"expected 1 in-disk root of the negative kernel, found {len(inside)}"
        )
    alpha = beta * inside[0]
    scale = _det_neg_scale(alpha, beta, p)
    if scale > 0 and abs(det_neg(alpha, beta, p)) > ROOT_RTOL * scale:
        raise RootCountMismatch("root residual exceeds tolerance")
    return complex(alpha)


def eigvec_pos(alpha: complex, beta: complex, p: ModelParams) -> np.ndarray:
    """Eigenvector of the positive kernel, normalized to entry 0 = 1.

    Entries are geometric: entry ``r`` equals ``ratio^r`` with ``ratio`` the
    common branch value; on branch ``i`` this is ``(u_i * beta^(1/s))^r``.
    """
    if alpha == 0 or beta == 0:
        raise ZeroDivisionError("eigenvector undefined at alpha = 0 or beta = 0")
    a, b = _ab(p)
    ratio = (alpha * beta * a - beta * beta * b - alpha * alpha) / (alpha * beta * p.s)
    return ratio ** np.arange(p.s)


def eigvec_neg(alpha: complex, beta: complex, p: ModelParams) -> np.ndarray:
    """Eigenvector of the negative kernel, normalized to entry 0 = 1.

    Built from the two geometric modes ``fp^r`` and ``fm^r`` mixed through
    ``F(x) = (1+s)*rho*x^(-1)*((beta/alpha)*x^s - 1)``; the mix is symmetric
    in the two modes, so the square-root branch inside ``f_pm`` cancels.
    """
    if alpha == 0 or beta == 0:
        raise ZeroDivisionError("eigenvector undefined at alpha = 0 or beta = 0")
    b = (1 + p.s) * p.rho
    s = p.s
    out = np.ones(s, dtype=complex)
    if s == 1:
        return out
    fp, fm = f_pm(beta, p)
    ratio = beta / alpha

    def func(x: complex) -> complex:
        return b / x * (ratio * x**s - 1)

    Fp, Fm = func(fp), func(fm)
    denom = Fm - Fp
    # a double mode costs sqrt(eps) accuracy in fp - fm, hence the threshold;
    # it can only happen at |beta| >= 1, outside the kernel-root domain
    if abs(denom) <= 1e-7 * (abs(Fm) + abs(Fp)):
        raise DegenerateEigenvector(
            "the two geometric modes of the negative eigenvector coincide"
        )
    r = np.arange(s)
    return (Fm * fp**r - Fp * fm**r) / denom


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
