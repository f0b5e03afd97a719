import numpy as np
import pytest

from sedq.model import build_rate_matrices, equation_stencil, validate_params


@pytest.fixture(scope="session")
def p212():
    return validate_params(2, 0.5, 0.4)


@pytest.fixture(scope="session")
def p1_sym():
    return validate_params(1, 0.5, 0.5)


def branch_residuals(alpha, betas, p):
    """Residual of column j of ``betas`` on branch j + 1, relative to its terms.

    Branches are labelled as the kernel labels them, through
    ``sigma = u_j * alpha^(1/s)`` (see ``sedq.kernel._branch_residual_z``).
    """
    from sedq.kernel import _branch_residual_z, principal_root, roots_of_unity

    a, b, s = (1 + p.s) * (p.rho + 1), (1 + p.s) * p.rho, p.s
    z = betas / alpha
    sigma = roots_of_unity(s) * principal_root(alpha, s)
    r, _ = _branch_residual_z(z, sigma, a, b, s)
    scale = a / s + abs(b * z / s) + abs(1 / (s * z))
    scale += abs(sigma * principal_root(z, s))
    return abs(r) / scale


def rel_residual(p, prob, m, n, rm=None):
    """Balance residual at (m, n) scaled by rate and local probability size."""
    from sedq.model import balance_residual

    if rm is None:
        rm = build_rate_matrices(p)
    res = balance_residual(p, prob, (m, n, 0), rm)
    local = max(
        float(np.max(np.abs(np.asarray(prob(mm, nn)))))
        for mm, nn, _ in equation_stencil(rm, p.s, m, n)
    )
    scale = (1 + p.s) * (p.rho + 1) * max(local, 1e-300)
    return float(np.max(np.abs(res))) / scale
