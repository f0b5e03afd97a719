"""Dense solve with an equilibrated condition check.

The repair and limit systems are graded: rows and columns carry powers of
``alpha^(1/s)``, so their raw condition numbers diverge as the tree deepens
even though the underlying problem stays perfectly well-posed.  Diagonal
equilibration (max-abs row scaling, then column scaling) removes the grading;
the 1e12 condition limit is enforced on the equilibrated matrix so it trips
on genuine rank loss only.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystem

COND_LIMIT = 1e12


def solve_checked(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve ``mat @ x = rhs`` after equilibration; raise on true singularity.

    ``mat`` may be a ``(k, n, n)`` stack with ``rhs`` of shape ``(k, n)``:
    equilibration, condition check and solve then run on the whole stack,
    and each system gets the bits it would get alone.  A few alternating
    row/column max-abs passes handle the multi-scale grading (one pass
    leaves residual skew when a row mixes scales).
    """
    scaled = np.asarray(mat)
    rhs = np.asarray(rhs)
    row = np.ones(rhs.shape)
    col = np.ones(rhs.shape)
    for _ in range(3):
        r = np.max(np.abs(scaled), axis=-1)
        if np.any(r == 0):
            raise SingularSystem(f"{what}: zero row")
        scaled = scaled / r[..., :, None]
        row = row * r
        c = np.max(np.abs(scaled), axis=-2)
        if np.any(c == 0):
            raise SingularSystem(f"{what}: zero column")
        scaled = scaled / c[..., None, :]
        col = col * c
    cond = np.atleast_1d(np.linalg.cond(scaled))
    bad = ~(cond <= COND_LIMIT)  # also catches nan
    if np.any(bad):
        worst = cond[bad][0]
        raise SingularSystem(f"{what}: condition number {worst:.3e} exceeds 1e12")
    y = np.linalg.solve(scaled, (rhs / row)[..., None])[..., 0]
    return y / col
