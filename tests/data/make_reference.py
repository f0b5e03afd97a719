"""Write ``reference.npz``: oracle distributions that ``test_reference`` checks.

Each triple is solved by :func:`sedq.oracle.oracle_solve`, the sparse LU of
the queue-length chain on a finite box, which shares no code with the series
solver.  The box starts at ``q1max = ceil(log(1e-14) / ((1+s)*log(rho)))``,
but at least twice the window (the lossy edge perturbs the cells next to it
far beyond its own mass), with ``q2max = s*(q1max + 1)``, and grows by a
tenth until the stationary mass within one step of its edge is below
:data:`BOUNDARY_MASS`.  Stored per
triple ``i``: ``params[i] = (s, rho, q)``, ``box[i]``, ``boundary_mass[i]``,
``metrics[i] = (mean_q1, mean_q2, p_idle)`` over the box, and ``window{i}``,
the probabilities of ``q1 <= 15``, ``q2 <= 15*s`` as a ``(16, 15*s + 1)``
array.

Run from the repository root (the largest box takes about 20 s)::

    PYTHONPATH=src python tests/data/make_reference.py
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from sedq.errors import BoxTooSmall
from sedq.model import validate_params
from sedq.oracle import TruncationBox, oracle_solve

TRIPLES = [
    (2, 0.95, 0.4),
    (5, 0.85, 0.4),
    (1, 0.8, 0.0),
    (8, 0.9, 0.4),
    (2, 0.5, 0.4),
    (3, 0.75, 0.4),
    (4, 0.85, 0.4),
    (1, 0.5, 0.5),
]
BOUNDARY_MASS = 1e-14
WINDOW = 15


def reference(s: int, rho: float, q: float):
    """Box, boundary mass, metrics and window of one triple."""
    p = validate_params(s, rho, q)
    decay = (1 + s) * math.log(rho)
    q1max = max(2 * WINDOW, math.ceil(math.log(BOUNDARY_MASS) / decay))
    while True:
        box = TruncationBox(q1max, s * (q1max + 1))
        try:
            res = oracle_solve(p, box, mass_tol=BOUNDARY_MASS)
            break
        except BoxTooSmall:
            q1max = math.ceil(1.1 * q1max)
    pi = np.zeros((box.q1max + 1, box.q2max + 1))
    for (q1, q2), v in res.probs.items():
        pi[q1, q2] = v
    q1, q2 = np.ogrid[: box.q1max + 1, : box.q2max + 1]
    metrics = [float((q1 * pi).sum()), float((q2 * pi).sum()), float(pi[0, 0])]
    window = pi[: WINDOW + 1, : WINDOW * s + 1]
    return (box.q1max, box.q2max), res.boundary_mass, metrics, window


def main() -> None:
    out = {"params": np.array(TRIPLES, dtype=float)}
    boxes, masses, metrics = [], [], []
    for i, triple in enumerate(TRIPLES):
        box, mass, mets, window = reference(*triple)
        print(f"{triple}: box {box[0]}x{box[1]}, boundary mass {mass:.2e}")
        boxes.append(box)
        masses.append(mass)
        metrics.append(mets)
        out[f"window{i}"] = window
    out.update(
        box=np.array(boxes), boundary_mass=np.array(masses), metrics=np.array(metrics)
    )
    np.savez_compressed(Path(__file__).with_name("reference.npz"), **out)


if __name__ == "__main__":
    main()
