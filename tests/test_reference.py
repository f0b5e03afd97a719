"""Accuracy golden: ``solve`` at ``eps = 1e-10`` against oracle distributions.

``tests/data/reference.npz`` holds, for eight triples, the probabilities of
the window ``q1 <= 15``, ``q2 <= 15*s`` and the metrics ``mean_q1``,
``mean_q2`` and ``p_idle``, all from :func:`sedq.oracle.oracle_solve` on a
box whose edge mass is below 1e-14 (``tests/data/make_reference.py`` writes
the file).  ``K`` is chosen so that the decay ``rho^((1+s)*K)`` of the
truncated tail is below 1e-13.  Unlike the byte goldens, this gate holds for
a change that moves the last bits on purpose.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from sedq.model import validate_params
from sedq.solver import SolverConfig, heatmap, metrics, solve

REF = np.load(Path(__file__).parent / "data" / "reference.npz")
RTOL = 1e-9
FLOOR = 1e-12


@pytest.mark.parametrize("i", range(len(REF["params"])))
def test_solve_matches_oracle_reference(i):
    s, rho, q = REF["params"][i]
    s = int(s)
    assert REF["boundary_mass"][i] < 1e-14
    K = max(40, math.ceil(math.log(1e-13) / ((1 + s) * math.log(rho))))
    sol = solve(validate_params(s, rho, q), SolverConfig(eps=1e-10, K=K))

    ref = REF[f"window{i}"]
    got = heatmap(sol, ref.shape[0] - 1, ref.shape[1] - 1)
    cells = ref > FLOOR
    assert np.max(np.abs(got[cells] / ref[cells] - 1)) <= RTOL

    mets = metrics(sol)
    got = [mets["mean_q1"], mets["mean_q2"], mets["p_idle"]]
    np.testing.assert_allclose(got, REF["metrics"][i], rtol=RTOL, atol=0)
