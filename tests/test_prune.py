"""The prune step: terms below ``PRUNE_FLOOR`` leave their level and are counted.

At the default floor (1e-300) no tested triple prunes anything, so these
tests raise the floor to 1e-3.  For ``(2, 0.5, 0.4)`` that keeps every term
of levels 0 and ``tilde`` 1 (weights 2.4e-3 and up) and drops part of the
``hat`` level 1 (weights 2.8e-4 .. 9.4e-3), so the pruned rows are known from
an unpruned tree of the same depth.
"""

import numpy as np
import pytest

import sedq.compensation as compensation
from sedq.compensation import grow_tree, serialize_tree
from sedq.model import validate_params
from sedq.solver import solve

P21 = validate_params(2, 0.5, 0.4)
FLOOR = 1e-3


def _weights(block):
    return np.abs(block.coeff) * np.abs(block.beta)


@pytest.fixture
def trees(monkeypatch):
    full = grow_tree(P21, 2)
    monkeypatch.setattr(compensation, "PRUNE_FLOOR", FLOOR)
    return full, grow_tree(P21, 2)


def test_floor_drops_part_of_one_level(trees):
    full, _ = trees
    assert full.pruned == 0
    kept = (full.hat_pos[0], full.hat_neg[0], full.tilde_pos[1], full.tilde_neg[1])
    for block in kept:
        assert np.all(_weights(block) >= FLOOR)
    level1 = (full.hat_pos[1], full.hat_neg[1])
    dropped = sum(int(np.sum(_weights(block) < FLOOR)) for block in level1)
    assert 0 < dropped < sum(len(block) for block in level1)


def test_pruned_count_and_rows(trees):
    full, pruned = trees
    expected = 0
    for kind in ("hat_pos", "hat_neg"):
        before, after = getattr(full, kind)[1], getattr(pruned, kind)[1]
        keep = _weights(before) >= FLOOR
        expected += int(np.sum(~keep))
        assert np.array_equal(after.index, before.index[keep])
        assert np.array_equal(after.coeff, before.coeff[keep])
        assert after.vec.shape == (int(np.sum(keep)), P21.s)
    assert pruned.pruned == expected
    # the h-vectors are never pruned
    assert len(pruned.h_vecs[1]) == len(full.h_vecs[1])


def test_pruned_rows_are_missing_from_the_dump(trees):
    full, pruned = trees

    def records(tree):
        lines = serialize_tree(tree).strip().split("\n")[1:]
        return {tuple(line.split(",")[:3]) for line in lines}

    gone = records(full) - records(pruned)
    assert records(pruned) <= records(full)
    assert len(gone) == pruned.pruned
    for kind, level, index in gone:
        block = getattr(full, kind)[int(level)]
        row = list(block.index).index(int(index))
        assert _weights(block)[row] < FLOOR


def test_solve_reports_pruned_terms(monkeypatch):
    monkeypatch.setattr(compensation, "PRUNE_FLOOR", FLOOR)
    sol = solve(P21)
    assert sol.diagnostics["pruned_terms"] == sol.tree.pruned > 0
    assert grow_tree(P21, sol.tree.passes).pruned == sol.tree.pruned
