import itertools

import numpy as np
import pytest

from conftest import rel_residual
from sedq.compensation import (
    Block,
    TermTree,
    grow_tree,
    horizontal_repair,
    initial_solution,
    serialize_tree,
    vertical_step_neg,
    vertical_step_pos,
)
from sedq.errors import DegenerateQuadratic, SingularSystem
from sedq.kernel import alpha_neg, partner_alpha_pos
from sedq.model import build_rate_matrices, validate_params
from sedq.solver import eval_series

P21 = validate_params(2, 0.5, 0.4)
P34 = validate_params(3, 0.75, 0.4)


def series_prob(tree, L):
    return lambda m, n: eval_series(tree, m, n, L)


def forms(*blocks, where):
    """``prob(m, n)``: the sum of ``blocks`` where ``where(n)``, else zero."""

    def prob(m, n):
        total = np.zeros(blocks[0].vec.shape[1], dtype=complex)
        if where(n):
            for b in blocks:
                total += b.value(np.array([m]), np.array([n]))[0]
        return total

    return prob


def upper(n):
    return n >= 1


def lower(n):
    return n <= -1


def tie_residual(p, alpha, neg, h):
    """The surviving ``n = -1`` row equation of a one-node repair."""
    hv = h.vec[0]
    return (
        -neg.coeff[0] * alpha * p.s
        + alpha * p.s * hv[0]
        + p.arrival_rate * p.q * hv[p.s - 1]
    )


class TestInitialSolution:
    def test_alpha_value(self):
        pos, neg, _ = initial_solution(P21)
        assert pos.alpha[0] == pytest.approx(0.125)
        assert np.all(pos.alpha == pos.alpha[0])
        assert neg.alpha[0] == pytest.approx(0.125)

    def test_lower_coefficient_is_one(self):
        _, neg, _ = initial_solution(P34)
        assert neg.coeff.tolist() == [1.0]

    def test_s1_hand_solved_system(self):
        # s = 1, rho = 0.5, q = 0.5: alpha = 0.25, both kernels share the
        # in-disk root beta = 0.1.  G = lam*(1-q) + alpha = 0.75,
        # M1 = M2 = lam + alpha*s = 1.25, B00 = -3, so the single column is
        # 0.1*1.25 + 0.0625*(-3)/0.75 = -0.125 and the right-hand side is
        # -0.1*1.25 = -0.125, giving c1 = 1; h = alpha/G = 1/3.
        p = validate_params(1, 0.5, 0.5)
        pos, neg, h = initial_solution(p)
        assert pos.beta[0] == pytest.approx(0.1, rel=1e-12)
        assert pos.coeff[0] == pytest.approx(1.0, rel=1e-12)
        assert neg.beta[0] == pytest.approx(0.1, rel=1e-12)
        assert h.vec[0, 0] == pytest.approx(1 / 3, rel=1e-12)

    @pytest.mark.parametrize("p", [P21, P34, validate_params(1, 0.8, 0.7)])
    def test_satisfies_interior_and_horizontal_families(self, p):
        tree = grow_tree(p, 0)
        prob = series_prob(tree, 0)
        rm = build_rate_matrices(p)
        for m in range(1, 5):
            for n in range(-3, 4):
                assert rel_residual(p, prob, m, n, rm) < 1e-10, (m, n)

    def test_violates_vertical_families(self):
        tree = grow_tree(P21, 0)
        prob = series_prob(tree, 0)
        assert rel_residual(P21, prob, 0, 3) > 1e-7
        assert rel_residual(P21, prob, 0, -3) > 1e-7

    def test_tie_equation_holds(self):
        # the lone surviving n = -1 row equation pins alpha = rho^(1+s): the
        # triple is solved with c_{s+1} = 1 in its place and still meets it
        rhos = (0.01, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.99)
        for s, rho, q in itertools.product(range(1, 11), rhos, (0.0, 0.4, 1.0)):
            p = validate_params(s, rho, q)
            pos, neg, h = initial_solution(p)
            alpha = pos.alpha[0]
            residual = abs(tie_residual(p, alpha, neg, h))
            assert residual <= 1e-12 * abs(alpha) * p.s, (s, rho, q)


class TestVerticalStep:
    def test_pos_pair_satisfies_vertical_equations(self):
        pos, _, _ = initial_solution(P21)
        rm = build_rate_matrices(P21)
        new = vertical_step_pos(pos, P21)
        for i in range(len(pos)):
            pair = forms(pos[i : i + 1], new[i : i + 1], where=upper)
            for n in range(2, 6):
                assert rel_residual(P21, pair, 0, n, rm) < 1e-10

    def test_pos_keeps_eigenvector(self):
        pos, _, _ = initial_solution(P34)
        new = vertical_step_pos(pos, P34)
        assert np.max(np.abs(new.vec - pos.vec)) < 1e-12
        assert np.all(np.abs(new.alpha) < np.abs(pos.beta))

    def test_neg_pair_satisfies_vertical_equations(self):
        _, neg, _ = initial_solution(P21)
        rm = build_rate_matrices(P21)
        pair = forms(neg, vertical_step_neg(neg, P21), where=lower)
        for n in range(-5, -1):
            assert rel_residual(P21, pair, 0, n, rm) < 1e-10

    def test_s1_neg_matches_pos_formula(self):
        # with one layer the two quadrants mirror each other: same partner
        # alpha and the scalar coefficient formulas coincide
        p = validate_params(1, 0.5, 0.5)
        pos, neg, _ = initial_solution(p)
        tp = vertical_step_pos(pos, p)
        tn = vertical_step_neg(neg, p)
        assert tn.alpha[0] == pytest.approx(tp.alpha[0], rel=1e-10)
        assert alpha_neg(neg.beta[0], p) == pytest.approx(
            partner_alpha_pos(pos.alpha[0], pos.beta[0], p),
            rel=1e-10,
        )
        ratio_pos = tp.coeff[0] / pos.coeff[0]
        ratio_neg = tn.coeff[0] / neg.coeff[0]
        assert ratio_neg == pytest.approx(ratio_pos, rel=1e-10)


UP, DOWN = np.array([True]), np.array([False])


class TestHorizontalStep:
    def _tilde_terms(self, p):
        tree = grow_tree(p, 1)
        return tree.tilde_pos[1], tree.tilde_neg[1]

    def test_pos_bundle_shape(self):
        tilde_pos, _ = self._tilde_terms(P21)
        t = tilde_pos[0:1]
        pos, neg, h = horizontal_repair(t, UP, P21)
        assert len(pos) == P21.s
        assert h.vec.shape == (1, P21.s)
        d = (t.index[0] - 1) * (P21.s + 1)
        assert pos.index.tolist() == [d + j for j in range(1, P21.s + 1)]
        assert neg.index.tolist() == [t.index[0] * (P21.s + 1)]

    def test_pos_unit_satisfies_horizontal_families(self):
        tilde_pos, _ = self._tilde_terms(P21)
        rm = build_rate_matrices(P21)
        t = tilde_pos[1:2]
        pos, neg, h = horizontal_repair(t, UP, P21)
        parts = [forms(t, pos, where=upper), forms(h, where=lambda n: n == 0),
                 forms(neg, where=lower)]

        def unit(m, n):
            return sum(part(m, n) for part in parts)

        for m in range(1, 5):
            for n in (-1, 0, 1):
                assert rel_residual(P21, unit, m, n, rm) < 1e-10

    def test_neg_unit_satisfies_horizontal_families(self):
        _, tilde_neg = self._tilde_terms(P21)
        rm = build_rate_matrices(P21)
        t = tilde_neg[0:1]
        pos, neg, h = horizontal_repair(t, DOWN, P21)
        parts = [forms(pos, where=upper), forms(h, where=lambda n: n == 0),
                 forms(t, neg, where=lower)]

        def unit(m, n):
            return sum(part(m, n) for part in parts)

        for m in range(1, 5):
            for n in (-1, 0, 1):
                assert rel_residual(P21, unit, m, n, rm) < 1e-10

    def test_pos_tie_row(self):
        tilde_pos, _ = self._tilde_terms(P34)
        t = tilde_pos[0:1]
        _, neg, h = horizontal_repair(t, UP, P34)
        alpha = t.alpha[0]
        resid = tie_residual(P34, alpha, neg, h)
        assert abs(resid) <= 1e-10 * max(abs(alpha) * P34.s, 1e-30)

    def test_neg_tie_row_has_source(self):
        _, tilde_neg = self._tilde_terms(P34)
        t = tilde_neg[0:1]
        _, neg, h = horizontal_repair(t, DOWN, P34)
        alpha = t.alpha[0]
        rhs = t.coeff[0] * alpha * P34.s
        assert tie_residual(P34, alpha, neg, h) == pytest.approx(rhs, rel=1e-9)

    def test_neg_h_equation_is_sourceless(self):
        _, tilde_neg = self._tilde_terms(P34)
        t = tilde_neg[0:1]
        pos, _, h = horizontal_repair(t, DOWN, P34)
        rm = build_rate_matrices(P34)
        alpha = t.alpha[0]
        G = rm.A_01 + alpha * rm.A_m11
        total = G @ h.vec[0] - alpha * (pos.coeff @ pos.vec)
        assert np.max(np.abs(total)) <= 1e-10 * max(abs(alpha), 1e-30)


class TestTreeGrowth:
    def test_level_zero_structure(self):
        tree = grow_tree(P34, 0)
        assert len(tree.hat_pos[0]) == P34.s
        assert len(tree.hat_neg[0]) == 1
        assert len(tree.h_vecs[0]) == 1
        assert tree.passes == 0

    def test_level_one_parent_count(self):
        tree = grow_tree(P34, 2)
        assert len(tree.tilde_pos[1]) + len(tree.tilde_neg[1]) == P34.s + 1
        assert len(tree.hat_pos[1]) == P34.s * (P34.s + 1)
        assert len(tree.hat_neg[1]) == P34.s + 1

    def test_moduli_chain_strictly_decreases(self):
        tree = grow_tree(P21, 10)
        chain = []
        for level in range(6):
            chain.append(tree.max_abs_alpha(level))
            chain.append(tree.max_abs_beta(level))
        assert all(a > b for a, b in zip(chain, chain[1:]))
        assert chain[0] == pytest.approx(P21.rho ** (1 + P21.s))

    def test_geometric_decay(self):
        tree = grow_tree(P21, 8)
        betas = [tree.max_abs_beta(level) for level in range(5)]
        ratios = [b2 / b1 for b1, b2 in zip(betas, betas[1:])]
        assert all(r < 1 for r in ratios)

    def test_vertical_pass_fixes_vertical_families(self):
        tree = grow_tree(P21, 3)
        prob = series_prob(tree, 3)
        for n in (2, 4, -2, -4):
            assert rel_residual(P21, prob, 0, n) < 1e-10

    def test_horizontal_pass_fixes_horizontal_families(self):
        tree = grow_tree(P21, 4)
        prob = series_prob(tree, 4)
        for m in range(1, 4):
            for n in (-1, 0, 1):
                assert rel_residual(P21, prob, m, n) < 1e-10

    def test_interior_families_always_hold(self):
        tree = grow_tree(P21, 5)
        for L in range(6):
            prob = series_prob(tree, L)
            for st in [(1, 2), (2, -3), (3, 4)]:
                assert rel_residual(P21, prob, st[0], st[1]) < 1e-10

    def test_each_term_satisfies_its_inner_equations(self):
        # each product form alone solves its quadrant's interior equations
        tree = grow_tree(P34, 4)
        rm = build_rate_matrices(P34)
        cases = [
            (tree.hat_pos[1], upper, [(1, 2), (2, 3), (3, 2), (4, 4)]),
            (tree.tilde_pos[1], upper, [(1, 2), (2, 3), (3, 2), (4, 4)]),
            (tree.hat_neg[1], lower, [(1, -2), (2, -3), (3, -2), (4, -4)]),
            (tree.tilde_neg[1], lower, [(1, -2), (2, -3), (3, -2), (4, -4)]),
        ]
        for block, where, states in cases:
            for i in range(len(block)):
                one = forms(block[i : i + 1], where=where)
                for (m, n) in states:
                    assert rel_residual(P34, one, m, n, rm) < 1e-10

    def test_real_probabilities_for_complex_branches(self):
        tree = grow_tree(P34, 6)
        for (m, n) in [(0, 1), (2, 3), (1, -2), (3, 0)]:
            vec = eval_series(tree, m, n, 6)
            scale = np.max(np.abs(vec))
            assert np.max(np.abs(vec.imag)) <= 1e-10 * max(scale, 1e-300)

    def test_ensure_passes_is_incremental(self):
        tree = TermTree(P21)
        tree.ensure_passes(2)
        probs_before = eval_series(tree, 1, 1, 2).copy()
        tree.ensure_passes(5)
        assert np.array_equal(eval_series(tree, 1, 1, 2), probs_before)

    def test_failing_repair_names_its_node(self, monkeypatch):
        # a failing stacked chunk is re-run node by node for the tagged error
        import sedq._linalg

        tree = TermTree(P34)
        tree.ensure_passes(3)
        monkeypatch.setattr(sedq._linalg, "COND_LIMIT", 0.0)
        with pytest.raises(SingularSystem) as info:
            tree.ensure_passes(4)
        assert str(info.value).startswith("level 2, node 1: horizontal repair system:")
        assert tree.passes == 3

    def test_failing_vertical_pass_names_its_node(self, monkeypatch):
        import sedq.kernel

        tree = TermTree(P34)
        monkeypatch.setattr(sedq.kernel, "DISTINCT_ATOL", 1e3)
        with pytest.raises(DegenerateQuadratic) as info:
            tree.ensure_passes(1)
        assert str(info.value).startswith("level 0, node 1: ")
        assert tree.passes == 0

    def test_stacked_repair_equals_one_node_at_a_time(self):
        tree = grow_tree(P34, 3)
        terms = Block.join([tree.tilde_pos[2], tree.tilde_neg[2]], P34.s)
        up = np.arange(len(terms)) < len(tree.tilde_pos[2])
        stacked = horizontal_repair(terms, up, P34)
        for i in range(len(terms)):
            one = horizontal_repair(terms[i : i + 1], up[i : i + 1], P34)
            # per node: s upper children, one lower child, one h-vector
            for x, y, k in zip(stacked, one, (P34.s, 1, 1)):
                rows = x[i * k : (i + 1) * k]
                for col in ("index", "alpha", "beta", "coeff", "vec"):
                    assert (getattr(rows, col) == getattr(y, col)).all()

    def test_block_rows_are_taken_by_slice_mask_or_index_array(self):
        block = grow_tree(P21, 0).hat_pos[0]
        assert block[1:].index.tolist() == block.index[1:].tolist()
        assert len(block[np.array([True, False])]) == 1
        assert block[np.array([1, 0])].index.tolist() == [2, 1]
        with pytest.raises(TypeError):
            block[0]


class TestSerialization:
    def test_record_counts_and_round_trip(self):
        tree = grow_tree(P21, 3)
        text = serialize_tree(tree)
        lines = text.strip().split("\n")
        n_terms = sum(
            len(lv)
            for kind in ("hat_pos", "hat_neg", "tilde_pos", "tilde_neg")
            for lv in getattr(tree, kind)
        )
        n_h = sum(len(lv) for lv in tree.h_vecs)
        assert len(lines) == 1 + n_terms + n_h
        header = lines[0].split(",")
        assert header[:3] == ["kind", "level", "index"]
        # records parse back to the stored values
        sample = lines[1].split(",")
        assert sample[0] == "hat_pos"
        assert complex(float(sample[3]), float(sample[4])) == tree.hat_pos[0].alpha[0]
