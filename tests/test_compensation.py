import numpy as np
import pytest

from conftest import rel_residual
from sedq.compensation import (
    TermTree,
    grow_tree,
    horizontal_repair,
    initial_solution,
    serialize_tree,
    vertical_step_neg,
    vertical_step_pos,
)
from sedq.errors import SingularSystem
from sedq.kernel import alpha_neg, partner_alpha_pos
from sedq.model import build_rate_matrices, validate_params
from sedq.solver import eval_series

P21 = validate_params(2, 0.5, 0.4)
P34 = validate_params(3, 0.75, 0.4)


def series_prob(tree, L):
    return lambda m, n: eval_series(tree, m, n, L)


class TestInitialSolution:
    def test_alpha_value(self):
        bundle = initial_solution(P21)
        assert bundle.pos[0].alpha == pytest.approx(0.125)
        assert all(t.alpha == bundle.pos[0].alpha for t in bundle.pos)
        assert bundle.neg.alpha == pytest.approx(0.125)

    def test_lower_coefficient_is_one(self):
        bundle = initial_solution(P34)
        assert bundle.neg.coeff == 1.0

    def test_s1_hand_solved_system(self):
        # s = 1, rho = 0.5, q = 0.5: alpha = 0.25, both kernels share the
        # in-disk root beta = 0.1.  G = lam*(1-q) + alpha = 0.75,
        # M1 = M2 = lam + alpha*s = 1.25, B00 = -3, so the single column is
        # 0.1*1.25 + 0.0625*(-3)/0.75 = -0.125 and the right-hand side is
        # -0.1*1.25 = -0.125, giving c1 = 1; h = alpha/G = 1/3.
        p = validate_params(1, 0.5, 0.5)
        bundle = initial_solution(p)
        assert bundle.pos[0].beta == pytest.approx(0.1, rel=1e-12)
        assert bundle.pos[0].coeff == pytest.approx(1.0, rel=1e-12)
        assert bundle.neg.beta == pytest.approx(0.1, rel=1e-12)
        assert bundle.h.vec[0] == pytest.approx(1 / 3, rel=1e-12)

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
        # the lone surviving n = -1 row equation pins alpha = rho^(1+s)
        for p in (P21, P34):
            bundle = initial_solution(p)
            alpha = bundle.pos[0].alpha
            h = bundle.h.vec
            resid = (
                -bundle.neg.coeff * alpha * p.s
                + alpha * p.s * h[0]
                + p.arrival_rate * p.q * h[p.s - 1]
            )
            assert abs(resid) <= 1e-12 * abs(alpha) * p.s


class TestVerticalStep:
    def test_pos_pair_satisfies_vertical_equations(self):
        bundle = initial_solution(P21)
        rm = build_rate_matrices(P21)
        for t in bundle.pos:
            new = vertical_step_pos(t, P21)

            def pair(m, n):
                if n < 1:
                    return np.zeros(P21.s, dtype=complex)
                return (
                    t.coeff * t.alpha**m * t.beta**n * t.vec
                    + new.coeff * new.alpha**m * new.beta**n * new.vec
                )

            for n in range(2, 6):
                assert rel_residual(P21, pair, 0, n, rm) < 1e-10

    def test_pos_keeps_eigenvector(self):
        bundle = initial_solution(P34)
        for t in bundle.pos:
            new = vertical_step_pos(t, P34)
            assert np.max(np.abs(new.vec - t.vec)) < 1e-12
            assert abs(new.alpha) < abs(t.beta)

    def test_neg_pair_satisfies_vertical_equations(self):
        bundle = initial_solution(P21)
        rm = build_rate_matrices(P21)
        t = bundle.neg
        new = vertical_step_neg(t, P21)

        def pair(m, n):
            if n > -1:
                return np.zeros(P21.s, dtype=complex)
            k = -n
            return (
                t.coeff * t.alpha**m * t.beta**k * t.vec
                + new.coeff * new.alpha**m * new.beta**k * new.vec
            )

        for n in range(-5, -1):
            assert rel_residual(P21, pair, 0, n, rm) < 1e-10

    def test_s1_neg_matches_pos_formula(self):
        # with one layer the two quadrants mirror each other: same partner
        # alpha and the scalar coefficient formulas coincide
        p = validate_params(1, 0.5, 0.5)
        bundle = initial_solution(p)
        tp = vertical_step_pos(bundle.pos[0], p)
        tn = vertical_step_neg(bundle.neg, p)
        assert tn.alpha == pytest.approx(tp.alpha, rel=1e-10)
        assert alpha_neg(bundle.neg.beta, p) == pytest.approx(
            partner_alpha_pos(bundle.pos[0].alpha, bundle.pos[0].beta, p),
            rel=1e-10,
        )
        ratio_pos = tp.coeff / bundle.pos[0].coeff
        ratio_neg = tn.coeff / bundle.neg.coeff
        assert ratio_neg == pytest.approx(ratio_pos, rel=1e-10)


class TestHorizontalStep:
    def _tilde_terms(self, p):
        tree = grow_tree(p, 1)
        return tree.tilde_pos[1], tree.tilde_neg[1]

    def test_pos_bundle_shape(self):
        tilde_pos, _ = self._tilde_terms(P21)
        bundle = horizontal_repair([tilde_pos[0]], [True], P21)[0]
        assert len(bundle.pos) == P21.s
        assert bundle.h.vec.shape == (P21.s,)
        d = (tilde_pos[0].index - 1) * (P21.s + 1)
        assert [t.index for t in bundle.pos] == [d + j for j in range(1, P21.s + 1)]
        assert bundle.neg.index == tilde_pos[0].index * (P21.s + 1)

    def test_pos_unit_satisfies_horizontal_families(self):
        tilde_pos, _ = self._tilde_terms(P21)
        rm = build_rate_matrices(P21)
        t = tilde_pos[1]
        bundle = horizontal_repair([t], [True], P21)[0]

        def unit(m, n):
            vec = np.zeros(P21.s, dtype=complex)
            if n >= 1:
                vec += t.coeff * t.alpha**m * t.beta**n * t.vec
                for ht in bundle.pos:
                    vec += ht.coeff * ht.alpha**m * ht.beta**n * ht.vec
            elif n == 0:
                vec += bundle.h.alpha**m * bundle.h.vec
            else:
                vec += (
                    bundle.neg.coeff
                    * bundle.neg.alpha**m
                    * bundle.neg.beta ** (-n)
                    * bundle.neg.vec
                )
            return vec

        for m in range(1, 5):
            for n in (-1, 0, 1):
                assert rel_residual(P21, unit, m, n, rm) < 1e-10

    def test_neg_unit_satisfies_horizontal_families(self):
        _, tilde_neg = self._tilde_terms(P21)
        rm = build_rate_matrices(P21)
        t = tilde_neg[0]
        bundle = horizontal_repair([t], [False], P21)[0]

        def unit(m, n):
            vec = np.zeros(P21.s, dtype=complex)
            if n >= 1:
                for ht in bundle.pos:
                    vec += ht.coeff * ht.alpha**m * ht.beta**n * ht.vec
            elif n == 0:
                vec += bundle.h.alpha**m * bundle.h.vec
            else:
                vec += t.coeff * t.alpha**m * t.beta ** (-n) * t.vec
                vec += (
                    bundle.neg.coeff
                    * bundle.neg.alpha**m
                    * bundle.neg.beta ** (-n)
                    * bundle.neg.vec
                )
            return vec

        for m in range(1, 5):
            for n in (-1, 0, 1):
                assert rel_residual(P21, unit, m, n, rm) < 1e-10

    def test_pos_tie_row(self):
        tilde_pos, _ = self._tilde_terms(P34)
        bundle = horizontal_repair([tilde_pos[0]], [True], P34)[0]
        alpha = tilde_pos[0].alpha
        h = bundle.h.vec
        resid = (
            -bundle.neg.coeff * alpha * P34.s
            + alpha * P34.s * h[0]
            + P34.arrival_rate * P34.q * h[P34.s - 1]
        )
        assert abs(resid) <= 1e-10 * max(abs(alpha) * P34.s, 1e-30)

    def test_neg_tie_row_has_source(self):
        _, tilde_neg = self._tilde_terms(P34)
        t = tilde_neg[0]
        bundle = horizontal_repair([t], [False], P34)[0]
        alpha = t.alpha
        h = bundle.h.vec
        lhs = (
            -bundle.neg.coeff * alpha * P34.s
            + alpha * P34.s * h[0]
            + P34.arrival_rate * P34.q * h[P34.s - 1]
        )
        rhs = t.coeff * alpha * P34.s
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_neg_h_equation_is_sourceless(self):
        _, tilde_neg = self._tilde_terms(P34)
        t = tilde_neg[0]
        bundle = horizontal_repair([t], [False], P34)[0]
        rm = build_rate_matrices(P34)
        G = rm.A_01 + t.alpha * rm.A_m11
        total = G @ bundle.h.vec - t.alpha * sum(
            ht.coeff * ht.vec for ht in bundle.pos
        )
        assert np.max(np.abs(total)) <= 1e-10 * max(abs(t.alpha), 1e-30)


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
        for t in [*tree.hat_pos[1], *tree.tilde_pos[1]]:
            def one(m, n, t=t):
                if n < 1:
                    return np.zeros(P34.s, dtype=complex)
                return t.coeff * t.alpha**m * t.beta**n * t.vec
            for (m, n) in [(1, 2), (2, 3), (3, 2), (4, 4)]:
                assert rel_residual(P34, one, m, n, rm) < 1e-10
        for t in [*tree.hat_neg[1], *tree.tilde_neg[1]]:
            def one(m, n, t=t):
                if n > -1:
                    return np.zeros(P34.s, dtype=complex)
                return t.coeff * t.alpha**m * t.beta ** (-n) * t.vec
            for (m, n) in [(1, -2), (2, -3), (3, -2), (4, -4)]:
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

    def test_stacked_repair_equals_one_node_at_a_time(self):
        tree = grow_tree(P34, 3)
        terms = [*tree.tilde_pos[2], *tree.tilde_neg[2]]
        upper = [True] * len(tree.tilde_pos[2]) + [False] * len(tree.tilde_neg[2])
        stacked = horizontal_repair(terms, upper, P34)
        for t, up, b in zip(terms, upper, stacked):
            one = horizontal_repair([t], [up], P34)[0]
            for x, y in zip([*b.pos, b.neg, b.h], [*one.pos, one.neg, one.h]):
                assert x[:4] == y[:4]  # index, alpha, beta, coeff
                assert np.array_equal(x.vec, y.vec)


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
        assert complex(float(sample[3]), float(sample[4])) == tree.hat_pos[0][0].alpha
