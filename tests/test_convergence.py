import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedq.convergence import (
    compute_N,
    limit_coeffs,
    limit_roots,
    ratio_matrix,
    spectral_radius,
)
from sedq.errors import InvalidParam, SingularSystem
from sedq.model import validate_params

params_strategy = st.builds(
    validate_params,
    st.integers(1, 5),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
)


class TestLimitRoots:
    def test_closed_form_s2(self):
        p = validate_params(2, 0.5, 0.4)
        v_minus, v_plus, *_ = limit_roots(p)
        disc = math.sqrt(1.5**2 - 4 * 0.5 / 3)
        assert v_plus == pytest.approx((1.5 + disc) / 1.0)
        assert v_minus == pytest.approx((1.5 - disc) / 1.0)

    @given(params_strategy)
    @settings(max_examples=100)
    def test_vieta_and_reciprocal_identities(self, p):
        v_minus, v_plus, w_minus, w_plus, f0m, f0p = limit_roots(p)
        b = (1 + p.s) * p.rho
        assert v_plus * v_minus * b == pytest.approx(1.0, abs=1e-12)
        assert w_minus * f0p**p.s == pytest.approx(1.0, abs=1e-12)
        assert w_plus * f0m**p.s == pytest.approx(1.0, abs=1e-12)

    @given(params_strategy)
    @settings(max_examples=100)
    def test_orderings(self, p):
        v_minus, v_plus, w_minus, w_plus, f0m, f0p = limit_roots(p)
        assert 0 < v_minus < 1 < v_plus
        assert 0 < w_minus < 1 < w_plus
        assert 0 < f0m < 1 < f0p


class TestLimitCoeffs:
    def test_vertical_ratio_closed_form(self):
        p = validate_params(3, 0.6, 0.4)
        c = limit_coeffs(p)
        b = (1 + p.s) * p.rho
        expected = -(1 - c.v_minus * b) / (1 - c.v_plus * b)
        assert c.K_pos_cv == pytest.approx(expected, rel=1e-12)

    def test_s1_hand_solved_limit_system(self):
        # for one layer the limit system collapses to
        #   [[v-, 0], [-1, lam*(1-q)]] [a, b] = [-v+ - Kchs1*w-, 1]
        # so a = -(v+ + Kchs1*w-)/v-
        p = validate_params(1, 0.5, 0.5)
        c = limit_coeffs(p)
        tie = c.v_minus * 1 * (1 - p.q) / p.q
        chs1 = (c.v_minus - c.v_plus) / (tie + c.w_minus)
        assert c.K_pos_chs1 == pytest.approx(chs1, rel=1e-12)
        expected_a = -(c.v_plus + chs1 * c.w_minus) / c.v_minus
        assert c.K_pos_ch == pytest.approx(abs(expected_a), rel=1e-12)

    def test_neg_vertical_ratio_closed_form(self):
        p = validate_params(2, 0.7, 0.3)
        c = limit_coeffs(p)
        b = (1 + p.s) * p.rho
        s = p.s
        expected = -(s - c.w_minus * b * c.f0_plus ** (s - 1)) / (
            s - c.w_plus * b * c.f0_minus ** (s - 1)
        )
        assert c.K_neg_cv == pytest.approx(expected, rel=1e-12)

    def test_tie_always_to_queue_two_limits(self):
        c = limit_coeffs(validate_params(2, 0.5, 0.0))
        assert c.K_pos_chs1 == 0.0
        assert c.K_neg_chs1 == pytest.approx(-1.0)

    def test_tie_always_to_queue_one_is_singular(self):
        with pytest.raises(SingularSystem):
            limit_coeffs(validate_params(2, 0.5, 1.0))

    @pytest.mark.parametrize(
        "s,rho,name", [(80, 0.9, "w_plus"), (120, 0.5, "w_minus"), (143, 0.05, "w_minus")]
    )
    def test_overflowing_constant_is_named(self, s, rho, name):
        with np.errstate(all="ignore"):
            with pytest.raises(InvalidParam, match=rf"s = {s} .* {name} overflows"):
                limit_coeffs(validate_params(s, rho, 0.4))

    def test_empirical_level8_agreement(self):
        # the realized vertical/horizontal coefficient ratio approaches the
        # closed form as the tree deepens, with a shrinking gap
        from sedq.compensation import grow_tree

        p = validate_params(1, 0.6, 0.4)
        c = limit_coeffs(p)
        tree = grow_tree(p, 16)

        def worst_gap(level):
            hat = tree.hat_pos[level - 1]
            coeff = dict(zip(hat.index.tolist(), hat.coeff))
            tilde = tree.tilde_pos[level]
            parent = np.array([coeff[i] for i in tilde.index.tolist()])
            return np.max(np.abs(tilde.coeff / parent - c.K_pos_cv)) / abs(c.K_pos_cv)

        assert worst_gap(8) < 0.05
        assert worst_gap(8) < worst_gap(4) < worst_gap(2)


class TestRatioMatrix:
    def setup_method(self):
        self.p = validate_params(2, 0.5, 0.4)
        self.c = limit_coeffs(self.p)

    def test_upper_block_entries(self):
        c = self.c
        m, n = 2, 1
        R = ratio_matrix("R1", m, n, c)
        expected = (
            c.K_pos_ch * abs(c.K_pos_cv) * (c.v_minus / c.v_plus) ** (m + abs(n))
        )
        assert np.allclose(R[0 : c.s, 0 : c.s], expected)

    def test_lower_corner_entry(self):
        c = self.c
        m, n = 3, 2
        for kind in ("R1", "R2"):
            R = ratio_matrix(kind, m, n, c)
            expected = (
                abs(c.K_neg_chs1)
                * abs(c.K_neg_cv)
                * (c.w_minus / c.w_plus) ** (m + abs(n))
            )
            assert R[c.s, c.s] == pytest.approx(expected)

    def test_r3_is_r2_on_axis(self):
        R3 = ratio_matrix("R3", 4, 0, self.c)
        R2 = ratio_matrix("R2", 4, 0, self.c)
        assert np.array_equal(R3, R2)

    def test_nonnegative_and_monotone(self):
        for kind in ("R1", "R2"):
            prev = None
            for k in range(1, 8):
                R = ratio_matrix(kind, k, 1, self.c)
                assert np.all(R >= 0)
                rad = spectral_radius(R)
                if prev is not None:
                    assert rad < prev
                prev = rad

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ratio_matrix("R4", 1, 1, self.c)


class TestRatioMatrixAgainstTree:
    def test_entries_attained_by_deep_term_ratios(self):
        # each case entry should be the asymptotic max of the realized
        # child/parent contribution ratios of its type; a wrong factor in
        # the table would miss by v or w ratios (several times off)
        from sedq.compensation import Block, grow_tree

        p = validate_params(2, 0.5, 0.4)
        s = p.s
        c = limit_coeffs(p)
        tree = grow_tree(p, 12)

        def weight(block, m, nn):
            alpha, beta = np.abs(block.alpha), np.abs(block.beta)
            return np.abs(block.coeff) * alpha**m * beta**nn

        def worst_ratios(parents_pos, parents_neg, kids_pos, kids_neg, m, nn):
            parents = Block.join([parents_pos, parents_neg], s)
            row = dict(zip(parents.index.tolist(), range(len(parents))))
            worst = {}
            for kids, kind in ((kids_pos, "pos"), (kids_neg, "neg")):
                if kind == "pos":
                    kappa = (kids.index - 1) // (s + 1) + 1
                else:
                    kappa = kids.index // (s + 1)
                at = np.array([row[k] for k in kappa.tolist()], dtype=int)
                r = weight(kids, m, nn) / weight(parents, m, nn)[at]
                from_pos = at < len(parents_pos)
                for j, rows in (("pos", from_pos), ("neg", ~from_pos)):
                    if rows.any():
                        worst[(j, kind)] = r[rows].max()
            return worst

        m, nn = 2, 1
        cases = {
            ("pos", "pos"): (0, 0),
            ("pos", "neg"): (0, s),
            ("neg", "pos"): (s, 0),
            ("neg", "neg"): (s, s),
        }
        r1 = worst_ratios(
            tree.hat_pos[5], tree.hat_neg[5], tree.hat_pos[6], tree.hat_neg[6],
            m, nn,
        )
        R1 = ratio_matrix("R1", m, nn, c)
        for key, (i, j) in cases.items():
            assert 0.7 < r1[key] / R1[i, j] < 1.05, ("R1", key)
        r2 = worst_ratios(
            tree.tilde_pos[5], tree.tilde_neg[5],
            tree.tilde_pos[6], tree.tilde_neg[6], m, nn,
        )
        R2 = ratio_matrix("R2", m, nn, c)
        for key, (i, j) in cases.items():
            assert 0.7 < r2[key] / R2[i, j] < 1.05, ("R2", key)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_rank_one(self):
        assert spectral_radius(np.ones((2, 2))) == pytest.approx(2.0)

    def test_against_power_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mat = rng.uniform(0.1, 1.0, size=(3, 3))
            v = np.ones(3)
            for _ in range(10_000):
                v = mat @ v
                v /= np.linalg.norm(v)
            lam = float(v @ mat @ v)
            assert spectral_radius(mat) == pytest.approx(lam, rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestComputeN:
    @pytest.mark.parametrize("s", [2, 5])
    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_reference_table(self, s, rho):
        assert compute_N(validate_params(s, rho, 0.4)) == 1

    def test_frontier_radii_below_one(self):
        p = validate_params(2, 0.5, 0.4)
        N = compute_N(p)
        c = limit_coeffs(p)
        k = N + 1
        for nn in range(1, k + 1):
            assert spectral_radius(ratio_matrix("R1", k - nn, nn, c)) < 1
            assert spectral_radius(ratio_matrix("R2", k - nn, nn, c)) < 1
        assert spectral_radius(ratio_matrix("R3", N, 0, c)) < 1

    def test_radius_shrinks_beyond_frontier(self):
        p = validate_params(2, 0.5, 0.4)
        c = limit_coeffs(p)
        N = compute_N(p)
        r1 = spectral_radius(ratio_matrix("R1", N + 1, 1, c))
        r2 = spectral_radius(ratio_matrix("R1", N + 2, 1, c))
        assert r2 < r1
