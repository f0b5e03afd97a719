import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import branch_residuals
from sedq.errors import DegenerateEigenvector, RootCountMismatch
from sedq.kernel import (
    _cofactor_outside_disk,
    alpha_neg,
    beta_neg,
    betas_pos,
    branch_value_pos,
    det_neg,
    det_pos,
    eigvec_neg,
    eigvec_pos,
    f_pm,
    kernel_matrix_neg,
    kernel_matrix_pos,
    partner_alpha_pos,
    principal_root,
    roots_of_unity,
    v_ratio_roots,
)
from sedq.model import validate_params

P21 = validate_params(2, 0.5, 0.4)
P15 = validate_params(1, 0.5, 0.5)

params_strategy = st.builds(
    validate_params,
    st.integers(1, 5),
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
)


def random_alpha(rng):
    # modulus bounded away from 0 and 1 so the in-disk root laws apply
    return rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())


class TestDetPos:
    @given(params_strategy)
    @settings(max_examples=50)
    def test_one_one_is_always_a_root(self, p):
        # rounding in the s-th power scales with the derivative s^(s+1)
        tol = 1e-13 * (1 + p.s) ** (p.s + 1)
        assert det_pos(1.0, 1.0, p) == pytest.approx(0.0, abs=tol)

    def test_hand_value_s1(self):
        # direct arithmetic: a = 2*1.5 = 3, b = 2*0.5 = 1 at alpha = beta = 0.5:
        # (0.75 - 0.25 - 0.25) - 0.5*0.25 = 0.125
        assert det_pos(0.5, 0.5, P15) == pytest.approx(0.125)

    def test_in_disk_roots_are_roots(self):
        alpha = P21.rho ** (1 + P21.s)
        for beta in betas_pos(alpha, P21):
            assert abs(det_pos(alpha, beta, P21)) <= 1e-10

    @given(params_strategy, st.floats(0.1, 0.9), st.floats(0.1, 0.9))
    @settings(max_examples=50)
    def test_branch_factorization(self, p, am, bm):
        # the product of the branch residuals reconstructs det/(alpha*beta*s)^s
        alpha, beta = complex(am), complex(bm)
        prod = np.prod(
            [branch_value_pos(alpha, beta, i, p) for i in range(1, p.s + 1)]
        )
        expected = det_pos(alpha, beta, p) / (alpha * beta * p.s) ** p.s
        assert prod == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_branch_residual_at_one_one(self):
        # at (1,1) the core ratio is exactly 1, so the u = 1 branch vanishes
        assert branch_value_pos(1.0, 1.0, P15.s, P15) == pytest.approx(0.0, abs=1e-12)

    def test_branch_value_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            branch_value_pos(0.0, 0.5, 1, P21)


class TestBetasPos:
    def test_reference_case(self):
        roots = betas_pos(0.125, P21)
        assert roots.shape == (2,)
        assert np.all(branch_residuals(0.125, roots, P21) <= 1e-12)
        assert np.all(abs(roots) < 0.125)

    def test_s1_quadratic_oracle(self):
        # for s = 1 the determinant is (b+alpha)*beta^2 - a*alpha*beta + alpha^2;
        # at alpha = 0.25: 1.25 b^2 - 0.75 b + 0.0625 with roots {0.5, 0.1}
        roots = betas_pos(0.25, P15)
        assert roots.shape == (1,)
        assert roots[0] == pytest.approx(0.1, rel=1e-12)

    def test_branch_residuals_vanish(self):
        for j, beta in enumerate(betas_pos(0.3 + 0.1j, P21)):
            assert abs(branch_value_pos(0.3 + 0.1j, beta, j + 1, P21)) < 1e-12

    @given(st.integers(1, 4), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_root_count_law(self, s, rho, seed):
        p = validate_params(s, rho, 0.4)
        rng = np.random.default_rng(seed)
        alpha = random_alpha(rng)
        values = betas_pos(alpha, p)
        assert values.shape == (s,)
        assert np.all(branch_residuals(alpha, values, p) <= 1e-12)
        for i in range(s):
            assert abs(values[i]) < abs(alpha)
            for j in range(i + 1, s):
                assert abs(values[i] - values[j]) > 1e-8 * abs(alpha)

    def test_conjugate_closure_for_real_alpha(self):
        p = validate_params(3, 0.6, 0.4)
        values = betas_pos(0.4, p)
        conj = np.conj(values)
        for v in values:
            assert np.min(np.abs(conj - v)) < 1e-12

    def test_rejects_alpha_outside_unit_disk(self):
        with pytest.raises(RootCountMismatch):
            betas_pos(1.2, P21)


class TestPartnerAlpha:
    def test_vieta_product(self):
        beta = betas_pos(0.125, P21)[0]
        other = partner_alpha_pos(0.125, beta, P21)
        product = 0.125 * other
        assert product == pytest.approx(beta**2 * (1 + P21.s) * P21.rho, rel=1e-10)

    def test_identical_eigenvectors(self):
        beta = betas_pos(0.125, P21)[1]
        other = partner_alpha_pos(0.125, beta, P21)
        v1 = eigvec_pos(0.125, beta, P21)
        v2 = eigvec_pos(other, beta, P21)
        assert np.max(np.abs(v1 - v2)) < 1e-12

    def test_s1_explicit_roots(self):
        other = partner_alpha_pos(0.25, 0.1, P15)
        assert other == pytest.approx(0.04, rel=1e-12)
        assert partner_alpha_pos(other, 0.1, P15) == pytest.approx(0.25, rel=1e-10)

    def test_double_root_detected(self):
        # at alpha = beta = 1 (s = 1) the branch quadratic is (alpha - 1)^2
        from sedq.errors import DegenerateQuadratic

        with pytest.raises(DegenerateQuadratic):
            partner_alpha_pos(1.0, 1.0, P15)


class TestFpm:
    def test_hand_value(self):
        fp, fm = f_pm(0.0, P15)
        assert fp == pytest.approx((3 + math.sqrt(5)) / 2)
        assert fm == pytest.approx((3 - math.sqrt(5)) / 2)

    @given(params_strategy, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
    @settings(max_examples=100)
    def test_vieta_identities(self, p, re, im):
        beta = complex(re, im)
        fp, fm = f_pm(beta, p)
        s, rho = p.s, p.rho
        assert fp * fm == pytest.approx((1 + s) * rho / s, rel=1e-12, abs=1e-12)
        assert fp + fm == pytest.approx(
            ((1 + s) * (rho + 1) - beta) / s, rel=1e-12, abs=1e-12
        )

    @given(params_strategy)
    @settings(max_examples=50)
    def test_zero_argument_ordering(self, p):
        fp, fm = f_pm(0.0, p)
        assert fp.imag == pytest.approx(0.0, abs=1e-14)
        assert fp.real > 1
        assert 0 < fm.real < 1


class TestDetNeg:
    def test_hand_root_s1(self):
        # 0.0625 + 0.01 - 0.025 * 2.9 = 0 exactly
        assert det_neg(0.25, 0.1, P15) == pytest.approx(0.0, abs=1e-15)

    def test_not_homogeneous_s2(self):
        val = det_neg(0.3, 0.2, P21)
        scaled = det_neg(0.6, 0.4, P21)
        assert abs(scaled - 4 * val) > 1e-6

    @given(params_strategy, st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
    @settings(max_examples=50)
    def test_waring_form_matches_direct_determinant(self, p, am, bm, pa, pb):
        # det(D-) = (-1)^(s-1) * (alpha*beta)^(s-1) * waring_form
        alpha = am * np.exp(1j * pa)
        beta = bm * np.exp(1j * pb)
        direct = np.linalg.det(kernel_matrix_neg(alpha, beta, p))
        pred = (
            (-1) ** (p.s - 1)
            * alpha ** (p.s - 1)
            * beta ** (p.s - 1)
            * det_neg(alpha, beta, p)
        )
        assert direct == pytest.approx(pred, rel=1e-8, abs=1e-12)


class TestNegRoots:
    def test_beta_neg_s1_oracle(self):
        assert beta_neg(0.25, P15) == pytest.approx(0.1, rel=1e-12)

    def test_alpha_neg_s1_oracle(self):
        assert alpha_neg(0.1, P15) == pytest.approx(0.04, rel=1e-12)

    @given(st.integers(1, 4), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unique_in_disk_root(self, s, rho, seed):
        p = validate_params(s, rho, 0.4)
        rng = np.random.default_rng(seed)
        alpha = random_alpha(rng)
        beta = beta_neg(alpha, p)
        assert abs(beta) < abs(alpha)
        assert abs(det_neg(alpha, beta, p)) <= 1e-10 * max(abs(alpha) ** 2, 1e-30)

    def test_alpha_neg_contract(self):
        beta = beta_neg(0.125, P21)
        alpha = alpha_neg(beta, P21)
        assert abs(alpha) < abs(beta)
        assert abs(det_neg(alpha, beta, P21)) < 1e-12


class TestEigenvectors:
    def test_pos_entry_zero_is_one(self):
        v = eigvec_pos(0.3, 0.2, P21)
        assert v[0] == 1.0

    def test_pos_branch_form(self):
        alpha = 0.125
        for j, beta in enumerate(betas_pos(alpha, P21)):
            v = eigvec_pos(alpha, beta, P21)
            u = roots_of_unity(P21.s)[j]
            expected = (u * principal_root(beta, P21.s)) ** np.arange(P21.s)
            assert np.max(np.abs(v - expected)) < 1e-10

    def test_pos_kernel_residual(self):
        p = validate_params(4, 0.8, 0.4)
        alpha = p.rho ** (1 + p.s)
        for beta in betas_pos(alpha, p):
            v = eigvec_pos(alpha, beta, p)
            D = kernel_matrix_pos(alpha, beta, p)
            assert np.linalg.norm(D @ v) <= 1e-10 * np.linalg.norm(D)

    def test_neg_entry_zero_is_one(self):
        alpha = 0.125
        v = eigvec_neg(alpha, beta_neg(alpha, P21), P21)
        assert v[0] == 1.0

    def test_neg_s1_is_scalar_one(self):
        v = eigvec_neg(0.25, 0.1, P15)
        assert v.shape == (1,)
        assert v[0] == 1.0

    def test_neg_kernel_residual(self):
        p = validate_params(4, 0.8, 0.4)
        alpha = p.rho ** (1 + p.s)
        beta = beta_neg(alpha, p)
        v = eigvec_neg(alpha, beta, p)
        D = kernel_matrix_neg(alpha, beta, p)
        assert np.linalg.norm(D @ v) <= 1e-10 * np.linalg.norm(D)

    def test_degenerate_modes_raise(self):
        # the two geometric modes coincide where the discriminant vanishes
        p = P21
        a = (1 + p.s) * (p.rho + 1)
        beta_star = a - 2 * math.sqrt(p.s * (1 + p.s) * p.rho)
        with pytest.raises(DegenerateEigenvector):
            eigvec_neg(0.3, beta_star, p)

    def test_zero_arguments_rejected(self):
        with pytest.raises(ZeroDivisionError):
            eigvec_pos(0.0, 0.1, P21)
        with pytest.raises(ZeroDivisionError):
            eigvec_neg(0.1, 0.0, P21)


def outside(q):
    # z*q(z) deflated at its root 0 is q itself, bit for bit
    q = np.atleast_2d(q)
    return _cofactor_outside_disk(np.pad(q, ((0, 0), (1, 0))), np.zeros(len(q)))


class TestWinding:
    """The cofactor check passes a row exactly when its winding number is 0."""

    @staticmethod
    def zeros_inside(q):
        # winding number of q around |z| = 1, counted from its zeros
        return sum(abs(r) < 1 for r in np.polynomial.polynomial.polyroots(q))

    def test_double_root_inside(self):
        # (z - 0.5)^2
        q = [0.25, -1.0, 1.0]
        assert self.zeros_inside(q) == 2
        assert outside(q).tolist() == [False]

    def test_stack_counts_each_row(self):
        # zeros 0.5 and 2, 0.5 twice, +-2i, +-2
        stack = [[1.0, -2.5, 1.0], [0.25, -1.0, 1.0], [1.0, 0.0, 0.25], [4, 0, -1]]
        counts = [self.zeros_inside(q) for q in stack]
        assert counts == [1, 2, 0, 0]
        assert outside(stack).tolist() == [c == 0 for c in counts]


class TestCofactorOutsideDisk:
    def test_no_zero_inside(self):
        assert outside([1.0, 0.0, 0.25]).tolist() == [True]

    def test_zero_inside_rejected(self):
        # (z - 0.5)(z - 2) = z^2 - 2.5 z + 1
        assert outside([1.0, -2.5, 1.0]).tolist() == [False]

    def test_zero_on_circle_rejected(self):
        assert outside([-1.0, 1.0]).tolist() == [False]

    def test_nan_row_rejected(self):
        stack = [[1.0, 0.0, 0.25], [np.nan, 0.0, 0.25]]
        assert outside(stack).tolist() == [True, False]

    @pytest.mark.parametrize(
        "roots,expected", [((0.5, 0.25, 3.0), False), ((0.5, -4.0, 3.0), True)]
    )
    def test_deflated_at_a_root(self, roots, expected):
        coeffs = np.polynomial.polynomial.polyfromroots(roots)[None, :]
        assert _cofactor_outside_disk(coeffs, np.array([0.5])).tolist() == [expected]


class TestRoucheIdentity:
    """The closed-form bound that proves the upper-kernel root count."""

    @pytest.mark.parametrize("s", range(1, 21))
    def test_circle_minimum_is_s(self, s):
        z = np.exp(2j * np.pi * np.arange(4096) / 4096)
        for rho in (0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99):
            p = validate_params(s, rho, 0.4)
            a, b = (1 + s) * (rho + 1), (1 + s) * rho
            v_minus, v_plus = v_ratio_roots(p)
            assert b * (1 - v_minus) * (v_plus - 1) == pytest.approx(s, rel=1e-12)
            assert np.min(np.abs(a * z - b * z * z - 1)) >= s * (1 - 1e-12)


STACK_ALPHAS = [0.125, 0.4, 0.05, 0.3 + 0.1j, -0.2 + 0.3j, 0.01 - 0.6j]


class TestStackedRoots:
    """A stack of alphas gives each alpha exactly the bits it gets alone."""

    @pytest.mark.parametrize("p", [P21, validate_params(3, 0.75, 0.4), P15])
    def test_betas_pos_stack_equals_scalar_calls(self, p):
        stacked = betas_pos(np.array(STACK_ALPHAS), p)
        assert stacked.shape == (len(STACK_ALPHAS), p.s)
        assert (stacked == [betas_pos(alpha, p) for alpha in STACK_ALPHAS]).all()

    @pytest.mark.parametrize("p", [P21, validate_params(3, 0.75, 0.4), P15])
    def test_beta_neg_stack_equals_scalar_calls(self, p):
        stacked = beta_neg(np.array(STACK_ALPHAS), p)
        assert (stacked == [beta_neg(alpha, p) for alpha in STACK_ALPHAS]).all()

    @pytest.mark.parametrize("p", [P21, validate_params(3, 0.75, 0.4), P15])
    def test_vertical_roots_and_eigvecs_stack_equal_scalar_calls(self, p):
        alphas = np.array(STACK_ALPHAS)
        betas = beta_neg(alphas, p)
        partners = partner_alpha_pos(alphas, betas, p)
        lower = alpha_neg(betas, p)
        pairs = list(zip(STACK_ALPHAS, betas))
        assert (partners == [partner_alpha_pos(a, b, p) for a, b in pairs]).all()
        assert (lower == [alpha_neg(b, p) for b in betas]).all()
        for fn in (eigvec_pos, eigvec_neg):
            assert (fn(alphas, betas, p) == [fn(a, b, p) for a, b in pairs]).all()

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.99])
    @pytest.mark.parametrize("s", range(1, 11))
    def test_roots_from_tiny_to_near_unit_alpha(self, s, rho):
        # each root has one Newton start, its small-alpha limit; the stack
        # spans |alpha| from where the roots coalesce to the edge of the disk
        p = validate_params(s, rho, 0.4)
        mods = np.logspace(-12, math.log10(0.999), 25)
        alphas = (mods[:, None] * np.exp(2j * np.pi * np.arange(8) / 8)).ravel()
        upper = betas_pos(alphas, p)
        assert np.all(branch_residuals(alphas[:, None], upper, p) <= 1e-12)
        assert np.all(np.abs(upper) < np.abs(alphas)[:, None])
        i, j = np.triu_indices(s, 1)
        gap = np.abs(upper[:, i] - upper[:, j])
        assert np.all(gap > 1e-8 * np.abs(alphas)[:, None] ** (1 + 1 / s))
        lower = beta_neg(alphas, p)
        assert np.all(np.abs(lower) < np.abs(alphas))
        fp, fm = f_pm(lower, p)
        a, b = np.abs(alphas), np.abs(lower)
        terms = a * a * s**s + b * b * ((1 + s) * rho) ** s
        terms += a * b * s**s * (np.abs(fp) ** s + np.abs(fm) ** s)
        assert np.all(np.abs(det_neg(alphas, lower, p)) <= 1e-12 * terms)

    def test_stack_rejects_any_alpha_outside_unit_disk(self):
        with pytest.raises(RootCountMismatch):
            betas_pos(np.array([0.125, 1.2]), P21)
