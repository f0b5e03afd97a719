import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedq.errors import InvalidParam, MissingNeighbor, UnstableSystem
from sedq.model import (
    InternalState,
    QueueState,
    balance_residual,
    build_rate_matrices,
    equation_family,
    from_internal,
    to_internal,
    validate_params,
)


class TestValidateParams:
    def test_reference_parameters(self):
        p = validate_params(3, 0.75, 0.4)
        assert p.arrival_rate == pytest.approx(3.0)

    def test_boundary_rho_is_unstable(self):
        with pytest.raises(UnstableSystem):
            validate_params(2, 1.0, 0.5)

    def test_degenerate_symmetric_case(self):
        p = validate_params(1, 0.5, 0.5)
        assert p.arrival_rate == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "s,rho,q",
        [(0, 0.5, 0.5), (-1, 0.5, 0.5), (2, 0.0, 0.5), (2, -0.3, 0.5),
         (2, 0.5, -0.1), (2, 0.5, 1.1), (2.5, 0.5, 0.5), (2, float("nan"), 0.4)],
    )
    def test_rejects_bad_parameters(self, s, rho, q):
        with pytest.raises(InvalidParam):
            validate_params(s, rho, q)

    def test_rho_above_one_is_unstable_not_invalid(self):
        with pytest.raises(UnstableSystem):
            validate_params(2, 1.5, 0.5)

    @pytest.mark.parametrize("s", [144, 150, 10**6, 1e300])
    def test_s_whose_power_overflows_rejected(self, s):
        with pytest.raises(InvalidParam, match=r"s = \d+ is too large: s\*\*s"):
            validate_params(s, 0.5, 0.4)

    def test_largest_s_with_finite_power_accepted(self):
        # 143**143 is about 1.6e308, still a float
        assert validate_params(143, 0.5, 0.4).s == 143

    def test_integral_float_s_accepted(self):
        assert validate_params(3.0, 0.5, 0.5).s == 3

    def test_lambda_is_derived(self):
        p = validate_params(4, 0.8, 0.4)
        assert p.arrival_rate == p.rho * (1 + p.s)


class TestStateMapping:
    @pytest.mark.parametrize(
        "q1,q2,s,expected",
        [
            (1, 7, 3, (1, 1, 1)),
            (0, 0, 4, (0, 0, 0)),
            (5, 3, 2, (1, -4, 1)),
        ],
    )
    def test_to_internal(self, q1, q2, s, expected):
        assert to_internal(QueueState(q1, q2), s) == expected

    @pytest.mark.parametrize(
        "m,n,r,s,expected",
        [
            (1, 1, 1, 3, (1, 7)),
            (0, 0, 0, 4, (0, 0)),
            (1, -4, 1, 2, (5, 3)),
        ],
    )
    def test_from_internal(self, m, n, r, s, expected):
        assert from_internal(InternalState(m, n, r), s) == expected

    @given(
        s=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_round_trip_bijection(self, s, data):
        q1 = data.draw(st.integers(0, 10 * s))
        q2 = data.draw(st.integers(0, 10 * s))
        st_q = QueueState(q1, q2)
        assert from_internal(to_internal(st_q, s), s) == st_q

    @given(s=st.integers(1, 8), m=st.integers(0, 20), n=st.integers(-20, 20),
           data=st.data())
    @settings(max_examples=200)
    def test_round_trip_internal_side(self, s, m, n, data):
        r = data.draw(st.integers(0, s - 1))
        st_i = InternalState(m, n, r)
        assert to_internal(from_internal(st_i, s), s) == st_i

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_round_trip_array_form_matches_scalar_form(self, s):
        # queue side: 0 <= q1 < 9, 0 <= q2 < 9s covers n < 0, n = 0, n > 0
        # and every remainder r
        q1, q2 = np.meshgrid(np.arange(9), np.arange(9 * s), indexing="ij")
        m, n, r = to_internal(QueueState(q1, q2), s)
        assert (n < 0).any() and (n == 0).any() and (n > 0).any()
        assert set(r.ravel().tolist()) == set(range(s))
        for a, b, i, j, k in zip(*(x.ravel().tolist() for x in (q1, q2, m, n, r))):
            assert to_internal(QueueState(a, b), s) == (i, j, k)
        back = from_internal(InternalState(m, n, r), s)
        assert np.array_equal(back[0], q1) and np.array_equal(back[1], q2)
        for i, j, k, a, b in zip(*(x.ravel().tolist() for x in (m, n, r, *back))):
            assert from_internal(InternalState(i, j, k), s) == (a, b)

    def test_scalar_results_are_hashable_ints(self):
        st_i = to_internal(QueueState(5, 3), 2)
        st_q = from_internal(st_i, 2)
        assert {st_i: 1, st_q: 2}[st_i] == 1
        assert [type(x) for x in (*st_i, *st_q)] == [int] * 5


class TestRateMatrices:
    def test_hand_evaluated_s1(self):
        rm = build_rate_matrices(validate_params(1, 0.5, 0.5))
        assert rm.A_1m1 == pytest.approx(np.array([[1.0]]))
        assert rm.A_00 == pytest.approx(np.array([[-3.0]]))
        assert rm.B_00 == pytest.approx(np.array([[-3.0]]))

    def test_service_block_single_entry(self):
        rm = build_rate_matrices(validate_params(2, 0.7, 0.3))
        expected = np.zeros((2, 2))
        expected[1, 0] = 2.0
        assert rm.A_0m1 == pytest.approx(expected)
        assert rm.B_m1m1 == pytest.approx(expected)

    @given(s=st.integers(1, 8), rho=st.floats(0.05, 0.95), q=st.floats(0, 1))
    @settings(max_examples=100)
    def test_conservation_rows(self, s, rho, q):
        rm = build_rate_matrices(validate_params(s, rho, q))
        upper = rm.A_00 + rm.A_1m1 + rm.A_m11 + rm.A_0m1
        lower = rm.B_00 + rm.B_11 + rm.B_01 + rm.B_m1m1
        assert np.allclose(upper.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(lower.sum(axis=1), 0.0, atol=1e-12)

    def test_signs(self):
        rm = build_rate_matrices(validate_params(3, 0.6, 0.4))
        for name in ("A_1m1", "A_01", "A_m11", "A_0m1", "B_11", "B_01", "B_0m1", "B_m1m1"):
            assert np.all(getattr(rm, name) >= 0), name
        for name in ("A_00", "B_00"):
            mat = getattr(rm, name)
            off = mat - np.diag(np.diag(mat))
            assert np.all(off >= 0)
            assert np.all(np.diag(mat) < 0)

    def test_blocks_read_only(self):
        rm = build_rate_matrices(validate_params(2, 0.5, 0.4))
        with pytest.raises(ValueError):
            rm.A_00[0, 0] = 1.0


class TestEquationSelector:
    def test_total_and_unique(self):
        seen = set()
        for m in range(0, 6):
            for n in range(-6, 7):
                fam = equation_family(m, n)
                seen.add(fam)
        assert seen == {"I+", "I-", "H+", "H-", "H", "V+", "V-", "O+", "O-", "O0"}

    @pytest.mark.parametrize(
        "m,n,fam",
        [
            (3, 5, "I+"), (3, -5, "I-"), (2, 1, "H+"), (2, -1, "H-"),
            (2, 0, "H"), (0, 2, "V+"), (0, -2, "V-"), (0, 1, "O+"),
            (0, -1, "O-"), (0, 0, "O0"),
        ],
    )
    def test_families(self, m, n, fam):
        assert equation_family(m, n) == fam

    def test_negative_m_rejected(self):
        with pytest.raises(InvalidParam):
            equation_family(-1, 0)


class TestBalanceResidual:
    def test_uniform_is_not_stationary(self, p212):
        # interior stencils telescope to conservation rows, so probe the
        # vertical boundary where a flat profile genuinely breaks balance
        uniform = lambda m, n: np.ones(p212.s)
        res = balance_residual(p212, uniform, (0, 2, 0))
        assert np.max(np.abs(res)) > 0.1

    def test_missing_neighbor(self, p212):
        table = {(2, 2): np.ones(2)}

        def prob(m, n):
            return table[(m, n)]

        with pytest.raises(MissingNeighbor):
            balance_residual(p212, prob, (2, 2, 0))

    def test_none_counts_as_missing(self, p212):
        with pytest.raises(MissingNeighbor):
            balance_residual(p212, lambda m, n: None, (2, 2, 0))
