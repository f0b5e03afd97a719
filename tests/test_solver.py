import numpy as np
import pytest

from conftest import rel_residual
from sedq.compensation import TermTree, grow_tree
from sedq.errors import (
    DepthExceeded,
    GridExceedsTruncation,
    InvalidParam,
    MissingNeighbor,
    NonPositiveMass,
)
from sedq.model import validate_params
from sedq.solver import (
    SolverConfig,
    accuracy_passes,
    boundary_solve,
    eval_series,
    heatmap,
    metrics,
    normalize,
    series_values,
    solution_records,
    solve,
    triangle_states,
)

P21 = validate_params(2, 0.5, 0.4)


@pytest.fixture(scope="module")
def sol21():
    return solve(P21)


class TestTriangle:
    def test_counts(self):
        assert len(list(triangle_states(0))) == 1
        assert len(list(triangle_states(3))) == 16  # (M+1)^2

    def test_membership(self):
        states = set(triangle_states(2))
        assert (0, -2) in states and (2, 0) in states
        assert (2, 1) not in states


class TestEvalSeries:
    def test_initial_axis_value(self):
        tree = grow_tree(P21, 0)
        hv = tree.h_vecs[0]
        for m in (0, 1, 3):
            expected = hv.alpha[0] ** m * hv.vec[0]
            assert np.allclose(eval_series(tree, m, 0, 0), expected)

    def test_initial_upper_value(self):
        tree = grow_tree(P21, 0)
        m, n = 2, 3
        t = tree.hat_pos[0]
        expected = (t.coeff * t.alpha**m * t.beta**n) @ t.vec
        assert np.allclose(eval_series(tree, m, n, 0), expected)

    def test_initial_lower_value(self):
        tree = grow_tree(P21, 0)
        t = tree.hat_neg[0]
        expected = t.coeff[0] * t.alpha[0] ** 2 * t.beta[0] ** 3 * t.vec[0]
        assert np.allclose(eval_series(tree, 2, -3, 0), expected)

    def test_depth_exceeded(self):
        tree = grow_tree(P21, 2)
        with pytest.raises(DepthExceeded):
            eval_series(tree, 1, 1, 3)

    def test_axis_untouched_by_vertical_pass(self):
        tree = grow_tree(P21, 3)
        assert np.array_equal(
            eval_series(tree, 2, 0, 2), eval_series(tree, 2, 0, 3)
        )


class TestAdaptiveL:
    def test_doubling_eps_never_increases_L(self):
        tree = TermTree(P21)
        m, n = np.array([4, 2, 5, 1]), np.array([1, -3, 0, 2])
        _, L_fine = series_values(tree, m, n, 1e-6, 16)
        _, L_coarse = series_values(tree, m, n, 2e-6, 16)
        assert np.all(L_coarse <= L_fine)

    def test_value_matches_eval_series(self):
        tree = TermTree(P21)
        vec, L = series_values(tree, np.array([3]), np.array([2]), 1e-8, 16)
        assert np.allclose(vec[0], eval_series(tree, 3, 2, L[0]))

    def test_accuracy_passes_monotone_in_eps(self):
        tree = TermTree(P21)
        for (m, n) in [(2, 2), (0, 4), (4, -1)]:
            L_loose = accuracy_passes(tree, m, n, 1e-2, 10)
            L_tight = accuracy_passes(tree, m, n, 1e-4, 10)
            assert L_loose <= L_tight

    def test_accuracy_passes_monotone_outward(self):
        tree = TermTree(P21)
        for n in (1, -2):
            Ls = [accuracy_passes(tree, m, n, 1e-4, 10) for m in range(0, 7)]
            assert all(a >= b for a, b in zip(Ls, Ls[1:]))


class TestBoundarySolve:
    def test_system_solution_satisfies_inner_equations(self, sol21):
        M = sol21.M
        out = sol21.m + np.abs(sol21.n) > M
        inner = boundary_solve(P21, sol21.m[out], sol21.n[out], sol21.dist[out], M)
        assert inner.shape == ((M + 1) ** 2, P21.s)
        vals = dict(zip(triangle_states(M), inner))

        def prob(m, n):
            return vals[(m, n)] if (m, n) in vals else sol21.probs[(m, n)]

        for (m, n) in triangle_states(M):
            assert rel_residual(P21, prob, m, n) < 1e-10

    def test_missing_neighbor(self):
        none = np.zeros(0, dtype=int)
        with pytest.raises(MissingNeighbor, match=r"outer state \(\d+, -?\d+\)"):
            boundary_solve(P21, none, none, np.zeros((0, P21.s)), 2)


class TestNormalize:
    def test_already_normalized_is_fixed_point(self):
        vals = np.array([[0.25, 0.25], [0.3, 0.2]])
        probs, C, clipped = normalize(vals)
        assert C == pytest.approx(1.0)
        assert clipped == 0
        assert np.allclose(probs[0], vals[0])

    def test_scale_invariance(self):
        vals = np.array([[2.0, 1.0], [1.0, 0.5]])
        p1, _, _ = normalize(vals)
        p2, _, _ = normalize(7 * vals)
        assert np.allclose(p1, p2)

    def test_negative_dust_clipped(self):
        vals = np.array([[1.0, -1e-13]])
        probs, _, clipped = normalize(vals)
        assert clipped == 1
        assert probs[0][1] == 0.0

    def test_large_negative_rejected(self):
        # a solver failure, not bad input: the CLI exits 1
        with pytest.raises(NonPositiveMass):
            normalize(np.array([[1.0, -1e-9]]))

    def test_zero_mass_rejected(self):
        with pytest.raises(NonPositiveMass):
            normalize(np.zeros((1, 2)))


class TestSolve:
    def test_total_mass_one(self, sol21):
        total = sum(v.sum() for v in sol21.probs.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_probs_are_the_rows_of_dist(self, sol21):
        assert len(sol21.probs) == len(sol21.dist)
        for (m, n), vec in zip(zip(sol21.m, sol21.n), sol21.dist):
            assert np.shares_memory(sol21.probs[(m, n)], vec)

    def test_normalization_constant_applied(self, sol21):
        assert sol21.C > 0

    def test_triangle_sizes(self, sol21):
        assert sol21.N == 1
        assert sol21.M == sol21.N + 2
        assert sol21.K == max(40, sol21.M + 30)
        assert len(sol21.probs) == (sol21.K + 1) ** 2

    def test_nonnegative_real(self, sol21):
        for vec in sol21.probs.values():
            assert np.all(vec >= 0)
        assert sol21.diagnostics["max_rel_imag"] < 1e-9

    def test_l_used_is_aligned_with_dist(self, sol21):
        L = sol21.diagnostics["L_used"]
        inner = sol21.m + np.abs(sol21.n) <= sol21.M
        assert L.dtype.kind == "i" and len(L) == len(sol21.dist)
        assert np.all(L[inner] == 0)
        assert np.all((L[~inner] >= 1) & (L[~inner] <= SolverConfig().L_max))

    def test_balance_on_inner_triangle(self, sol21):
        prob = lambda m, n: sol21.probs[(m, n)]
        for (m, n) in triangle_states(4):
            assert rel_residual(P21, prob, m, n) < 1e-8

    @pytest.mark.parametrize(
        "triple", [(2, 0.5, 0.4), (5, 0.9, 0.4), (1, 0.8, 0.0)]
    )
    def test_max_rel_residual_is_worst_per_state_residual(self, triple):
        p = validate_params(*triple)
        sol = solve(p)
        prob = lambda m, n: sol.probs[(m, n)]
        worst = max(
            rel_residual(p, prob, m, n) for m, n in triangle_states(sol.K - 1)
        )
        assert sol.diagnostics["max_rel_residual"] == pytest.approx(worst, rel=1e-6)

    def test_m_must_exceed_n_index(self):
        with pytest.raises(InvalidParam):
            solve(P21, SolverConfig(M=1))

    def test_k_must_exceed_m(self):
        with pytest.raises(InvalidParam):
            solve(P21, SolverConfig(M=5, K=5))

    def test_mass_concentrates_on_equal_delay_band(self):
        p = validate_params(3, 0.75, 0.4)
        sol = solve(p)
        band = sum(v.sum() for (m, n), v in sol.probs.items() if n == 0)
        above = sum(v.sum() for (m, n), v in sol.probs.items() if n >= 1)
        below = sum(v.sum() for (m, n), v in sol.probs.items() if n <= -1)
        assert band > above
        assert band > below


class TestMetrics:
    def test_symmetric_case_balances_queues(self):
        p = validate_params(1, 0.5, 0.5)
        mets = metrics(solve(p))
        assert mets["mean_q1"] == pytest.approx(mets["mean_q2"], rel=1e-8)
        assert mets["mean_total"] == pytest.approx(
            mets["mean_q1"] + mets["mean_q2"]
        )

    def test_idle_probability(self, sol21):
        assert metrics(sol21)["p_idle"] == pytest.approx(sol21.probs[(0, 0)][0])

    @pytest.mark.parametrize(
        "triple, K", [((2, 0.5, 0.4), None), ((8, 0.9, 0.4), None), ((2, 0.95, 0.4), 120)]
    )
    def test_means_equal_per_state_sum(self, triple, K):
        from sedq.model import InternalState, from_internal

        sol = solve(validate_params(*triple), SolverConfig(K=K))
        mean_q1 = mean_q2 = 0.0
        for (m, n), vec in sol.probs.items():
            for r in range(sol.params.s):
                q1, q2 = from_internal(InternalState(m, n, r), sol.params.s)
                mean_q1 += q1 * vec[r]
                mean_q2 += q2 * vec[r]
        mets = metrics(sol)
        assert mets["mean_q1"] == mean_q1
        assert mets["mean_q2"] == mean_q2
        assert mets["mean_total"] == mean_q1 + mean_q2


class TestHeatmap:
    def test_full_grid_mass(self, sol21):
        s, K = P21.s, sol21.K
        grid = heatmap(sol21, K, s * K + s - 1)
        assert grid.sum() == pytest.approx(1.0, abs=1e-12)

    def test_origin_cell(self, sol21):
        grid = heatmap(sol21, 0, 0)
        assert grid.shape == (1, 1)
        assert grid[0, 0] == pytest.approx(sol21.probs[(0, 0)][0])

    def test_grid_exceeding_truncation_rejected(self, sol21):
        with pytest.raises(GridExceedsTruncation):
            heatmap(sol21, sol21.K + 1, 0)

    def test_negative_extent_rejected(self, sol21):
        with pytest.raises(InvalidParam):
            heatmap(sol21, -1, 3)

    def test_cells_read_the_solution(self, sol21):
        from sedq.model import QueueState, to_internal

        grid = heatmap(sol21, 12, 25)
        for q1 in range(13):
            for q2 in range(26):
                m, n, r = to_internal(QueueState(q1, q2), P21.s)
                assert grid[q1, q2] == sol21.probs[(m, n)][r]


class TestRecords:
    def test_sorted_and_complete(self, sol21):
        rows = solution_records(sol21)
        assert len(rows) == P21.s * (sol21.K + 1) ** 2
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        total = sum(r[5] for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_queue_mapping_consistent(self, sol21):
        m, n, r, q1, q2, _ = solution_records(sol21)[5]
        from sedq.model import QueueState, to_internal

        assert to_internal(QueueState(q1, q2), P21.s) == (m, n, r)
