"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria touch every layer: kernel root laws, the convergence-index
table, balance residuals of the assembled solution, agreement with the
independent truncated-chain oracle and the seeded simulator, and the
qualitative structure of the distribution.
"""

import numpy as np
import pytest

from conftest import branch_residuals, rel_residual
from sedq.compensation import grow_tree, initial_solution
from sedq.convergence import compute_N, limit_coeffs, limit_roots
from sedq.kernel import beta_neg, betas_pos, det_pos, _det_pos_scale
from sedq.model import QueueState, to_internal, validate_params
from sedq.oracle import (
    SimConfig,
    TruncationBox,
    compare,
    oracle_solve,
    sim_standard_errors,
    simulate,
)
from sedq.solver import SolverConfig, accuracy_passes, solve, triangle_states

SIX_TRIPLES = [(s, rho, 0.4) for s in (1, 2, 4) for rho in (0.3, 0.8)]


def _report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def test_01_initial_alpha_exactness():
    rng = np.random.default_rng(20240)
    for _ in range(20):
        s = int(rng.integers(1, 9))
        rho = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        p = validate_params(s, rho, q)
        pos, neg, hv = initial_solution(p)
        alpha = pos.alpha[0]
        assert alpha == pytest.approx(rho ** (1 + s), rel=4e-16, abs=0)
        # the shared decay rate is what makes the tie-breaking row solvable
        h = hv.vec[0]
        resid = abs(
            -neg.coeff[0] * alpha * s
            + alpha * s * h[0]
            + p.arrival_rate * q * h[s - 1]
        )
        assert resid <= 1e-8 * abs(alpha) * s
    _report(1, "initial decay rate equals rho^(1+s) for 20 random (s, rho, q)")


def test_02_convergence_index_table():
    cells = 0
    for s in (2, 5):
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert compute_N(validate_params(s, rho, 0.4)) == 1
            cells += 1
    assert cells == 10
    _report(2, "convergence index N = 1 on all 10 reference cells (q = 0.4)")


def test_03_root_count_law():
    rng = np.random.default_rng(31337)
    checked = 0
    for s in (1, 2, 4):
        for rho in (0.3, 0.8):
            p = validate_params(s, rho, 0.4)
            for _ in range(200):
                alpha = rng.uniform(0.05, 0.95) * np.exp(
                    2j * np.pi * rng.uniform()
                )
                vals = betas_pos(alpha, p)  # root count certified internally
                assert vals.shape == (s,)
                # one root per branch: column j solves branch j + 1
                assert np.all(branch_residuals(alpha, vals, p) <= 1e-12)
                for i, v in enumerate(vals):
                    assert abs(v) < abs(alpha)
                    resid = abs(det_pos(alpha, v, p))
                    assert resid <= 1e-10 * _det_pos_scale(alpha, v, p)
                    for w in vals[i + 1 :]:
                        assert abs(v - w) > 1e-8 * abs(alpha)
                bn = beta_neg(alpha, p)  # root count certified internally
                assert abs(bn) < abs(alpha)
                checked += 1
    assert checked == 1200
    _report(3, "root-count law certified on 1200 random disks (6 models)")


def test_04_balance_equation_suite():
    worst_overall = 0.0
    for s, rho, q in SIX_TRIPLES:
        p = validate_params(s, rho, q)
        sol = solve(p, SolverConfig(eps=1e-10, K=20))
        prob = lambda m, n: sol.probs[(m, n)]
        for m, n in triangle_states(sol.K - 1):
            r = rel_residual(p, prob, m, n)
            worst_overall = max(worst_overall, r)
            assert r <= 1e-8, (s, rho, m, n, r)
    _report(
        4,
        f"all balance families hold on T_(K-1) for 6 models "
        f"(worst relative residual {worst_overall:.2e})",
    )


def test_05_oracle_equivalence():
    from sedq.cli import _default_box

    worst = 0.0
    for s, rho, q in SIX_TRIPLES:
        p = validate_params(s, rho, q)
        box = _default_box(p, target=1e-10)
        oracle = oracle_solve(p, box)
        assert oracle.boundary_mass < 1e-8
        sol = solve(p)
        window = TruncationBox(15, 15)
        sol_map = {}
        for q1 in range(16):
            for q2 in range(16):
                m, n, r = to_internal(QueueState(q1, q2), s)
                sol_map[(q1, q2)] = float(sol.probs[(m, n)][r])
        rep = compare(sol_map, oracle.probs, window)
        assert rep.max_rel_err <= 1e-3, (s, rho, rep)
        worst = max(worst, rep.max_rel_err)
    _report(
        5,
        f"solver matches the truncated-chain oracle on [0,15]^2 for 6 models "
        f"(worst relative error {worst:.2e}, boundary mass < 1e-8)",
    )


def test_06_pass_count_region():
    from sedq.compensation import TermTree

    p = validate_params(4, 0.8, 0.4)
    tree = TermTree(p)
    inside_min = 99
    outside_max = 0
    for m, n in triangle_states(12):
        L = accuracy_passes(tree, m, n, 1e-4, 7)
        if m + abs(n) > 3:
            outside_max = max(outside_max, L)
        elif m + abs(n) == 3:
            inside_min = min(inside_min, L)
    assert outside_max <= 1
    assert inside_min >= 2
    _report(
        6,
        "one pass suffices exactly outside the m + |n| = 3 line "
        "(s = 4, rho = 0.8, eps = 1e-4)",
    )


def test_07_mass_concentration():
    for rho in (0.6, 0.75, 0.9):
        p = validate_params(3, rho, 0.4)
        sol = solve(p, SolverConfig(K=60))
        band = sum(v.sum() for (m, n), v in sol.probs.items() if n == 0)
        above = sum(v.sum() for (m, n), v in sol.probs.items() if n >= 1)
        below = sum(v.sum() for (m, n), v in sol.probs.items() if n <= -1)
        assert band > above, rho
        assert band > below, rho
    _report(
        7,
        "probability mass concentrates between the equal-delay and "
        "equal-work lines (s = 3, rho in {0.6, 0.75, 0.9})",
    )


def test_08_limit_constant_agreement():
    p = validate_params(2, 0.5, 0.4)
    v_minus, v_plus, w_minus, w_plus, f0m, f0p = limit_roots(p)
    assert v_plus * v_minus * (1 + p.s) * p.rho == pytest.approx(1.0, abs=1e-12)
    assert w_minus * f0p**p.s == pytest.approx(1.0, abs=1e-12)

    c = limit_coeffs(p)
    tree = grow_tree(p, 16)
    level = 8

    def within(actual, limit, what):
        gap = np.abs(actual - limit) / abs(limit)
        assert np.all(gap < 0.05), (what, np.max(gap))

    def coeff_of(block, index):
        coeff = dict(zip(block.index.tolist(), block.coeff))
        return np.array([coeff[i] for i in index.tolist()])

    hp, hn = tree.hat_pos[level], tree.hat_neg[level]
    tp, tn = tree.tilde_pos[level], tree.tilde_neg[level]
    within(hp.beta / hp.alpha, v_minus, "upper root ratio")
    within(hn.beta / hn.alpha, w_minus, "lower root ratio")
    within(tp.alpha / tp.beta, 1 / v_plus, "upper partner ratio")
    within(tn.alpha / tn.beta, 1 / w_plus, "lower partner ratio")

    within(tp.coeff / coeff_of(tree.hat_pos[level - 1], tp.index), c.K_pos_cv,
           "upper repair ratio")
    within(tn.coeff / coeff_of(tree.hat_neg[level - 1], tn.index), c.K_neg_cv,
           "lower repair ratio")

    parent = hn.index // (p.s + 1)
    up = np.isin(parent, tp.index)
    within(hn.coeff[up] / coeff_of(tp, parent[up]), c.K_pos_chs1, "chs1 pos")
    within(hn.coeff[~up] / coeff_of(tn, parent[~up]), c.K_neg_chs1, "chs1 neg")

    parent = (hp.index - 1) // (p.s + 1) + 1
    up = np.isin(parent, tp.index)
    ratios_p = np.abs(hp.coeff[up] / coeff_of(tp, parent[up]))
    ratios_n = np.abs(hp.coeff[~up] / coeff_of(tn, parent[~up]))
    within(max(ratios_p), c.K_pos_ch, "upper child bound")
    within(max(ratios_n), c.K_neg_ch, "lower child bound")
    _report(
        8,
        "level-8 tree ratios match the limit constants within 5% and the "
        "Vieta/reciprocal identities hold to 1e-12",
    )


def test_09_monotone_moduli_chain():
    for s, rho, q in SIX_TRIPLES:
        p = validate_params(s, rho, q)
        tree = grow_tree(p, 10)
        chain = []
        for level in range(6):
            chain.append(tree.max_abs_alpha(level))
            chain.append(tree.max_abs_beta(level))
        assert all(a > b for a, b in zip(chain, chain[1:])), (s, rho, chain)
    _report(9, "per-level maximum moduli decrease strictly for 6 models")


def test_10_simulation_cross_check():
    p = validate_params(2, 0.5, 0.4)
    oracle = oracle_solve(p, TruncationBox(40, 80))
    # 40 long batches give error bars that absorb the autocorrelation; the
    # seed is pinned because the max z-score over ~40 states is itself a
    # random draw (across seeds it is bias-free with mean z about 0)
    res = simulate(
        p, SimConfig(events=10_000_000, seed=42, warmup=100_000), n_batches=40
    )
    errs = sim_standard_errors(res)
    tested = 0
    for st, pi in oracle.probs.items():
        if pi > 1e-4:
            tested += 1
            se = errs.get(st)
            assert se is not None and se > 0, st
            assert abs(res.freq.get(st, 0.0) - pi) <= 3 * se, (st, pi)
    assert tested > 10
    _report(
        10,
        f"seeded 1e7-event simulation within 3 standard errors of the "
        f"oracle on all {tested} states above 1e-4",
    )
