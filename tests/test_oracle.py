import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import rel_residual
from sedq.errors import BoxTooSmall, InvalidParam
from sedq.model import QueueState, to_internal, validate_params
from sedq.oracle import (
    CHUNK,
    LANES,
    SimConfig,
    TruncationBox,
    XorShift64Star,
    compare,
    oracle_solve,
    sim_standard_errors,
    simulate,
)

P21 = validate_params(2, 0.5, 0.4)

# sha256 of the box probabilities in row-major (q1, q2) order followed by the
# boundary mass, as float64 bytes.  q = 0 and q = 1 keep the zero-rate tie
# moves as explicit generator entries, which steer the sparse LU's ordering.
ORACLE_DIGESTS = {
    ((2, 0.5, 0.4), (12, 30)):
        "384cfe06dad32a0c77574db388719e68cdc2fdfd07f9e1c8da019fb5c8ef9931",
    ((3, 0.7, 0.0), (40, 120)):
        "581b934718ab7fef143e7fb59e728754ede280a4f860f54e42c42675775b5a91",
    ((1, 0.8, 1.0), (60, 60)):
        "eafb5b40e4d662fa4a84ccc86bf59268881244bc8b4a912e063f7bca34f807cd",
}

# sha256 of the repr of the simulator's state frequencies, total time and
# batches, keyed by (triple, (events, seed, warmup), n_batches).  repr keeps
# every bit of every float, so any reordered sum or changed draw shows.  The
# q = 1 case takes the tie draw at every tie; the last one spans many chunks
# of the event loop, and its warmup ends on a chunk edge.
SIM_DIGESTS = {
    ((2, 0.9, 0.4), (100_000, 0, 0), 100):
        "979d67aafe29745cb957e22be5a9ca4783336570e39ed91b1d918e74971059c5",
    ((3, 0.93, 1.0), (100_000, 1, 0), 100):
        "a5fd3c0a02de8ed9ed42cd72df7d688f2808306915c8747f2b9db9b87b2255db",
    ((1, 0.85, 0.0), (100_000, 2, 0), 100):
        "24c32f9fbbb1ffd13cf60d588e004e0bdd8a7242b83e1c0d947b69c0a3d9ff98",
    ((2, 0.5, 0.4), (131_073, 3, 65_536), 7):
        "0ca50ef2d3ff19731077cd09b9fd500fe2240146b6e67c87aed7537ad5065374",
}


@pytest.fixture(scope="module")
def orc21():
    return oracle_solve(P21, TruncationBox(40, 80))


class TestOracleSolve:
    def test_normalized(self, orc21):
        assert sum(orc21.probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_single_rate_case(self):
        p = validate_params(1, 0.5, 0.5)
        res = oracle_solve(p, TruncationBox(30, 30))
        for q1 in range(12):
            for q2 in range(q1):
                assert res.probs[(q1, q2)] == pytest.approx(
                    res.probs[(q2, q1)], rel=1e-9
                )

    def test_mean_grows_with_load(self):
        means = []
        for rho in (0.3, 0.6, 0.8):
            p = validate_params(1, rho, 0.5)
            res = oracle_solve(p, TruncationBox(60, 60))
            means.append(
                sum((q1 + q2) * pi for (q1, q2), pi in res.probs.items())
            )
        assert means[0] < means[1] < means[2]

    def test_box_below_minimum_extent(self):
        with pytest.raises(BoxTooSmall):
            oracle_solve(P21, TruncationBox(6, 6))

    def test_leaky_box_rejected(self):
        p = validate_params(1, 0.8, 0.5)
        with pytest.raises(BoxTooSmall):
            oracle_solve(p, TruncationBox(6, 6))

    def test_boundary_mass_reported(self, orc21):
        assert 0 <= orc21.boundary_mass < 1e-8

    def test_shrinking_box_stable_interior(self, orc21):
        smaller = oracle_solve(P21, TruncationBox(35, 75))
        diff = max(
            abs(orc21.probs[(q1, q2)] - smaller.probs[(q1, q2)])
            for q1 in range(10)
            for q2 in range(10)
        )
        assert diff < 1e-6

    def test_satisfies_internal_balance(self, orc21):
        # map to (m, n, r) cells and run the balance equations far from the
        # truncation edge
        s = P21.s
        cells = {}
        for (q1, q2), pi in orc21.probs.items():
            m, n, r = to_internal(QueueState(q1, q2), s)
            cells.setdefault((m, n), np.zeros(s))[r] = pi

        def prob(m, n):
            return cells[(m, n)]

        for (m, n) in [(1, 2), (2, 0), (0, 3), (3, -2), (0, 0), (1, -1)]:
            assert rel_residual(P21, prob, m, n) < 1e-8


@pytest.mark.parametrize("triple, box", ORACLE_DIGESTS, ids=str)
def test_oracle_digest(triple, box):
    res = oracle_solve(validate_params(*triple), TruncationBox(*box))
    vals = [res.probs[(q1, q2)] for q1 in range(box[0] + 1) for q2 in range(box[1] + 1)]
    data = np.array(vals + [res.boundary_mass]).tobytes()
    assert hashlib.sha256(data).hexdigest() == ORACLE_DIGESTS[(triple, box)]


@pytest.mark.parametrize("triple, cfg, n_batches", SIM_DIGESTS, ids=str)
def test_simulation_digest(triple, cfg, n_batches):
    res = simulate(validate_params(*triple), SimConfig(*cfg), n_batches)
    text = repr((
        sorted(res.freq.items()),
        res.total_time,
        [(t, sorted(fr.items())) for t, fr in res.batches],
    ))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SIM_DIGESTS[(triple, cfg, n_batches)]


class TestRouting:
    def test_faster_queue_attracts_arrivals(self):
        from sedq.oracle import _route_arrival

        # expected delay in queue 2 below queue 1's: join queue 2
        assert _route_arrival(2, 3, 2) == 1
        # shorter expected delay in queue 1: join it
        assert _route_arrival(0, 5, 2) == -1
        # exact tie
        assert _route_arrival(1, 3, 2) == 0


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        cfg = SimConfig(events=50_000, seed=42, warmup=1000)
        a = simulate(P21, cfg)
        b = simulate(P21, cfg)
        assert a.freq == b.freq

    def test_seed_changes_output(self):
        a = simulate(P21, SimConfig(events=50_000, seed=1))
        b = simulate(P21, SimConfig(events=50_000, seed=2))
        assert a.freq != b.freq

    def test_frequencies_normalized(self):
        res = simulate(P21, SimConfig(events=50_000, seed=3))
        assert sum(res.freq.values()) == pytest.approx(1.0, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(InvalidParam):
            SimConfig(events=10, warmup=10)
        with pytest.raises(InvalidParam):
            SimConfig(events=10, warmup=-1)

    def test_origin_frequency_matches_oracle(self, orc21):
        res = simulate(P21, SimConfig(events=400_000, seed=11, warmup=10_000))
        se = sim_standard_errors(res)
        st = (0, 0)
        assert abs(res.freq[st] - orc21.probs[st]) <= 3 * se[st]

    def test_error_shrinks_with_tenfold_events(self, orc21):
        def worst_abs(events, seed):
            res = simulate(P21, SimConfig(events=events, seed=seed, warmup=5000))
            return max(
                abs(res.freq.get(st, 0.0) - pi)
                for st, pi in orc21.probs.items()
                if pi > 1e-3
            )

        small = worst_abs(100_000, 5)
        large = worst_abs(1_000_000, 5)
        assert large < small

    def test_symmetric_case_is_statistically_symmetric(self):
        p = validate_params(1, 0.5, 0.5)
        res = simulate(p, SimConfig(events=400_000, seed=9, warmup=5000))
        se = sim_standard_errors(res)
        for a, b in [((1, 0), (0, 1)), ((2, 1), (1, 2))]:
            bound = 4 * (se[a] + se[b])
            assert abs(res.freq[a] - res.freq[b]) <= bound

    def test_rng_reference_stream(self):
        # xorshift64* is fully specified, so the stream is a frozen contract
        rng = XorShift64Star(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0x7BBCB40D550682D0,
            0xDE7FE413D00CC9FD,
            0xB3C638353C668C91,
        ]
        assert all(0 <= XorShift64Star(9).uniform() < 1 for _ in range(100))

    @pytest.mark.parametrize("n", [1, LANES - 1, LANES, LANES + 1, 3 * CHUNK + 1])
    def test_bulk_states_equal_single_draws(self, n):
        bulk, single = XorShift64Star(7), XorShift64Star(7)
        bulk.next_u64()  # start off the seed state
        single.next_u64()
        states = bulk.states(n)
        expect = [single.next_u64() for _ in range(n)]
        assert (states * np.uint64(XorShift64Star.MULT)).tolist() == expect
        assert bulk.state == single.state
        single = XorShift64Star(7)
        single.next_u64()
        expect = [single.uniform() for _ in range(n)]
        assert XorShift64Star.uniforms(states).tolist() == expect

    def test_batch_count_must_be_positive(self):
        with pytest.raises(InvalidParam, match="n_batches"):
            simulate(P21, SimConfig(100, 1), n_batches=0)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported by oracle_solve only, so the other commands skip it
    import sedq

    code = "import sys, sedq.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(sedq.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


class TestCompare:
    def test_identical_maps(self):
        m = {(0, 0): 0.5, (0, 1): 0.5}
        rep = compare(m, m, TruncationBox(1, 1))
        assert rep.max_rel_err == 0.0
        assert rep.max_abs_err == 0.0

    def test_scaled_map(self):
        m = {(0, 0): 0.5, (0, 1): 0.5}
        scaled = {k: v * (1 + 1e-5) for k, v in m.items()}
        rep = compare(scaled, m, TruncationBox(1, 1))
        assert rep.max_rel_err == pytest.approx(1e-5, rel=1e-6)

    def test_floor_excludes_tiny_reference_entries(self):
        a = {(0, 0): 1.0, (1, 1): 5e-13}
        b = {(0, 0): 1.0, (1, 1): 1e-13}
        rep = compare(a, b, TruncationBox(1, 1))
        assert rep.max_rel_err == 0.0
        assert rep.max_abs_err == pytest.approx(4e-13)

    def test_solver_vs_oracle(self, orc21):
        from sedq.solver import solve

        sol = solve(P21)
        window = TruncationBox(15, 15)
        sol_map = {}
        for q1 in range(window.q1max + 1):
            for q2 in range(window.q2max + 1):
                m, n, r = to_internal(QueueState(q1, q2), P21.s)
                sol_map[(q1, q2)] = float(sol.probs[(m, n)][r])
        rep = compare(sol_map, orc21.probs, window)
        assert rep.max_rel_err <= 1e-3
