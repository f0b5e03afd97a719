import io
import json
import re
import warnings

import pytest

from sedq.cli import _write_json, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_probabilities_sum_to_one(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        code, _, err = run_cli(
            ["solve", "--s", "3", "--rho", "0.75", "--q", "0.4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "m,n,r,q1,q2,probability"
        total = sum(float(ln.split(",")[-1]) for ln in data[1:])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert "N=" in err and "wall=" in err

    def test_unstable_input_exits_two(self, capsys):
        code, _, err = run_cli(
            ["solve", "--s", "2", "--rho", "1.0", "--q", "0.5"], capsys
        )
        assert code == 2
        assert "unstable" in err

    def test_symmetric_output(self, tmp_path, capsys):
        out = tmp_path / "sym.csv"
        code, _, _ = run_cli(
            ["solve", "--s", "1", "--rho", "0.5", "--q", "0.5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        probs = {}
        for ln in out.read_text().strip().split("\n")[7:]:
            m, n, r, q1, q2, val = ln.split(",")
            probs[(int(m), int(n))] = float(val)
        for n in range(1, 10):
            assert probs[(2, n)] == pytest.approx(probs[(2, -n)], rel=1e-8)

    def test_seventeen_digit_payload(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        run_cli(
            ["solve", "--s", "2", "--rho", "0.5", "--q", "0.4", "--out", str(out)],
            capsys,
        )
        body = out.read_text()
        assert re.search(r",0\.\d{15,17}$", body, re.MULTILINE)

    def test_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(
                ["solve", "--s", "2", "--rho", "0.6", "--q", "0.4",
                 "--out", str(path)],
                capsys,
            )
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code, _, _ = run_cli(
            ["solve", "--s", "2", "--rho", "0.5", "--q", "0.4",
             "--format", "json", "--out", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["N"] == 1
        assert {"m", "n", "r", "q1", "q2", "probability"} <= set(doc["records"][0])

    @pytest.mark.parametrize("rows", [[], [(0, 1, 0.25), (2, -3, 1e-300)]])
    def test_streamed_json_equals_json_dump(self, rows):
        header, meta = ("q2", "m", "probability"), {"s": 2, "rho": "0.5"}
        doc = {"meta": meta, "records": [dict(zip(header, row)) for row in rows]}
        fh = io.StringIO()
        _write_json(fh, header, rows, meta)
        assert fh.getvalue() == json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def test_tree_dump(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        dump = tmp_path / "tree.csv"
        code, _, _ = run_cli(
            ["solve", "--s", "2", "--rho", "0.5", "--q", "0.4",
             "--out", str(out), "--dump-tree", str(dump)],
            capsys,
        )
        assert code == 0
        assert dump.read_text().startswith("kind,level,index,")

    def test_missing_parameter_exits_two(self, capsys):
        code, _, err = run_cli(["solve", "--s", "2", "--rho", "0.5"], capsys)
        assert code == 2
        assert "--q" in err


class TestHeatmapCommand:
    def test_header_carries_line_definitions(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            ["heatmap", "--s", "3", "--rho", "0.9", "--q", "0.4",
             "--q1max", "10", "--q2max", "30", "--out", str(out)],
            capsys,
        )
        assert code == 0
        text = out.read_text()
        assert "q1 + 1 = (q2 + 1)/s" in text
        assert "q1 = q2/s" in text
        assert "q1,q2,probability" in text

    def test_mode_between_reference_lines(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        run_cli(
            ["heatmap", "--s", "3", "--rho", "0.9", "--q", "0.4",
             "--q1max", "15", "--q2max", "45", "--out", str(out)],
            capsys,
        )
        best, best_cell = -1.0, None
        for ln in out.read_text().strip().split("\n"):
            if ln.startswith("#") or ln.startswith("q1"):
                continue
            q1, q2, val = ln.split(",")
            if float(val) > best:
                best, best_cell = float(val), (int(q1), int(q2))
        q1, q2 = best_cell
        assert 3 * q1 <= q2 <= 3 * q1 + 2  # inside the equal-delay band

    def test_empty_grid_rejected(self, capsys):
        code, _, _ = run_cli(
            ["heatmap", "--s", "2", "--rho", "0.5", "--q", "0.4",
             "--q1max", "-1", "--q2max", "0"],
            capsys,
        )
        assert code == 2


class TestNindexCommand:
    def test_reference_table(self, capsys):
        code, out, _ = run_cli(["nindex", "--q", "0.4"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,rho,N"
        assert len(lines) == 11
        assert all(ln.endswith(",1") for ln in lines[1:])

    def test_single_cell(self, capsys):
        code, out, _ = run_cli(
            ["nindex", "--q", "0.4", "--s-list", "2", "--rho-list", "0.5"], capsys
        )
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",1")

    def test_invalid_rho_exits_two(self, capsys):
        code, _, _ = run_cli(
            ["nindex", "--q", "0.4", "--s-list", "2", "--rho-list", "0.5,1.2"],
            capsys,
        )
        assert code == 2


class TestValidateCommand:
    def test_pass(self, capsys):
        code, _, err = run_cli(
            ["validate", "--s", "2", "--rho", "0.5", "--q", "0.4",
             "--box", "40x80"],
            capsys,
        )
        assert code == 0
        assert "PASS" in err

    def test_tiny_box_surfaces_error(self, capsys):
        code, _, err = run_cli(
            ["validate", "--s", "1", "--rho", "0.8", "--q", "0.5",
             "--box", "6x6"],
            capsys,
        )
        assert code == 1
        assert "numerical failure" in err

    def test_window_outside_truncation_is_typed_failure(self, capsys):
        code, out, err = run_cli(
            ["validate", "--s", "2", "--rho", "0.5", "--q", "0.4", "--k", "10"],
            capsys,
        )
        assert code == 1
        assert "numerical failure: grid needs m + |n| up to 15" in err
        assert "Traceback" not in err and out == ""

    def test_simulation_report_deterministic(self, capsys):
        argv = ["validate", "--s", "1", "--rho", "0.5", "--q", "0.5",
                "--box", "30x30", "--simulate", "--events", "100000",
                "--seed", "7"]
        _, _, err1 = run_cli(argv, capsys)
        _, _, err2 = run_cli(argv, capsys)
        sim1 = [ln for ln in err1.splitlines() if "simulation" in ln]
        sim2 = [ln for ln in err2.splitlines() if "simulation" in ln]
        assert sim1 == sim2 and sim1


class TestLmapCommand:
    def test_region_structure(self, tmp_path, capsys):
        out = tmp_path / "lmap.csv"
        code, _, _ = run_cli(
            ["lmap", "--s", "2", "--rho", "0.5", "--q", "0.4",
             "--span", "8", "--lmax", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        grid = {}
        for ln in out.read_text().strip().split("\n"):
            if ln.startswith("#") or ln.startswith("m,"):
                continue
            m, n, L = (int(x) for x in ln.split(","))
            grid[(m, n)] = L
        # pass counts shrink away from the origin and peak near it
        far = max(L for (m, n), L in grid.items() if m + abs(n) >= 6)
        near = max(L for (m, n), L in grid.items() if m + abs(n) <= 1)
        assert far <= 2
        assert near == max(grid.values())

    def test_coarser_eps_is_pointwise_smaller(self, tmp_path, capsys):
        grids = {}
        for eps in ("1e-2", "1e-4"):
            out = tmp_path / f"lmap{eps}.csv"
            run_cli(
                ["lmap", "--s", "2", "--rho", "0.5", "--q", "0.4",
                 "--span", "6", "--eps", eps, "--lmax", "8", "--out", str(out)],
                capsys,
            )
            grid = {}
            for ln in out.read_text().strip().split("\n"):
                if ln.startswith("#") or ln.startswith("m,"):
                    continue
                m, n, L = (int(x) for x in ln.split(","))
                grid[(m, n)] = L
            grids[eps] = grid
        assert all(
            grids["1e-2"][st] <= grids["1e-4"][st] for st in grids["1e-4"]
        )


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"s": 2, "rho": 0.5, "q": 0.4}))
        out = tmp_path / "sol.csv"
        code, _, _ = run_cli(
            ["solve", "--config", str(cfg_path), "--rho", "0.6",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "# rho: 0.59999999999999998" in out.read_text()


MODEL = ["--s", "2", "--rho", "0.5", "--q", "0.4"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["solve"], '{"s": 2, "rho": 0.5, "q": 0.4, "sx": 1}'),
        (["solve"], '{"s": 2,'),
        (["solve", "--s", "2"], "[2, 0.5, 0.4]"),
        (["solve", "--config", "missing.json"], None),
        (["validate", *MODEL, "--box", "40x"], None),
        (["validate", *MODEL, "--box", "40x80x2"], None),
        (["validate", *MODEL, "--window", "-3"], None),
        (["nindex", "--q", "0.4", "--s-list", "a"], None),
        (["nindex", "--q", "0.4", "--rho-list", "0.5,x"], None),
        (["lmap", *MODEL, "--span", "-1"], None),
        (["solve"], '{"s": 2, "rho": 0.5, "q": 0.4, "eps": "x"}'),
        (["solve"], '{"s": 2, "rho": 0.5, "q": 0.4, "lmax": 2.5}'),
        (["solve"], '{"s": 2, "rho": 0.5, "q": 0.4, "format": "xml"}'),
        (["solve"], '{"s": true, "rho": 0.5, "q": 0.4}'),
        (["solve", "--s", "2", "--rho", "nan", "--q", "0.4"], None),
        (["nindex", "--q", "0.4", "--rho-list", "nan"], None),
        (["solve", *MODEL, "--eps", "nan"], None),
        (["lmap", *MODEL, "--lmax", "0"], None),
        (["lmap", *MODEL, "--eps", "nan"], None),
        (["lmap", *MODEL, "--eps", "-1"], None),
        (["validate", *MODEL, "--tol", "nan"], None),
        (["validate", *MODEL, "--simulate", "--events", "1e400"], None),
        (["solve", *MODEL, "--out", "missing/x.csv"], None),
        (["solve", *MODEL, "--dump-tree", "missing/t.csv"], None),
        (["heatmap", *MODEL, "--q1max", "2", "--q2max", "2", "--out", "."], None),
    ],
    ids=[
        "config-unknown-key", "config-bad-json", "config-not-object",
        "config-missing-file", "box-one-extent", "box-three-extents",
        "negative-window", "s-list-not-int", "rho-list-not-float",
        "negative-span", "config-eps-string", "config-lmax-float",
        "config-format-xml", "config-s-bool", "rho-nan", "nindex-rho-nan",
        "eps-nan", "lmap-lmax-zero", "lmap-eps-nan", "lmap-eps-negative",
        "tol-nan", "events-overflow", "out-unwritable", "dump-tree-unwritable",
        "heatmap-out-directory",
    ],
)
def test_bad_input_exits_two(argv, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv = [*argv, "--config", "run.json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "invalid input" in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--out", "--dump-tree"])
def test_unwritable_path_rejected_before_solving(flag, tmp_path, monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr("sedq.cli.solve", no_solve)
    path = str(tmp_path / "missing" / "x.csv")
    code, _, err = run_cli(["solve", *MODEL, flag, path], capsys)
    assert code == 2
    assert f"{flag} {path}" in err


@pytest.mark.parametrize("events", ["0", "-1"])
def test_too_few_events_rejected_before_solving(events, monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("solved before checking --events")

    monkeypatch.setattr("sedq.cli.solve", no_solve)
    argv = ["validate", *MODEL, "--simulate", "--events", events]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert f"--events must be a finite number >= 1, got {float(events)}" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--s", "80", "--rho", "0.9", "--q", "0.4"],
        ["solve", "--s", "120", "--rho", "0.5", "--q", "0.4"],
        ["solve", "--s", "150", "--rho", "0.5", "--q", "0.4"],
        ["nindex", "--q", "0.4", "--s-list", "120"],
        ["nindex", "--q", "0.4", "--s-list", "150"],
        ["lmap", "--s", "150", "--rho", "0.5", "--q", "0.4"],
    ],
    ids=["solve-s80", "solve-s120", "solve-s150", "nindex-s120", "nindex-s150", "lmap-s150"],
)
def test_large_s_fails_typed(argv, capsys):
    # the overflow reaches the typed check without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert re.search(r"s = \d+ is too large", err)
    assert out == ""
