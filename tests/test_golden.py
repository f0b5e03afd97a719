"""Golden outputs: the ``solve``, ``--dump-tree``, ``lmap`` and ``heatmap``
CSVs and the ``solve`` JSON, byte for byte.

Each solve case runs ``sedq solve ... --out F --dump-tree T`` and compares
the sha256 of both files with a pinned digest; the other cases do the same
for their one file.  A refactor that changes no
arithmetic must keep them.  The digests hold for the numpy / LAPACK build
they were recorded with (numpy 2.4.6 linking scipy-openblas 0.3.31, CPython
3.11, x86-64); another numpy, BLAS or LAPACK build may move the last digits
of a float and with them the digests, so re-record them from a known-good
commit before reading a mismatch there as a regression.
"""

import hashlib

import pytest

from sedq.cli import main

CASES = {
    "s2_rho0.5": (
        ["--s", "2", "--rho", "0.5", "--q", "0.4"],
        "e8845ae4773a347e2e94f65646d8b583ad6a0de087e5d7dea4884a09eb77b212",
        "32654e0f7b2cb7da07a56a969e70f2d7a3e5963c9a7fc809dc0f2b9bba5dbe2a",
    ),
    # eps 1e-10 grows the tree to 8 passes
    "s3_rho0.75_deep": (
        ["--s", "3", "--rho", "0.75", "--q", "0.4", "--eps", "1e-10"],
        "470f18b4f6429aa29b75980f72199b000417db4e73097d73ddf39ac491131249",
        "9df4b455727a1ce83de527e2b6d5c3721cfe6f8d7867518b04dee61fdf5d1cf4",
    ),
    # q = 0 takes the separate tie-break branch of the limit constants
    "s1_rho0.8_q0": (
        ["--s", "1", "--rho", "0.8", "--q", "0.0", "--eps", "1e-10"],
        "fcb35dc4a07137339c943ff555f2fb4f53d1a1d500d677c0497af0cfa026015c",
        "c44bcbd83f6638289f738583ab3d4d2d4be972ba8d1e55b71cb901189fe3410a",
    ),
    # heavy traffic: 14641 states, most of them from the series
    "s2_rho0.95_k120": (
        ["--s", "2", "--rho", "0.95", "--q", "0.4", "--k", "120"],
        "85ffb80168f3d8cced810fdf04b495d19a71398979f18d1d9b1f74398e2a55a7",
        "9d5c31d6ca8904a435cc83f4fdbacf23033af3b9e5c198cf170d02bc9c8dcb05",
    ),
    # 12440 tree rows: level 4 has 1296 horizontal repairs, so the stacked
    # repair runs many chunks, one of them mixing upper and lower terms
    "s5_rho0.85_deep": (
        ["--s", "5", "--rho", "0.85", "--q", "0.4", "--eps", "1e-10"],
        "289481c6bb20d4617c52fb684623ee257cd489435c6d07836d32f767ff0e7776",
        "92484c7515291dc55d0a76f10e874dc73b4c14637a4f8f8a6da7509cd1cede76",
    ),
    # s >= 8 rows: row sums take numpy's multi-accumulator path
    "s8_rho0.9": (
        ["--s", "8", "--rho", "0.9", "--q", "0.4"],
        "d01741663dd69a2056cbf1276a965dc2b678d892b9ac09ddae67c48871ac1f94",
        "3de97427fc1b6ae5050fcb02bd9d3d39ebcdc099368959d123d140f13de00678",
    ),
}

LMAP_ARGS = [
    "--s", "4", "--rho", "0.8", "--q", "0.4", "--eps", "1e-4", "--lmax", "7",
    "--span", "12",
]
LMAP_DIGEST = "87fa55f2eae6a4081f6e4567bf298fdc4579ea14a3c96e6223cfb034fc6e4fe4"

HEATMAP_ARGS = ["--s", "3", "--rho", "0.9", "--q", "0.4", "--q1max", "30", "--q2max", "60"]
HEATMAP_DIGEST = "9b44eac83d001fe1dea6bfbbbfcc9938542407402b9d37b74cadfd4aaf82d7bb"

JSON_ARGS = ["--s", "2", "--rho", "0.6", "--q", "0.4", "--format", "json"]
JSON_DIGEST = "dd7875ef744fe56ebe9b64467d885ab721f7820397b66a5909857df1108a1778"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_and_tree_dump_are_byte_identical(name, tmp_path):
    args, solve_digest, tree_digest = CASES[name]
    out, tree = tmp_path / "solve.csv", tmp_path / "tree.csv"
    assert main(["solve", *args, "--out", str(out), "--dump-tree", str(tree)]) == 0
    assert _sha256(out) == solve_digest
    assert _sha256(tree) == tree_digest


def test_lmap_is_byte_identical(tmp_path):
    out = tmp_path / "lmap.csv"
    assert main(["lmap", *LMAP_ARGS, "--out", str(out)]) == 0
    assert _sha256(out) == LMAP_DIGEST


def test_heatmap_is_byte_identical(tmp_path):
    out = tmp_path / "heatmap.csv"
    assert main(["heatmap", *HEATMAP_ARGS, "--out", str(out)]) == 0
    assert _sha256(out) == HEATMAP_DIGEST


def test_solve_json_is_byte_identical(tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", *JSON_ARGS, "--out", str(out)]) == 0
    assert _sha256(out) == JSON_DIGEST
