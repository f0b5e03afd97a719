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

The digests were last re-recorded by the change that solves the level-0
triple with the graded, condition-checked horizontal repair system (closed
by ``c_{s+1} = 1``) in place of its own hand elimination of the h-vector:
the initial coefficients and h-vector move in their last bits, and with
them every solve CSV, every tree dump, the heatmap and the JSON.  That change
kept the ``m,n,r,q1,q2`` and ``kind,level,index`` columns and every tree
alpha and beta, moved the probabilities by at most 1.8e-15 relative, left
the repairs of levels 1 and deeper bit-identical for the same input terms,
and passed the accuracy golden of ``tests/test_reference.py`` unchanged.
The lmap digest did not move.
"""

import hashlib

import pytest

from sedq.cli import main

CASES = {
    "s2_rho0.5": (
        ["--s", "2", "--rho", "0.5", "--q", "0.4"],
        "576af4b24881a0d53a1349cd13244b43d8584fb7af6b917ddb2a40374dc1dd5c",
        "3a746fb8991cef6cb4e52763c8520cdfe6e1687920bde8890e23d5ee7d463734",
    ),
    # eps 1e-10 grows the tree to 8 passes
    "s3_rho0.75_deep": (
        ["--s", "3", "--rho", "0.75", "--q", "0.4", "--eps", "1e-10"],
        "851c4103830e70a41887178d255115bc77f9c41964cbebdd251e7cc5172f07eb",
        "3a9b6d149815f11d91cf6413578f4126f5f21576abc1631aff2212248bceebd5",
    ),
    # q = 0 takes the separate tie-break branch of the limit constants
    "s1_rho0.8_q0": (
        ["--s", "1", "--rho", "0.8", "--q", "0.0", "--eps", "1e-10"],
        "79e58ce1163bdb602e8dbbd0b410630d491efffb07f5024f5ed2a9a7ad1608ee",
        "cf1069770ea6b0ab22bd0c1fc241ec8604e6e6c22cc3b54e0e324e891d8f4992",
    ),
    # heavy traffic: 14641 states, most of them from the series
    "s2_rho0.95_k120": (
        ["--s", "2", "--rho", "0.95", "--q", "0.4", "--k", "120"],
        "cc95ed616385d4adbf98547b199bd924b8f3fae79acdb3e642169576befe1711",
        "93c6b56a5b341b07c9f03e301598a033e76eb84d95ee3f4caef7102db44d98a8",
    ),
    # 12440 tree rows: level 4 has 1296 horizontal repairs, so the stacked
    # repair runs many chunks, one of them mixing upper and lower terms
    "s5_rho0.85_deep": (
        ["--s", "5", "--rho", "0.85", "--q", "0.4", "--eps", "1e-10"],
        "db293cb85db3456175ec64efbea142b2c6b4b3ab6163f4b09a0c251973f021d4",
        "75ef9e01daa444d42c74eface372764d8df51fa1c91f2a12367334e988b82924",
    ),
    # s >= 8 rows: row sums take numpy's multi-accumulator path
    "s8_rho0.9": (
        ["--s", "8", "--rho", "0.9", "--q", "0.4"],
        "594753ece964ccd354e5ed636d01da2e4b59171c6eabe89dffd86f2bd68cf20c",
        "5aaf250bdffb16a2e74f5c61428955ec2a41778f7bc052f6b1d722b92a252c77",
    ),
}

LMAP_ARGS = [
    "--s", "4", "--rho", "0.8", "--q", "0.4", "--eps", "1e-4", "--lmax", "7",
    "--span", "12",
]
LMAP_DIGEST = "87fa55f2eae6a4081f6e4567bf298fdc4579ea14a3c96e6223cfb034fc6e4fe4"

HEATMAP_ARGS = ["--s", "3", "--rho", "0.9", "--q", "0.4", "--q1max", "30", "--q2max", "60"]
HEATMAP_DIGEST = "43b117e3ff5d92f76bd0c350753ece5d7d62d7f0372669fa639432630e699130"

JSON_ARGS = ["--s", "2", "--rho", "0.6", "--q", "0.4", "--format", "json"]
JSON_DIGEST = "8467effb02c767d83763f9e48d3583c76bf6bf2cd9e17bf7e6c0f66c4ed549ed"


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
