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

The digests were last re-recorded by the change that starts every kernel
root's Newton iteration from its small-alpha limit (``v-`` on the upper
kernel, ``w-`` on the lower one) instead of from companion-matrix
eigenvalues: the roots converge to the same values from another start, so
their last bits move, and with them the tree dumps of all six solve cases,
four of the six solve CSVs, the heatmap and the JSON.  That change kept the
``m,n,r,q1,q2`` and ``kind,level,index`` columns, moved the probabilities by
at most 1.4e-14 relative and the tree alphas and betas by at most 2.2e-15,
and passed the accuracy golden of ``tests/test_reference.py`` unchanged.
The lmap digest and the ``s2_rho0.5`` and ``s2_rho0.95_k120`` solve digests
did not move.
"""

import hashlib

import pytest

from sedq.cli import main

CASES = {
    "s2_rho0.5": (
        ["--s", "2", "--rho", "0.5", "--q", "0.4"],
        "eebec391a00dfd43077285e3d8efd73aa0666faf2e6aed9a6cd3e35d07f8c355",
        "8c885eaaa300900c1770baf45c3c3164099e51faf00e26d2a6ea9454a9499223",
    ),
    # eps 1e-10 grows the tree to 8 passes
    "s3_rho0.75_deep": (
        ["--s", "3", "--rho", "0.75", "--q", "0.4", "--eps", "1e-10"],
        "5440f91bbecca4d6bd7860150ec7a9e7ae965e05722266bfbbcb92cd4a898ce7",
        "835b3a11a7938631877156e71348a569e7afc5ece273e8281122398bc9990343",
    ),
    # q = 0 takes the separate tie-break branch of the limit constants
    "s1_rho0.8_q0": (
        ["--s", "1", "--rho", "0.8", "--q", "0.0", "--eps", "1e-10"],
        "6bc4e975244f9a273f617eab7378d0b594132952d9ef7394cbdecad2756d833f",
        "7fd12b83ae1173a759693bd06c8e774a757b8a6efc50de535a0c4c372d72244b",
    ),
    # heavy traffic: 14641 states, most of them from the series
    "s2_rho0.95_k120": (
        ["--s", "2", "--rho", "0.95", "--q", "0.4", "--k", "120"],
        "c9a03be969d0541f65506ce8ce42c70a69d52400568a2dcc3949a2925cec62e7",
        "8279505088353dd911aea4a6e283125b2139be73908f16da6194831fe53d9a50",
    ),
    # 12440 tree rows: level 4 has 1296 horizontal repairs, so the stacked
    # repair runs many chunks, one of them mixing upper and lower terms
    "s5_rho0.85_deep": (
        ["--s", "5", "--rho", "0.85", "--q", "0.4", "--eps", "1e-10"],
        "c6d3ffa31d52283e00cab9cfff05a35d06d715efdeb0b24c2aed8bc69fa8f10c",
        "77f8142889eae93876c30eca2aa37fa97939f9bd80aa25cbd18bc2d9bbac834d",
    ),
    # s >= 8 rows: row sums take numpy's multi-accumulator path
    "s8_rho0.9": (
        ["--s", "8", "--rho", "0.9", "--q", "0.4"],
        "dd42928b2c799f8d4380b0a4e2383d3a456f7f5184bd6ae3ac48077a1cc72857",
        "6c278885f67fc77e571952a68259cab31c805847a205b2ac499034e63a09b890",
    ),
}

LMAP_ARGS = [
    "--s", "4", "--rho", "0.8", "--q", "0.4", "--eps", "1e-4", "--lmax", "7",
    "--span", "12",
]
LMAP_DIGEST = "87fa55f2eae6a4081f6e4567bf298fdc4579ea14a3c96e6223cfb034fc6e4fe4"

HEATMAP_ARGS = ["--s", "3", "--rho", "0.9", "--q", "0.4", "--q1max", "30", "--q2max", "60"]
HEATMAP_DIGEST = "fc386e6657db0fc953568b6a7a1b804f53a4522324510f990f259f82d944ffd7"

JSON_ARGS = ["--s", "2", "--rho", "0.6", "--q", "0.4", "--format", "json"]
JSON_DIGEST = "b72efbea63a3f6ea3b9d9cbd305dc39122f97083b2c5fbc8cf147d09c1ccee63"


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
