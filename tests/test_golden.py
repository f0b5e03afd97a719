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

The digests of the six solve cases, the heatmap and the JSON were last
re-recorded by the change that moved the term tree onto array steps (one
masked Newton iteration over stacked kernel roots, vertical steps and
horizontal repairs on whole blocks): numpy's array arithmetic rounds some
complex products differently from the scalar Python arithmetic of the
per-node path it replaced.  That change kept the ``m,n,r,q1,q2`` columns of
the solve CSVs and the ``kind,level,index`` columns of the tree dumps, moved
the probabilities by at most 1.2e-14 relative, and passed the accuracy
golden of ``tests/test_reference.py`` unchanged.  The lmap digest did not
move.
"""

import hashlib

import pytest

from sedq.cli import main

CASES = {
    "s2_rho0.5": (
        ["--s", "2", "--rho", "0.5", "--q", "0.4"],
        "eebec391a00dfd43077285e3d8efd73aa0666faf2e6aed9a6cd3e35d07f8c355",
        "0d1dc34700ac9888e64afa0c4631c4b69356f8c0fc5ee10644ff261f986de74a",
    ),
    # eps 1e-10 grows the tree to 8 passes
    "s3_rho0.75_deep": (
        ["--s", "3", "--rho", "0.75", "--q", "0.4", "--eps", "1e-10"],
        "6111f0d424c2f0702a75a81f8564e18cab6b86ad164843c23cbf2157f12d06ac",
        "6cba161736e1d1206696a75f641ce5024e6a3d4cbbf5c6612151512a2ae515ef",
    ),
    # q = 0 takes the separate tie-break branch of the limit constants
    "s1_rho0.8_q0": (
        ["--s", "1", "--rho", "0.8", "--q", "0.0", "--eps", "1e-10"],
        "a4a852d65c5d08ec8abc34d8942018f7459cfc8c71e2d202c575b188038fbf26",
        "63d4afe6308e864c2d2636aee020daa4a2487bfd8946bb8b90c7265145467c28",
    ),
    # heavy traffic: 14641 states, most of them from the series
    "s2_rho0.95_k120": (
        ["--s", "2", "--rho", "0.95", "--q", "0.4", "--k", "120"],
        "c9a03be969d0541f65506ce8ce42c70a69d52400568a2dcc3949a2925cec62e7",
        "35dd09c0b643d9b126f3cf7e5edbb42afba871d11c86e8651c0586547d42bab3",
    ),
    # 12440 tree rows: level 4 has 1296 horizontal repairs, so the stacked
    # repair runs many chunks, one of them mixing upper and lower terms
    "s5_rho0.85_deep": (
        ["--s", "5", "--rho", "0.85", "--q", "0.4", "--eps", "1e-10"],
        "242c5fe62bf762f0224bfd14bec58e853e6695d9347bc506d79517ffdaffaebf",
        "29288045ccdcaa5b235c7d30a617d1bcbc5b404a043d6b803761eeae6a5789eb",
    ),
    # s >= 8 rows: row sums take numpy's multi-accumulator path
    "s8_rho0.9": (
        ["--s", "8", "--rho", "0.9", "--q", "0.4"],
        "fccc4840b0494fe0a649f6e4b998db0b2817fb9c90f862dcce43d0bb585f0884",
        "9590b91539ea677cb0edde617e6cbb6696ef742a06a5d32bd39241e5bccdb074",
    ),
}

LMAP_ARGS = [
    "--s", "4", "--rho", "0.8", "--q", "0.4", "--eps", "1e-4", "--lmax", "7",
    "--span", "12",
]
LMAP_DIGEST = "87fa55f2eae6a4081f6e4567bf298fdc4579ea14a3c96e6223cfb034fc6e4fe4"

HEATMAP_ARGS = ["--s", "3", "--rho", "0.9", "--q", "0.4", "--q1max", "30", "--q2max", "60"]
HEATMAP_DIGEST = "e449d4914b0962d4d147973bee33dffa7e0131d598a8e07f4f6ca121c11332dc"

JSON_ARGS = ["--s", "2", "--rho", "0.6", "--q", "0.4", "--format", "json"]
JSON_DIGEST = "9802510f996cdbbea5b297ce2aa71b890509b74a91e8b22917b0f59d21c65585"


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
