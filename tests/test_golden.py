"""Golden outputs: the ``solve`` CSV and the ``--dump-tree`` CSV, byte for byte.

Each case runs ``sedq solve ... --out F --dump-tree T`` and compares the
sha256 of both files with a pinned digest.  A refactor that changes no
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
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_and_tree_dump_are_byte_identical(name, tmp_path):
    args, solve_digest, tree_digest = CASES[name]
    out, tree = tmp_path / "solve.csv", tmp_path / "tree.csv"
    assert main(["solve", *args, "--out", str(out), "--dump-tree", str(tree)]) == 0
    assert _sha256(out) == solve_digest
    assert _sha256(tree) == tree_digest
