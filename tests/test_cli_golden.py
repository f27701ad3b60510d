"""CLI stdout under --no-timing, compared byte for byte with stored output.

Each file in tests/golden holds the stdout of one invocation.  A change that
alters any of them changes what the command prints; if that is intended,
the file is rewritten with the new output and the change says why.
"""
from pathlib import Path

import pytest

from invpat.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "placements_4432_avoid_123.txt": "placements --shape 4,4,3,2 --avoid 123",
    "placements_4432_avoid_123.json": "placements --shape 4,4,3,2 --avoid 123 --format json",
    "placements_333_all_avoid_21.txt": "placements --shape 3,3,3 --all --avoid 21",
    "verify_board_sweeps_side_5.txt": (
        "verify --check extremes,decomposition,toprow,recurrences,slide --max-side 5"
    ),
    "verify_columns_n_5.txt": "verify --check columns --n-max 5",
    "verify_prefix_k_4_n_7.txt": "verify --check prefix --k-max 4 --n-max 7",
    "scan_n_7_side_4_k_3.json": "scan --n-max 7 --shape-side 4 --k-max 3 --format json",
    "rsk_perm_42513.txt": "rsk --perm 42513",
    "rsk_perm_42513.json": "rsk --perm 42513 --format json",
    "rsk_p_12_3_q_13_2.txt": "rsk --p 1,2/3 --q 1,3/2",
    "rsk_p_12_3_q_13_2.json": "rsk --p 1,2/3 --q 1,3/2 --format json",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_the_stored_output(name, capsys):
    assert run(GOLDEN[name].split() + ["--no-timing"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_every_stored_output_is_checked():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)
