"""The verification sweeps themselves (small sizes; acceptance runs big)."""
import pytest

from invpat import boards, checks, reduction, slide
from invpat.cli import run
from invpat.errors import InvalidInputError, InvalidPlacementError


def _all_pass(records):
    assert records, "sweep produced no records"
    failed = [r for r in records if not r["pass"]]
    assert not failed, failed[:5]


def test_extreme_placements_sweep():
    _all_pass(checks.check_extreme_placements(4))


def test_reduction_equivalence_sweep():
    _all_pass(checks.check_reduction_equivalence(4))


def test_class_decomposition_sweep():
    _all_pass(checks.check_class_decomposition(3))


def test_column_constraint_sweep():
    _all_pass(checks.check_column_constraint_square(5))


def test_top_row_sweep():
    _all_pass(checks.check_top_row_counts(5))


def test_flank_recurrence_sweep():
    _all_pass(checks.check_flank_recurrences(5))


def test_slide_sweep():
    _all_pass(checks.check_slide_bijection(5))


_MERGE_SPLIT_MAPS = slide._merge_split_maps


def _merge_split_dropping_a_column(i, j, w, b1, stepped):
    coords, special = _MERGE_SPLIT_MAPS(i, j, w, b1, stepped)
    if coords:
        coords.pop(max(coords))
    return coords, special


@pytest.mark.parametrize(
    "name, fault, error",
    [
        ("_merge_split", slide._cyclic_reseat, "slide output contains 321"),
        ("_merge_split_maps", _merge_split_dropping_a_column, "two dots share a row"),
    ],
)
def test_a_faulty_slide_fails_the_sweep_with_exit_1(monkeypatch, capsys, name, fault, error):
    # The inverse is built from the same maps as the slide, so a wrong map
    # round-trips; the sweep must still fail it, as a check and not as bad input.
    monkeypatch.setattr(slide, name, fault)
    failed = [r for r in checks.check_slide_bijection(5) if not r["pass"]]
    assert failed and all(error in r["rhs"] for r in failed)
    assert run(["verify", "--check", "slide", "--max-side", "5", "--no-timing"]) == 1
    record = "FAIL slide-bijection shape=5,5,5,5,5 i=1 j=3: 4 vs InvalidPlacementError: "
    assert record + error in capsys.readouterr().out


def test_reduced_boards_one_row_short_fail_both_sweeps(monkeypatch):
    # planted fault: every column of the marked region one box lower
    marked_heights = reduction._marked_heights
    monkeypatch.setattr(
        reduction, "_marked_heights", lambda p, t: [max(h - 1, 0) for h in marked_heights(p, t)]
    )
    records = checks.check_reduction_equivalence(5)
    assert (sum(not r["pass"] for r in records), len(records)) == (161, 1302)
    records = checks.check_class_decomposition(4)
    assert (sum(not r["pass"] for r in records), len(records)) == (12, 180)


def test_a_faulty_reduction_fails_the_sweeps_with_exit_1(monkeypatch, capsys):
    real = reduction.suffix_reduction
    identity = boards.graph_of((1, 2, 3))

    def suffix_reduction(mu, p, t):
        if p == identity:
            raise InvalidPlacementError("planted")
        return real(mu, p, t)

    monkeypatch.setattr(reduction, "suffix_reduction", suffix_reduction)
    error = "InvalidPlacementError: planted"
    for sweep in (checks.check_reduction_equivalence, checks.check_class_decomposition):
        failed = [r for r in sweep(3) if not r["pass"]]
        assert failed and all(r["rhs"] == error for r in failed)
        assert all(r["params"].startswith("mu=3,3,3 ") for r in failed)
    argv = ["verify", "--check", "reduction,decomposition", "--max-side", "3", "--no-timing"]
    assert run(argv) == 1
    out = capsys.readouterr().out
    assert f"FAIL reduction-equivalence mu=3,3,3 sigma=1 suffixes=[(2,)]: 0 vs {error}" in out
    assert f"FAIL class-decomposition mu=3,3,3 alpha=12 beta=21 suffixes=[(3,)]: 3 vs {error}" in out


def _evacuated_shapes(records):
    return [r["params"] for r in records if r["check"] == "evacuation-involution"]


def _box(side):
    shapes = [s for s in checks._partitions_in_box(side) if s]
    return [f"shape={boards.shape_to_text(s)}" for s in shapes]


def test_rsk_sweep():
    records = checks.check_rsk_properties(4)
    _all_pass(records)
    assert _evacuated_shapes(records) == _box(4)


@pytest.mark.parametrize("n_max", [0, 2, 3])
def test_rsk_sweep_evacuates_the_box_of_side_n_max(n_max):
    records = checks.check_rsk_properties(n_max)
    _all_pass(records)
    assert _evacuated_shapes(records) == _box(n_max)


def test_prefix_exchange_sweep():
    _all_pass(checks.check_prefix_exchange(4, 6))


def test_run_checks_dispatch():
    records = checks.run_checks(["extremes"])
    assert all(r["check"].startswith("unique-extreme") for r in records)
    with pytest.raises(InvalidInputError):
        checks.run_checks(["nope"])


def test_run_checks_validates_every_name_before_running(monkeypatch):
    ran = []
    monkeypatch.setattr(checks, "ALL_CHECKS", {"extremes": lambda: ran.append(1) or []})
    with pytest.raises(InvalidInputError, match="'nope'"):
        checks.run_checks(["extremes", "nope"])
    assert ran == []


def test_run_checks_passes_each_sweep_only_the_limits_it_takes(monkeypatch):
    seen = []
    monkeypatch.setattr(
        checks,
        "ALL_CHECKS",
        {
            "side": lambda max_side=5: seen.append(("side", max_side)) or [],
            "pair": lambda k_max=5, n_max=8: seen.append(("pair", k_max, n_max)) or [],
        },
    )
    checks.run_checks(max_side=3, n_max=6)
    checks.run_checks(["pair"], k_max=4)
    assert seen == [("side", 3), ("pair", 5, 6), ("pair", 4, 8)]


@pytest.mark.parametrize(
    "names, limits",
    [
        (["side"], {"n_max": 6}),
        (["side"], {"max_side": 3, "k_max": 4}),
        (["pair"], {"max_side": 3}),
    ],
)
def test_run_checks_refuses_a_limit_no_chosen_sweep_takes(monkeypatch, names, limits):
    ran = []
    monkeypatch.setattr(
        checks,
        "ALL_CHECKS",
        {
            "side": lambda max_side=5: ran.append("side") or [],
            "pair": lambda k_max=5, n_max=8: ran.append("pair") or [],
        },
    )
    with pytest.raises(InvalidInputError, match="taken by none of the chosen checks"):
        checks.run_checks(names, **limits)
    assert ran == []


def test_record_shape():
    for record in checks.check_column_constraint_square(3):
        assert set(record) == {"check", "params", "lhs", "rhs", "pass"}
