"""The verification sweeps themselves (small sizes; acceptance runs big)."""
import pytest

from invpat import boards, checks
from invpat.errors import InvalidInputError


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


def test_record_shape():
    for record in checks.check_column_constraint_square(3):
        assert set(record) == {"check", "params", "lhs", "rhs", "pass"}
