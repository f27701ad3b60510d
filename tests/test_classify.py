"""Symmetry classification, golden tables, and the conjecture scan."""
import pytest

from invpat.avoidance import closed_form_123, closed_form_231
from invpat.classify import (
    TABLE_IDS,
    _pair_record,
    classify_sk,
    load_tables,
    reproduce_table,
    scan_conjectures,
    symmetry_classes,
    verify_prefix_exchange,
)
from invpat.errors import InvalidInputError, TableMismatchError
from invpat.perms import perm_from_text, symmetry_class


def test_symmetry_class_counts():
    assert len(symmetry_classes(3)) == 4
    assert len(symmetry_classes(4)) == 13
    assert len(symmetry_classes(5)) == 45


def test_symmetry_classes_partition_sk():
    from math import factorial

    for k in (3, 4, 5):
        classes = symmetry_classes(k)
        members = [p for cls in classes for p in cls]
        assert len(members) == factorial(k)
        assert len(set(members)) == factorial(k)


def test_classify_s3_groups():
    report = classify_sk(3, 7)
    assert report.ns == (4, 5, 6, 7)
    assert report.class_count() == 4
    groups = dict(report.groups)
    assert groups[(6, 10, 20, 35)] == (("123",), ("132", "213"), ("321",))
    assert groups[(8, 16, 32, 64)] == (("231", "312"),)


def test_classify_validates_arguments():
    with pytest.raises(InvalidInputError):
        classify_sk(3, 3)


def test_golden_fixture_classes_are_symmetry_classes():
    tables = load_tables()
    assert set(tables) == set(TABLE_IDS)
    for table in tables.values():
        n_lo, n_hi = table["n_range"]
        for row in table["rows"]:
            assert len(row["counts"]) == n_hi - n_lo + 1
            for members in row["classes"]:
                perms = {perm_from_text(m) for m in members}
                assert perms == symmetry_class(min(perms))


def test_golden_fixture_row_and_class_counts():
    tables = load_tables()
    row_classes = lambda tid: sum(len(r["classes"]) for r in tables[tid]["rows"])
    assert (len(tables["T1"]["rows"]), row_classes("T1")) == (8, 13)
    assert (len(tables["T2"]["rows"]), row_classes("T2")) == (10, 16)
    assert (len(tables["T3"]["rows"]), row_classes("T3")) == (28, 29)
    assert (len(tables["T4"]["rows"]), row_classes("T4")) == (5, 12)


def test_reproduce_table_rejects_unknown_id():
    with pytest.raises(InvalidInputError):
        reproduce_table("T9")


def test_table_mismatch_error_lists_cells():
    err = TableMismatchError([("1234", 7, 126, 127)])
    assert err.cells == [("1234", 7, 126, 127)]
    assert "got 126" in str(err) and "expected 127" in str(err)


def test_prefix_exchange_small():
    records = verify_prefix_exchange((1, 2), (2, 1), 4, 7)
    # orderings of {3} and of {3,4}: three suffixes in total
    assert len(records) == 3
    assert all(r["equal"] for r in records)
    with pytest.raises(InvalidInputError):
        verify_prefix_exchange((1, 2), (2, 3, 1), 4, 7)
    with pytest.raises(InvalidInputError):
        verify_prefix_exchange((1, 2), (2, 1), 2, 7)


def test_pair_record_counts_each_pattern_on_its_own():
    ns = [4, 5, 6]
    record = _pair_record((1, 2, 3), (2, 3, 1), ns)
    assert record["counts_a"] == [closed_form_123(n) for n in ns] == [6, 10, 20]
    assert record["counts_b"] == [closed_form_231(n) for n in ns] == [8, 16, 32]
    assert record["equal"] is False


def test_scan_reports_but_never_raises():
    records = scan_conjectures(7, shape_side=3, k_max=3)
    kinds = {r["kind"] for r in records}
    assert kinds == {"square-pair", "board-pair"}
    for r in records:
        assert "equal" in r
