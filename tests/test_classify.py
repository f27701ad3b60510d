"""Symmetry classification, golden tables, and the conjecture scan."""
import json

import pytest

from invpat import avoidance
from invpat.avoidance import CountStore, closed_form_123, closed_form_231, count_avoiders
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
from invpat.perms import perm_from_text, perm_to_text, symmetry_class


def test_symmetry_class_counts():
    counts = [len(symmetry_classes(k)) for k in range(1, 8)]
    assert counts == [1, 2, 4, 13, 45, 230, 1388]


def test_symmetry_classes_partition_sk():
    from math import factorial

    for k in range(1, 8):
        classes = symmetry_classes(k)
        members = [p for cls in classes for p in cls]
        assert len(members) == factorial(k)
        assert len(set(members)) == factorial(k)
        # each is a whole orbit, sorted, and they come by least member
        assert all(cls == tuple(sorted(symmetry_class(cls[0]))) for cls in classes)
        assert classes == sorted(classes)


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


@pytest.mark.parametrize("jobs", [0, -1, 1.0, "2", True, None])
def test_bad_jobs_is_refused(jobs):
    with pytest.raises(InvalidInputError, match="jobs"):
        classify_sk(3, 5, jobs=jobs)
    with pytest.raises(InvalidInputError, match="jobs"):
        reproduce_table("T1", jobs=jobs)


def test_classify_with_workers_matches_serial(monkeypatch):
    reports = []
    for jobs in (2, 1):
        monkeypatch.setattr(avoidance, "_known", {})  # so each call counts
        reports.append(classify_sk(5, 9, jobs=jobs))
    assert reports[0] == reports[1]


def test_reproduce_table_with_workers(monkeypatch):
    monkeypatch.setattr(avoidance, "_known", {})
    table = reproduce_table("T1", jobs=2)
    assert table["ns"] == list(range(5, 12))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_repeated_classification_counts_nothing(monkeypatch, jobs):
    monkeypatch.setattr(avoidance, "_known", {})
    first = classify_sk(4, 8, jobs=jobs)

    def count_nothing(*args):
        raise AssertionError("counted a cell already known")

    monkeypatch.setattr(avoidance, "_avoiding", count_nothing)
    monkeypatch.setattr(avoidance, "_avoider_counts", count_nothing)
    monkeypatch.setattr(avoidance, "monotone_count", count_nothing)
    assert classify_sk(4, 8, jobs=jobs) == first
    assert count_avoiders(8, ["1234"]) == 323


def test_stored_cells_are_not_counted(monkeypatch, tmp_path):
    path = tmp_path / "counts"
    first = classify_sk(4, 8, store=CountStore(path))
    monkeypatch.setattr(avoidance, "_known", {})

    def count_nothing(*args):
        raise AssertionError("counted a cell the store holds")

    monkeypatch.setattr(avoidance, "_avoider_counts", count_nothing)
    monkeypatch.setattr(avoidance, "monotone_count", count_nothing)
    assert classify_sk(4, 8, store=CountStore(path)) == first


def _journal(path):
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"format": "invpat-counts", "version": 1}
    return [tuple(json.loads(line)) for line in lines[1:]]


def test_classify_puts_one_journal_line_per_cell(tmp_path):
    path = tmp_path / "counts"
    first = classify_sk(5, 8, store=CountStore(path))
    keys = [key for key, _ in _journal(path)]
    classes = symmetry_classes(5)
    assert sorted(keys) == sorted(f"{perm_to_text(c[0])}|{n}" for c in classes for n in (6, 7, 8))
    again = classify_sk(5, 9, store=CountStore(path))
    added = _journal(path)[len(keys) :]
    assert sorted(key for key, _ in added) == sorted(f"{perm_to_text(c[0])}|9" for c in classes)
    assert again == classify_sk(5, 9)
    assert {vec[:3] for vec, _ in again.groups} == {vec for vec, _ in first.groups}


def test_classify_appends_once_per_n_it_counts(tmp_path, monkeypatch):
    path = tmp_path / "counts"
    saves = []
    real = CountStore.save

    def save(store):
        saves.append(store)
        real(store)

    monkeypatch.setattr(CountStore, "save", save)
    classify_sk(5, 8, store=CountStore(path))
    assert len(saves) == 3
    # every cell is stored: the batches are empty and the file is not opened
    before = path.read_bytes()
    classify_sk(5, 8, store=CountStore(path))
    assert len(saves) == 3 and path.read_bytes() == before


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
    # a pattern longer than n_max has no count to compare
    with pytest.raises(InvalidInputError, match="k_max 8 exceeds n_max 7"):
        verify_prefix_exchange((1, 2), (2, 1), 8, 7)


def test_pair_record_counts_each_pattern_on_its_own():
    ns = [4, 5, 6]
    record = _pair_record((1, 2, 3), (2, 3, 1), ns)
    assert record["counts_a"] == [closed_form_123(n) for n in ns] == [6, 10, 20]
    assert record["counts_b"] == [closed_form_231(n) for n in ns] == [8, 16, 32]
    assert record["equal"] is False


@pytest.mark.parametrize(
    "n_max, shape_side, k_max, message",
    [
        # 123456 vs 456123 would have no n to be counted at
        (6, 2, 4, "n_max must exceed 6, the longest pair, got 6"),
        (5, 2, 4, "got 5"),
        # the board half of the scan would hold no pair at all
        (7, 2, 1, "k_max must be >= 2, got 1"),
        (7, -1, 2, "max_side must be >= 0"),
    ],
)
def test_scan_refuses_bad_limits_before_any_count(monkeypatch, n_max, shape_side, k_max, message):
    def no_count(*args, **kwargs):
        raise AssertionError("a count ran")

    monkeypatch.setattr("invpat.classify.count_avoiders", no_count)
    with pytest.raises(ValueError, match=message):
        scan_conjectures(n_max, shape_side=shape_side, k_max=k_max)


def test_scan_reports_but_never_raises():
    records = scan_conjectures(7, shape_side=3, k_max=3)
    kinds = {r["kind"] for r in records}
    assert kinds == {"square-pair", "board-pair"}
    for r in records:
        assert "equal" in r
