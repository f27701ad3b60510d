"""Counting avoiders: brute force, closed forms, and the memo store."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpat.avoidance import (
    CountStore,
    closed_form_123,
    closed_form_231,
    closed_form_1234,
    closed_form_12345,
    closed_form_123456,
    count_avoiders,
    count_avoiders_with_column_constraint,
    lambda_sym,
    motzkin,
    pattern_set,
    pattern_set_key,
)
from invpat.errors import InvalidInputError, InvalidShapeError
from invpat.perms import involutions, pattern_of


def test_pattern_set_normalizes_and_rejects_empty():
    assert pattern_set(["123", (2, 1)]) == frozenset({(1, 2, 3), (2, 1)})
    with pytest.raises(InvalidInputError):
        pattern_set([])
    with pytest.raises(InvalidInputError):
        pattern_set([""])


def test_pattern_set_key_uses_semicolons():
    key = pattern_set_key(frozenset({(2, 1), (1, 2, 3)}))
    assert key == "123;21"
    long = pattern_set_key(frozenset({tuple(range(1, 11))}))
    assert ";" not in long and "," in long


def test_count_avoiders_small_values():
    assert count_avoiders(0, ["12"]) == 1
    assert count_avoiders(3, ["123"]) == 3
    assert count_avoiders(4, ["4321"]) == 9


def test_single_pattern_counts_match_closed_forms():
    for n in range(1, 9):
        assert count_avoiders(n, ["123"]) == closed_form_123(n)
        assert count_avoiders(n, ["231"]) == closed_form_231(n)
        assert count_avoiders(n, ["1234"]) == closed_form_1234(n)
        assert count_avoiders(n, ["12345"]) == closed_form_12345(n)
        assert count_avoiders(n, ["123456"]) == closed_form_123456(n)


def test_motzkin_values():
    assert [motzkin(n) for n in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]


def test_lambda_sym_on_squares_matches_involution_counts():
    for n in range(1, 6):
        assert lambda_sym((n,) * n, ["123"]) == count_avoiders(n, ["123"])
    with pytest.raises(InvalidShapeError):
        lambda_sym((3, 2), ["123"])


def test_lambda_sym_multiple_patterns():
    assert lambda_sym((3, 3, 3), ["123", "321"]) == 2
    assert lambda_sym((), ["12"]) == 1


def test_column_constraint_edges():
    n = 5
    base = count_avoiders(n, ["123"])
    assert count_avoiders_with_column_constraint(n, ["123"], (1, 2), "left", 0) == base
    # a window of one position cannot contain a length-2 pattern
    assert count_avoiders_with_column_constraint(n, ["123"], (1, 2), "left", 1) == base
    with pytest.raises(InvalidInputError):
        count_avoiders_with_column_constraint(n, ["123"], (1, 2), "left", 6)
    with pytest.raises(InvalidInputError):
        count_avoiders_with_column_constraint(n, ["123"], (1, 2), "up", 1)


def test_count_store_round_trip(tmp_path):
    path = tmp_path / "memo.json"
    store = CountStore(path)
    assert store.get("123|5") is None
    value = count_avoiders(5, ["123"], store=store)
    assert store.get("123|5") == value
    reloaded = CountStore(path)
    assert reloaded.get("123|5") == value


def naive_contains(word, sigma):
    return any(pattern_of(c) == sigma for c in combinations(word, len(sigma)))


PATTERN_SETS = st.lists(
    st.integers(1, 4).flatmap(lambda m: st.permutations(range(1, m + 1))).map(tuple),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 7), PATTERN_SETS)
def test_count_avoiders_matches_brute_force_on_pattern_sets(n, pats):
    expected = sum(1 for pi in involutions(n) if not any(naive_contains(pi, s) for s in pats))
    assert count_avoiders(n, pats) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 7), PATTERN_SETS, st.sampled_from([(1, 2), (2, 1)]), st.data())
def test_column_constraint_matches_brute_force(n, pats, flank, data):
    side = data.draw(st.sampled_from(["left", "right"]))
    i = data.draw(st.integers(0, n))
    expected = sum(
        1
        for pi in involutions(n)
        if not any(naive_contains(pi, s) for s in pats)
        and not naive_contains(pi[:i] if side == "left" else pi[n - i :], flank)
    )
    assert count_avoiders_with_column_constraint(n, pats, flank, side, i) == expected
