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
    hook_length_sum,
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


def test_hook_length_sum_matches_count_avoiders():
    for k in range(1, 7):
        increasing = tuple(range(1, k + 1))
        for n in range(11):
            assert hook_length_sum(n, k) == count_avoiders(n, [increasing])


def test_hook_length_sum_matches_closed_forms():
    for n in range(1, 31):
        assert hook_length_sum(n, 3) == closed_form_123(n)
        assert hook_length_sum(n, 4) == motzkin(n)
        assert hook_length_sum(n, 5) == closed_form_12345(n)
        assert hook_length_sum(n, 6) == closed_form_123456(n)


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


HEADER = '{"format": "invpat-counts", "version": 1}\n'


def test_count_store_appends_one_line_per_put(tmp_path):
    path = tmp_path / "memo.jsonl"
    store = CountStore(path)
    assert not path.exists()  # nothing is written before the first put
    store.put("123|5", 10)
    store.put("12|3", 1)
    lines = [HEADER, '["123|5", 10]\n', '["12|3", 1]\n']
    assert path.read_text() == "".join(lines)
    reopened = CountStore(path)
    reopened.put("1234|7", 127)
    lines.append('["1234|7", 127]\n')
    # the header is written once and nothing is rewritten: the file is
    # exactly the lines appended
    assert path.read_text() == "".join(lines)
    assert path.stat().st_size == sum(len(line) for line in lines)
    again = CountStore(path)
    assert [again.get(k) for k in ("123|5", "12|3", "1234|7", "123|6")] == [10, 1, 127, None]


def test_count_store_accepts_a_key_repeated_with_the_same_count(tmp_path):
    path = tmp_path / "memo.jsonl"
    # two stores opened on one file before either wrote, as two processes
    # sharing one cache would be
    first, second = CountStore(path), CountStore(path)
    first.put("123|5", 10)
    second.put("123|5", 10)
    assert path.read_text() == HEADER + '["123|5", 10]\n' * 2
    assert CountStore(path).get("123|5") == 10


def test_count_store_put_refuses_a_different_count(tmp_path):
    path = tmp_path / "memo.jsonl"
    store = CountStore(path)
    store.put("123|5", 10)
    with pytest.raises(InvalidInputError, match="123\\|5"):
        store.put("123|5", 11)
    assert CountStore(path).get("123|5") == 10


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),  # no header
        ('{\n"123|5": 10\n}', 1),  # a JSON-object store
        ('{"format": "invpat-counts", "version": 2}\n', 1),
        (HEADER[:-1], 1),  # torn header
        (HEADER + "not json\n", 2),
        (HEADER + '["123|5"]\n', 2),
        (HEADER + '["123|5", "10"]\n', 2),
        (HEADER + '["123|5", 10.0]\n', 2),
        (HEADER + '["123|5", true]\n', 2),
        (HEADER + "[5, 10]\n", 2),
        (HEADER + '{"123|5": 10}\n', 2),
        (HEADER + '["123|5", 10, 1]\n', 2),
        (HEADER + "\n", 2),
        (HEADER + '["123|5", 10]\n\xff\n', 3),
        (HEADER + '["123|5", 10]\n["12|3", 1]', 3),  # torn append
        (HEADER + '["123|5", 10]\n["12|3", 1]\n["123|5", 11]\n', 4),
    ],
)
def test_corrupt_count_store_names_its_line(tmp_path, text, line):
    path = tmp_path / "memo.jsonl"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(InvalidInputError) as info:
        CountStore(path)
    message = str(info.value)
    assert str(path) in message and "corrupt" in message and f"line {line}:" in message


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
