"""Counting avoiders: brute force, closed forms, and the memo store."""
import tracemalloc
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpat import avoidance, perms
from invpat.avoidance import (
    CountStore,
    _avoider_counts,
    closed_form_123,
    closed_form_231,
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
from invpat.classify import classify_sk, symmetry_classes
from invpat.errors import InvalidInputError, InvalidShapeError, InvalidWordError
from invpat.perms import (
    contains,
    inverse,
    involutions,
    pattern_of,
    perm_to_text,
    reversed_complement,
)


def test_pattern_set_normalizes_and_rejects_empty():
    assert pattern_set(["123", (2, 1)]) == frozenset({(1, 2, 3), (2, 1)})
    with pytest.raises(InvalidInputError):
        pattern_set([])
    with pytest.raises(InvalidInputError):
        pattern_set([""])


@pytest.mark.parametrize("pattern", [(2, 3), (1, 1), (0, 1), (1, True)])
def test_a_tuple_that_is_no_permutation_is_refused(pattern):
    with pytest.raises(InvalidWordError):
        pattern_set([pattern])
    with pytest.raises(InvalidWordError):
        count_avoiders(5, [pattern])
    with pytest.raises(InvalidWordError):
        lambda_sym((3, 3, 3), [pattern])


def test_pattern_set_key_uses_semicolons():
    key = pattern_set_key(frozenset({(2, 1), (1, 2, 3)}))
    assert key == "123;21"
    long = pattern_set_key(frozenset({tuple(range(1, 11))}))
    assert ";" not in long and "," in long


def test_count_avoiders_small_values():
    assert count_avoiders(0, ["12"]) == 1
    assert count_avoiders(3, ["123"]) == 3
    assert count_avoiders(4, ["4321"]) == 9


@pytest.mark.parametrize("n", [True, 3.0, "3", None, -1])
def test_a_bad_n_is_refused(n):
    with pytest.raises(InvalidInputError, match="n"):
        count_avoiders(n, ["12"])
    with pytest.raises(InvalidInputError, match="n"):
        count_avoiders_with_column_constraint(n, ["12"], (1, 2), "left", 0)


def test_single_pattern_counts_match_closed_forms():
    for n in range(1, 9):
        assert count_avoiders(n, ["123"]) == closed_form_123(n)
        assert count_avoiders(n, ["231"]) == closed_form_231(n)
        assert count_avoiders(n, ["1234"]) == motzkin(n)
        assert count_avoiders(n, ["12345"]) == closed_form_12345(n)
        assert count_avoiders(n, ["123456"]) == closed_form_123456(n)


def test_hook_length_sum_matches_count_avoiders(monkeypatch):
    # an empty memo makes count_avoiders search
    monkeypatch.setattr(avoidance, "_known", {})
    # an involution's tableau has its longest increasing subsequence as the
    # first row and its longest decreasing one as the first column;
    # transposing swaps them, so k...1 has the count of 12...k
    for k in range(1, 7):
        increasing = tuple(range(1, k + 1))
        for n in range(11):
            want = hook_length_sum(n, k)
            assert count_avoiders(n, [increasing]) == want
            assert count_avoiders(n, [increasing[::-1]]) == want


@pytest.mark.parametrize("n", [11, 12])
def test_monotone_counts_past_n_10_match_the_hook_length_sum(n, monkeypatch):
    # a set of monotone patterns alone is counted over partitions by
    # growth.monotone_count, which reads no involution; n = 11 and 12 are
    # past what the brute-force tests reach
    monkeypatch.setattr(avoidance, "_known", {})

    def scan(*args):
        raise AssertionError("scanned the orbits for a monotone set")

    monkeypatch.setattr(avoidance, "_avoider_counts", scan)
    for k in (4, 5, 6):
        want = hook_length_sum(n, k)
        assert count_avoiders(n, [tuple(range(1, k + 1))]) == want
        assert count_avoiders(n, [tuple(range(k, 0, -1))]) == want


@pytest.mark.parametrize("n", [11, 12])
def test_monotone_scans_past_n_10_match_the_hook_length_sum(n):
    # the scan of the orbits, which count_avoiders no longer runs on these
    # sets: 12...k and k...1 are each tested by one generated
    # patience-sorting pass that holds its k - 1 tails in locals (the nested
    # loops are not compiled for them), and both sets are their own
    # reversed complement, so only one member of each orbit is tested
    for k in (4, 5, 6):
        want = hook_length_sum(n, k)
        assert _avoider_counts(n, [frozenset([tuple(range(1, k + 1))])]) == [want]
        assert _avoider_counts(n, [frozenset([tuple(range(k, 0, -1))])]) == [want]


def test_a_monotone_count_past_the_store_is_refused(monkeypatch):
    # the transfer count could reach n = 14, but every cell keeps the
    # store's limit, refused by the same check as before any scan
    monkeypatch.setattr(avoidance, "_known", {})
    for patterns in (["1234"], ["4321"], ["123", "54321"], ["1324"]):
        with pytest.raises(InvalidInputError, match="limit of 13"):
            count_avoiders(14, patterns)


@cache
def _involutions(n):
    # the pairing walk, which never reads the orbits, once per session
    return tuple(involutions(n))


@cache
def _contains_each(n, sigma):
    # the brute-force oracle, once per session for each (n, sigma): whether
    # each involution of [n] contains sigma
    return tuple(contains(pi, sigma) for pi in _involutions(n))


def _oracle(n, cell):
    # how many involutions of [n] avoid every pattern of the cell
    hits = [_contains_each(n, sigma) for sigma in cell]
    return sum(not any(found) for found in zip(*hits))


# S_5 stops at n = 8: its 176 sets at n <= 10 take about 18 s
@pytest.mark.parametrize("k, n_max", [(3, 10), (4, 10), (5, 8)])
def test_orbit_counts_match_the_full_scan(k, n_max, monkeypatch):
    # a set that is its own reversed complement is counted over one member
    # of each orbit; every other set over the pairs, their images made as
    # they are read, and the fixed involutions
    monkeypatch.setattr(avoidance, "_known", {})
    s_k = list(permutations(range(1, k + 1)))
    closed = {frozenset({sigma, reversed_complement(sigma)}) for sigma in s_k}
    # neighbours in lexicographic order, mostly not their own image
    other = {frozenset(two) for two in zip(s_k, s_k[1:])}
    sets = [{sigma} for sigma in s_k] + [p for p in closed | other if len(p) == 2]
    assert any(set(map(reversed_complement, p)) != p for p in other)
    for n in range(n_max + 1):
        for patterns in sets:
            assert count_avoiders(n, patterns) == _oracle(n, patterns), (n, patterns)


def _mixed_cells(k):
    # one pattern per symmetry class, two-pattern sets that are and are not
    # their own reversed complement, and a repeated cell
    reps = [cls[0] for cls in symmetry_classes(k)]
    s_k = list(permutations(range(1, k + 1)))
    closed = [frozenset({s, reversed_complement(s)}) for s in s_k[::5]]
    other = [frozenset(two) for two in zip(s_k[::7], s_k[1::7])]
    cells = [frozenset([rep]) for rep in reps] + [c for c in closed + other if len(c) == 2]
    assert any(frozenset(map(reversed_complement, c)) == c for c in cells[len(reps) :])
    assert any(frozenset(map(reversed_complement, c)) != c for c in cells[len(reps) :])
    # the batch counts each pattern together with its reversed complement
    assert any(reversed_complement(rep) != rep for rep in reps)
    return cells + cells[:1] + cells[-1:]


# the census ratio that forces every length onto the census, every length
# onto the matchers, and the default, which takes the census for the
# batches of _mixed_cells at n <= 9 and the matchers for 1324 alone at 9
_PATHS = {"census": inf, "matchers": 0, "default": avoidance._CENSUS_RATIO}


@pytest.mark.parametrize("k", [4, 5])
def test_batch_counts_match_count_avoiders(k, monkeypatch):
    mixed = _mixed_cells(k)
    # a set of several patterns is filtered alike on every path, so the
    # forced paths keep one, after the one-pattern cells
    forced = [cell for cell in mixed if len(cell) == 1] + mixed[-1:]
    for path, ratio in _PATHS.items():
        monkeypatch.setattr(avoidance, "_CENSUS_RATIO", ratio)
        cells = mixed if path == "default" else forced
        for n in range(k, 10):
            want = [_oracle(n, cell) for cell in cells]
            assert _avoider_counts(n, cells) == want, (path, n)
            # interleaved shares of the orbits sum to the whole
            for step in (2, 3):
                shares = [_avoider_counts(n, cells, w, step) for w in range(step)]
                assert [sum(s) for s in zip(*shares)] == want, (path, n, step)


@pytest.mark.parametrize("path", _PATHS)
def test_both_paths_count_the_edges(path, monkeypatch):
    monkeypatch.setattr(avoidance, "_CENSUS_RATIO", _PATHS[path])
    # n = k: one value subset, whose census is the row itself
    for k in (1, 2, 3, 4, 5):
        cells = [frozenset([sigma]) for sigma in permutations(range(1, k + 1))]
        assert _avoider_counts(k, cells) == [_oracle(k, cell) for cell in cells], k
    # the two involutions of [2] are fixed rows and there are no pairs, so
    # the third share of three is empty and counts nothing
    cells = [frozenset([(1, 2)]), frozenset([(2, 1)]), frozenset([(1, 2), (2, 1)])]
    shares = [_avoider_counts(2, cells, w, 3) for w in range(3)]
    assert shares == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    # one call that counts 21 classes of S_6 (84 subsets of 6 values of
    # [9] against 21 patterns or more: the census by default), 1324 (126
    # subsets against one pattern: the matchers) and a set of two patterns
    cells = [frozenset(cls[:1]) for cls in symmetry_classes(6)[::11]]
    assert len(cells) == 21
    cells += [frozenset([(1, 3, 2, 4)]), frozenset([(1, 2, 3), (4, 3, 2, 1)])]
    assert _avoider_counts(9, cells) == [_oracle(9, cell) for cell in cells]


def test_the_census_takes_many_patterns_and_the_matchers_few(monkeypatch):
    censused, matched = [], []
    census, matcher = avoidance._census, avoidance._matcher

    def record_census(rows, n, lengths):
        censused.append((n, sorted(lengths)))
        return census(rows, n, lengths)

    def record_matcher(unit, board=False):
        matched.append(unit)
        return matcher(unit, board)

    monkeypatch.setattr(avoidance, "_census", record_census)
    monkeypatch.setattr(avoidance, "_matcher", record_matcher)
    # 1324 at n = 11: C(11, 4) = 330 subsets against one pattern, its own
    # reversed complement and inverse
    assert _avoider_counts(11, [frozenset([(1, 3, 2, 4)])]) == [5654]
    assert censused == [] and matched == [((1, 3, 2, 4),)] * 2
    # 230 classes of S_6 at n = 9: C(9, 6) = 84 subsets against 398
    # patterns in the pairs and 230 in the fixed rows
    matched.clear()
    reps = [frozenset(cls[:1]) for cls in symmetry_classes(6)]
    assert comb(9, 6) <= avoidance._CENSUS_RATIO * 230
    counts = _avoider_counts(9, reps)
    assert censused == [(9, [6]), (9, [6])] and matched == []
    # the matchers, forced, agree on every class
    monkeypatch.setattr(avoidance, "_CENSUS_RATIO", 0)
    assert _avoider_counts(9, reps) == counts


def test_a_count_holds_no_involutions_past_the_orbits(monkeypatch):
    # the orbits are the only involution store: a count of a set that is
    # not its own reversed complement scans the pairs for the set and its
    # image and keeps no image of a row (the 17,692 images of 11 would take
    # about 1 MiB)
    monkeypatch.setattr(avoidance, "_known", {})
    for value in vars(perms).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    perms._rc_orbits(11)
    sigma = (1, 3, 4, 2)
    assert reversed_complement(sigma) != sigma
    tracemalloc.start()
    try:
        count = count_avoiders(11, [sigma])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**18, held
    # the pairing walk, matched against sigma itself, never reads the orbits
    assert count == sum(not contains(pi, sigma) for pi in involutions(11)) == 7012


def test_each_set_is_scanned_up_to_inverse(monkeypatch):
    scanned = []

    def record(rows, cells):
        scanned.append(cells)
        return [0] * len(cells)

    monkeypatch.setattr(avoidance, "_scan", record)
    # 2341's reversed complement 4123 is its inverse: one scan of the pairs
    sigma = (2, 3, 4, 1)
    assert reversed_complement(sigma) == inverse(sigma) != sigma
    _avoider_counts(9, [frozenset([sigma])])
    assert scanned == [[frozenset([inverse(sigma)])]] * 2
    # one pattern per symmetry class of S_6: 62 of the 230 have a reversed
    # complement that is the pattern or its inverse, so the pairs are
    # scanned for 2 * 230 - 62 sets
    reps = [frozenset(cls[:1]) for cls in symmetry_classes(6)]
    for n in range(6, 10):
        scanned.clear()
        _avoider_counts(n, reps)
        pairs, fixed = scanned
        assert len(pairs) == len(set(pairs)) == 398
        assert len(fixed) == len(set(fixed)) == 230


@pytest.mark.parametrize(
    "patterns", [["1342"], ["2341"], ["1342", "2413"], ["2314", "3412"], ["2413", "25314"]]
)
def test_a_set_read_as_its_inverse_counts_as_itself(patterns, monkeypatch):
    # each set is scanned as its inverse, and so is its reversed complement;
    # the oracle matches every involution against the set itself
    monkeypatch.setattr(avoidance, "_known", {})
    cell = pattern_set(patterns)
    assert avoidance._up_to_inverse(cell) == frozenset(map(inverse, cell)) != cell
    for n in range(11):
        assert count_avoiders(n, cell) == _oracle(n, cell), (n, patterns)


def _box_hook_sum(n, k, l):
    # RSK sends each involution to one standard tableau, whose first row is
    # as long as its longest increasing subsequence and whose first column
    # as its longest decreasing one: the involutions avoiding 12...k and
    # l...1 are counted by the sum of f^λ over λ ⊢ n with λ1 < k and
    # ℓ(λ) < l, f^λ by the hook-length formula
    def partitions(rest, cap, parts):
        if rest == 0:
            yield ()
        elif parts:
            for first in range(min(rest, cap), 0, -1):
                for tail in partitions(rest - first, first, parts - 1):
                    yield (first, *tail)

    total = 0
    for shape in partitions(n, k - 1, l - 1):
        hooks = 1
        for r, part in enumerate(shape):
            for c in range(part):
                leg = sum(1 for lower in shape[r + 1 :] if lower > c)
                hooks *= part - c + leg
        total += factorial(n) // hooks
    return total


def test_box_hook_sum_agrees_with_the_hook_length_sum():
    for n in range(14):
        for k in range(1, 8):
            assert _box_hook_sum(n, k, n + 1) == hook_length_sum(n, k)
    # pinned at n = 13 for 123456,4321: the shapes (5,5,3) and (5,4,4)
    assert _box_hook_sum(13, 6, 4) == 6006


@pytest.mark.parametrize("k, l", [(4, 5), (5, 3), (3, 6), (6, 4)])
def test_monotone_pairs_match_the_box_hook_sum(k, l, monkeypatch):
    monkeypatch.setattr(avoidance, "_known", {})
    patterns = [tuple(range(1, k + 1)), tuple(range(l, 0, -1))]
    for n in range(12):
        assert count_avoiders(n, patterns) == _box_hook_sum(n, k, l), n


@pytest.mark.parametrize("patterns", [["1342"], ["1342", "2413"]])
def test_a_count_makes_no_image_of_a_row(patterns, monkeypatch):
    # the images of the pairs avoid S as often as the pairs avoid rc(S), so
    # once the orbits are built a count reads no reversed complement of a row
    monkeypatch.setattr(avoidance, "_known", {})
    cell = pattern_set(patterns)
    assert frozenset(map(reversed_complement, cell)) != cell
    perms._rc_orbits(9)

    def refuse(n):
        raise AssertionError("made the images of the rows")

    for module in (perms, avoidance):
        monkeypatch.setattr(module, "_rc_image", refuse, raising=False)
    assert count_avoiders(9, patterns) == _oracle(9, cell)


def test_batch_counts_do_not_depend_on_the_chunk(monkeypatch):
    # 764 rows at n = 8, read 7 at a time: the last chunk is short
    cells = _mixed_cells(4)
    want = [count_avoiders(8, cell) for cell in cells]
    monkeypatch.setattr(avoidance, "_CHUNK", 7)
    assert _avoider_counts(8, cells) == want
    shares = [_avoider_counts(8, cells, w, 3) for w in range(3)]
    assert [sum(s) for s in zip(*shares)] == want


def test_batch_gives_a_long_pattern_a_unit_of_its_own():
    long = tuple(range(17, 0, -1))
    cells = [frozenset([sigma]) for sigma in [(1, 2), long, (2, 1), long, (1, 3, 2)]]
    assert _avoider_counts(6, cells) == [1, 76, 1, 76, 20]


def test_no_pattern_longer_than_the_rows_is_scanned(monkeypatch):
    scanned = []
    scan = avoidance._scan

    def record(rows, cells):
        scanned.extend(cells)
        return scan(rows, cells)

    monkeypatch.setattr(avoidance, "_scan", record)
    down = tuple(range(17, 0, -1))
    swapped = (*range(1, 17), 18, 17)
    cells = [frozenset([down]), frozenset([swapped]), frozenset([swapped, (1, 2, 3, 4)])]
    # a cell of long patterns alone counts all 76 involutions of [6]
    assert _avoider_counts(6, cells) == [76, 76, motzkin(6)] == [76, 76, 51]
    assert max(len(sigma) for cell in scanned for sigma in cell) == 4


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


def test_count_store_batch_refuses_a_conflict_before_recording_any_pair(tmp_path):
    path = tmp_path / "memo.jsonl"
    store = CountStore(path)
    store.put("123|5", 10)
    before = path.read_bytes()
    with pytest.raises(InvalidInputError, match="123\\|5"):
        store.update([("12|3", 1), ("123|5", 11)])
    # a batch giving a new key two counts is refused the same way
    with pytest.raises(InvalidInputError, match="1234\\|7"):
        store.update([("1234|7", 127), ("12|3", 1), ("1234|7", 126)])
    assert path.read_bytes() == before
    for reader in (store, CountStore(path)):
        assert [reader.get(k) for k in ("123|5", "12|3", "1234|7")] == [10, None, None]


def test_count_store_empty_batch_creates_no_file(tmp_path):
    path = tmp_path / "memo.jsonl"
    CountStore(path).update([])
    assert not path.exists()


def test_count_store_put_without_save_waits_for_the_next_save(tmp_path):
    path = tmp_path / "memo.jsonl"
    store = CountStore(path)
    store.put("123|5", 10, save=False)
    assert store.get("123|5") == 10 and not path.exists()
    store.put("12|3", 1)
    assert path.read_text() == HEADER + '["123|5", 10]\n["12|3", 1]\n'


def test_count_store_batches_of_two_stores_sharing_a_file_load(tmp_path):
    path = tmp_path / "memo.jsonl"
    first, second = CountStore(path), CountStore(path)
    first.update([("123|5", 10), ("12|3", 1)])
    second.update([("12|3", 1), ("1234|7", 127)])
    lines = [HEADER, '["123|5", 10]\n', '["12|3", 1]\n', '["12|3", 1]\n', '["1234|7", 127]\n']
    assert path.read_text() == "".join(lines)
    again = CountStore(path)
    assert [again.get(k) for k in ("123|5", "12|3", "1234|7")] == [10, 1, 127]


def test_classify_journal_is_the_lines_put_one_at_a_time(tmp_path):
    batched, single = tmp_path / "batched.jsonl", tmp_path / "single.jsonl"
    classify_sk(5, 8, store=CountStore(batched))
    store = CountStore(single)
    # each n in turn, the classes by least member: the order of the cells
    for n in (6, 7, 8):
        for cls in symmetry_classes(5):
            store.put(f"{perm_to_text(cls[0])}|{n}", count_avoiders(n, [cls[0]]))
    assert batched.read_bytes() == single.read_bytes()


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
