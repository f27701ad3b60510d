"""Row insertion, its inverse, evacuation, and tableau enumeration."""
from bisect import bisect_right
from itertools import permutations, zip_longest
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpat import tableaux
from invpat.errors import InvalidShapeError, InvalidTableauError, InvalidWordError
from invpat.perms import is_involution, reversed_complement
from invpat.tableaux import (
    check_reversal_property,
    evacuation,
    is_standard,
    rsk,
    rsk_inverse,
    standard_tableaux,
    tableau_from_text,
    tableau_shape,
    tableau_to_text,
    transpose_tableau,
    validate_tableau,
)


def test_is_standard_rejects_bad_rows():
    assert is_standard(((1, 2), (3,)))
    assert is_standard(((1, 3), (2, 4), (5,)))
    assert not is_standard(((2, 1), (3,)))  # row not increasing
    assert not is_standard(((1,), (2, 3)))  # row lengths increase
    assert not is_standard(((1, 2), (2,)))  # repeated entry
    assert not is_standard(((2, 3), (1,)))  # column not increasing


@pytest.mark.parametrize("rows", [((1, "2"),), (("1",), (2,)), ((1, None),)], ids=repr)
def test_is_standard_is_false_for_entries_that_do_not_compare(rows):
    assert not is_standard(rows)


def test_validate_tableau():
    with pytest.raises(InvalidTableauError):
        validate_tableau([[2, 1]])
    assert validate_tableau([[1, 3], [2]]) == ((1, 3), (2,))


@pytest.mark.parametrize("rows", [[[1, 2], []], [[1], [2], [], []], [[]], ((1, 3), (2,), ())])
def test_empty_rows_are_rejected(rows):
    # is_standard accepts these (its reference test keeps that); the
    # tableau operations do not
    assert is_standard(rows)
    with pytest.raises(InvalidTableauError):
        validate_tableau(rows)
    with pytest.raises(InvalidTableauError):
        evacuation(rows)
    with pytest.raises(InvalidTableauError):
        rsk_inverse(rows, rows)
    trimmed = [row for row in rows if row]
    with pytest.raises(InvalidTableauError):
        rsk_inverse(trimmed, rows)


@pytest.mark.parametrize(
    "rows", [[[1, "2"]], [1, 2], None, [[1.0, 2.0]], [[True]]], ids=repr
)
def test_malformed_tableaux_raise_the_named_error(rows):
    with pytest.raises(InvalidTableauError):
        validate_tableau(rows)
    with pytest.raises(InvalidTableauError):
        evacuation(rows)
    with pytest.raises(InvalidTableauError):
        rsk_inverse(rows, rows)


@pytest.mark.parametrize("word", [(1, 1), (2, 3), (1.0, 2.0), (True,)], ids=repr)
def test_rsk_refuses_a_word_that_is_not_a_permutation(word):
    # its tableaux would not be standard, and rsk marks what it returns
    with pytest.raises(InvalidWordError):
        rsk(word)


def test_transpose_tableau():
    t = ((1, 2, 4), (3, 5))
    assert transpose_tableau(t) == ((1, 3), (2, 5), (4,))
    assert transpose_tableau(transpose_tableau(t)) == t
    assert transpose_tableau(()) == ()


@pytest.mark.parametrize("rows", [((1,), (2, 3)), ((1, 2), (3,), (4, 5, 6))])
def test_transpose_refuses_a_row_longer_than_the_one_above(rows):
    # reading columns of the first row's length would drop the extra entries
    with pytest.raises(InvalidTableauError, match="longer than the row above"):
        transpose_tableau(rows)


def test_rsk_known_value():
    p, q = rsk((4, 2, 5, 1, 3))
    assert p == ((1, 3), (2, 5), (4,))
    assert q == ((1, 3), (2, 5), (4,))
    assert is_involution((4, 2, 5, 1, 3))


def test_rsk_round_trip_on_s5():
    for pi in permutations(range(1, 6)):
        p, q = rsk(pi)
        assert is_standard(p) and is_standard(q)
        assert tableau_shape(p) == tableau_shape(q)
        assert rsk_inverse(p, q) == pi


def test_rsk_involution_iff_equal_tableaux():
    for pi in permutations(range(1, 6)):
        p, q = rsk(pi)
        assert (p == q) == is_involution(pi)


def test_rsk_inverse_rejects_shape_mismatch():
    with pytest.raises(InvalidTableauError):
        rsk_inverse(((1, 2),), ((1,), (2,)))


def test_evacuation_is_a_shape_preserving_involution():
    for shape in [(3,), (2, 1), (2, 2), (3, 2, 1), (4, 2)]:
        for t in standard_tableaux(shape):
            e = evacuation(t)
            assert tableau_shape(e) == shape
            assert evacuation(e) == t


def test_reversal_property_holds_on_s5():
    for pi in permutations(range(1, 6)):
        assert check_reversal_property(pi)


def partitions(n, cap=None):
    cap = cap or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_standard_tableaux_counts_square_to_factorial():
    # Summing (#tableaux of shape)^2 over partitions of n gives n!
    for n in range(1, 6):
        total = 0
        for shape in partitions(n):
            count = sum(1 for _ in standard_tableaux(shape))
            total += count * count
        assert total == factorial(n)


def hook_length_count(shape):
    conj = [sum(1 for part in shape if part > c) for c in range(shape[0] if shape else 0)]
    hooks = prod(
        (shape[r] - c) + (conj[c] - r) - 1 for r in range(len(shape)) for c in range(shape[r])
    )
    return factorial(sum(shape)) // hooks


@pytest.mark.parametrize(
    "shape", [s for n in range(9) for s in partitions(n)] + [(4, 4, 4, 4)], ids=str
)
def test_standard_tableaux_enumeration(shape):
    tabs = list(standard_tableaux(shape))
    assert len(tabs) == hook_length_count(shape)
    assert len(set(tabs)) == len(tabs)
    assert all(is_standard(t) and tableau_shape(t) == shape for t in tabs)

    # ordered by the row holding n, then the row holding n-1, ..., then 1
    def key(t):
        row_of = {v: r for r, row in enumerate(t) for v in row}
        return tuple(row_of[v] for v in range(len(row_of), 0, -1))

    assert tabs == sorted(tabs, key=key)


def test_tableau_text_round_trip():
    for t in [((1, 2, 4), (3, 5)), (), ((1,),)]:
        assert tableau_from_text(tableau_to_text(t)) == t


@pytest.mark.parametrize("shape", [(1, 2), (2, 0)])
def test_standard_tableaux_rejects_non_partitions(shape):
    with pytest.raises(InvalidShapeError):
        list(standard_tableaux(shape))


# -- reference implementations ------------------------------------------------
# Straightforward index-by-index versions of is_standard, rsk_inverse and
# evacuation, kept as oracles for the library's fast kernels.


def reference_is_standard(t):
    lengths = tuple(len(row) for row in t)
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return False
    entries = [v for row in t for v in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for row in t:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for r in range(len(t) - 1):
        if any(t[r][c] >= t[r + 1][c] for c in range(len(t[r + 1]))):
            return False
    return True


def reference_rsk_inverse(p, q):
    rows = [list(row) for row in p]
    cell_of = {q[r][c]: (r, c) for r in range(len(q)) for c in range(len(q[r]))}
    n = sum(len(row) for row in p)
    word = [0] * n
    for step in range(n, 0, -1):
        r, c = cell_of[step]
        x = rows[r].pop(c)
        if not rows[r]:
            rows.pop(r)
        for above in range(r - 1, -1, -1):
            row = rows[above]
            idx = bisect_right(row, x) - 1
            row[idx], x = x, row[idx]
        word[step - 1] = x
    return tuple(word)


def reference_evacuation(q):
    rows = [list(row) for row in q]
    n = sum(len(row) for row in rows)
    out = [[0] * len(row) for row in q]
    for step in range(1, n + 1):
        r = c = 0
        while True:
            right = rows[r][c + 1] if c + 1 < len(rows[r]) else None
            below = (
                rows[r + 1][c] if r + 1 < len(rows) and c < len(rows[r + 1]) else None
            )
            if right is None and below is None:
                break
            if below is None or (right is not None and right < below):
                rows[r][c] = right
                c += 1
            else:
                rows[r][c] = below
                r += 1
        rows[r].pop()
        if not rows[r]:
            rows.pop(r)
        out[r][c] = n + 1 - step
    return tuple(tuple(row) for row in out)


SMALL_SHAPES = [s for n in range(1, 9) for s in partitions(n)]


@st.composite
def perturbed_tableaux(draw):
    """A standard tableau of at most 8 boxes, often broken by one edit."""
    shape = draw(st.sampled_from(SMALL_SHAPES))
    rows = [list(row) for row in draw(st.sampled_from(list(standard_tableaux(shape))))]
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    edit = draw(st.sampled_from(["none", "swap", "duplicate", "move", "empty row"]))
    if edit in ("swap", "duplicate"):
        (r1, c1), (r2, c2) = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
        if edit == "swap":
            rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
        else:
            rows[r1][c1] = rows[r2][c2]
    elif edit == "move":
        r1, c1 = draw(st.sampled_from(cells))
        value = rows[r1].pop(c1)
        r2 = draw(st.integers(0, len(rows)))
        if r2 == len(rows):
            rows.append([])
        rows[r2].insert(draw(st.integers(0, len(rows[r2]))), value)
    elif edit == "empty row":
        rows.insert(draw(st.integers(0, len(rows))), [])
    if draw(st.booleans()):
        return tuple(map(tuple, rows))
    return rows


@settings(max_examples=600, deadline=None, derandomize=True)
@given(perturbed_tableaux())
def test_is_standard_matches_the_definition(t):
    assert is_standard(t) == reference_is_standard(t)


def test_is_standard_checks_columns_past_the_last_row():
    # only the column above the second row's second box is out of order
    assert not is_standard(((1, 4, 5), (2, 3), (6,)))
    assert not is_standard([[1, 4, 5], [2, 3], [6]])


@pytest.mark.parametrize("n", range(8))
def test_rsk_inverse_round_trips_on_all_of_s_n(n):
    for w in permutations(range(1, n + 1)):
        assert rsk_inverse(*rsk(w)) == w


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_rsk_inverse_matches_the_reference_on_random_words(w):
    w = tuple(w)
    p, q = rsk(w)
    assert rsk_inverse(p, q) == reference_rsk_inverse(p, q) == w


@pytest.mark.parametrize(
    "shape", [s for n in range(1, 11) for s in partitions(n)] + [(4, 4, 4, 4)], ids=str
)
def test_evacuation_matches_the_reference_slide(shape):
    for t in standard_tableaux(shape):
        assert evacuation(t) == reference_evacuation(t)


@pytest.mark.parametrize("n", range(8))
def test_evacuation_is_the_reverse_complement_under_rsk(n):
    # evacuation inserts the reverse complement of P's reading word; that
    # the recording tableau is evacuated too is not used there
    for w in permutations(range(1, n + 1)):
        p, q = rsk(w)
        assert rsk(reversed_complement(w)) == (evacuation(p), evacuation(q))


def reference_standard_tableaux(shape):
    """The recursive fill that the explicit-stack walk replaced: n, n-1,
    ..., 1 each in an outer corner of the empty cells, rows top to bottom."""
    grid = [[0] * length for length in shape]
    left = list(shape)
    last = len(left) - 1

    def fill(v):
        if not v:
            yield tuple(map(tuple, grid))
            return
        for r, c in enumerate(left):
            if c and (r == last or left[r + 1] < c):
                left[r] = c - 1
                grid[r][c - 1] = v
                yield from fill(v - 1)
                left[r] = c

    yield from fill(sum(shape))


BOX_4 = [s for n in range(17) for s in partitions(n, 4) if len(s) <= 4]


@pytest.mark.parametrize("shape", BOX_4 + [(5, 4, 3, 2, 1)], ids=str)
def test_standard_tableaux_keep_the_order_of_the_recursive_fill(shape):
    # streamed pairwise: (5, 4, 3, 2, 1) alone has 292,864 tableaux
    pairs = zip_longest(standard_tableaux(shape), reference_standard_tableaux(shape))
    assert all(new == old for new, old in pairs)


# -- the marker of checked tableaux --------------------------------------------
# rsk, evacuation, standard_tableaux and validate_tableau return tableaux of
# a private tuple subclass that validate_tableau passes without a check.
# These tests kill two mutants of that shortcut: an isinstance test in place
# of the exact type test (a subclass of the marker would then be trusted),
# and marking an argument before it is checked (a non-standard plain tuple
# would then pass).


def assert_certified(t):
    assert type(t) is tableaux._Standard
    assert is_standard(t) and all(t)  # standard, with no empty row


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_every_marked_tableau_is_standard(w):
    p, q = rsk(tuple(w))
    for t in (p, q, evacuation(p), evacuation(q)):
        assert_certified(t)
    assert_certified(validate_tableau([list(row) for row in q]))
    assert_certified(validate_tableau(tuple(map(tuple, p))))


@pytest.mark.parametrize("shape", BOX_4, ids=str)
def test_every_tableau_of_the_4_box_is_marked_and_standard(shape):
    for t in standard_tableaux(shape):
        assert_certified(t)
        assert_certified(evacuation(t))


class UserTuple(tuple):
    pass


class ForgedMark(tableaux._Standard):
    pass


@pytest.mark.parametrize("wrap", [tuple, list, UserTuple, ForgedMark], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [((2, 1), (3,)), ((1, 2), (2,)), ((1, 3), (2,), ())], ids=str)
def test_unmarked_tableaux_are_still_checked(wrap, bad):
    rows = wrap(bad)
    good = next(standard_tableaux(tuple(len(row) for row in bad if row)))
    with pytest.raises(InvalidTableauError):
        validate_tableau(rows)
    with pytest.raises(InvalidTableauError):
        evacuation(rows)
    with pytest.raises(InvalidTableauError):
        rsk_inverse(rows, good)
    with pytest.raises(InvalidTableauError):
        rsk_inverse(good, rows)
    with pytest.raises(InvalidTableauError):
        tableau_from_text(tableau_to_text(rows))
