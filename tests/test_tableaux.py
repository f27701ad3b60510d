"""Row insertion, its inverse, evacuation, and tableau enumeration."""
from itertools import permutations
from math import factorial, prod

import pytest

from invpat.errors import InvalidShapeError, InvalidTableauError
from invpat.perms import is_involution
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


def test_validate_tableau():
    with pytest.raises(InvalidTableauError):
        validate_tableau([[2, 1]])
    assert validate_tableau([[1, 3], [2]]) == ((1, 3), (2,))


def test_transpose_tableau():
    t = ((1, 2, 4), (3, 5))
    assert transpose_tableau(t) == ((1, 3), (2, 5), (4,))
    assert transpose_tableau(transpose_tableau(t)) == t
    assert transpose_tableau(()) == ()


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
