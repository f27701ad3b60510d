"""Suffix reduction, its containment equivalence, and class decomposition."""
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpat import boards
from invpat.boards import (
    enumerate_self_conjugate_shapes,
    graph_of,
    symmetric_full_placements,
)
from invpat.errors import InvalidInputError, InvalidPatternError, InvalidPlacementError
from invpat.perms import is_involution, pattern_of, perm_from_text
from invpat.reduction import (
    SuffixSet,
    _suffix_corners,
    class_decomposition_check,
    suffix_reduction,
    suffix_set,
    verify_reduction_equivalence,
)


def test_suffix_set_validation():
    t = suffix_set(3, [(5, 4), (4, 5)])
    assert t.j == 3 and len(t.suffixes) == 2
    with pytest.raises(InvalidInputError):
        suffix_set(3, [])  # no suffixes
    with pytest.raises(InvalidInputError):
        suffix_set(3, [()])  # empty suffix
    with pytest.raises(InvalidInputError):
        suffix_set(3, [(4, 4)])  # repeated value
    with pytest.raises(InvalidInputError):
        suffix_set(3, [(1, 2)])  # wrong value range
    with pytest.raises(InvalidInputError):
        suffix_set(0, [(1,)])


def test_patterns_with_prefix():
    t = suffix_set(2, [(3,), (4, 3)])
    assert t.patterns_with_prefix((2, 1)) == frozenset({(2, 1, 3), (2, 1, 4, 3)})
    with pytest.raises(InvalidPatternError):
        t.patterns_with_prefix((1, 2, 3))  # wrong length
    with pytest.raises(InvalidPatternError):
        t.patterns_with_prefix((2, 3, 1)[:2])  # (2, 3) is not a permutation slice
    with pytest.raises(InvalidPatternError):
        t.patterns_with_prefix(perm_from_text("231")[:2])


def test_worked_nine_by_nine_example():
    p = graph_of(perm_from_text("127965384"))
    rb = suffix_reduction((9,) * 9, p, suffix_set(3, [(5, 4)]))
    assert rb.shape == (4, 4, 4, 3)
    assert rb.kept_columns == (1, 2, 3, 7)
    assert rb.kept_rows == (1, 2, 3, 7)
    assert sorted(rb.induced.dots) == [(1, 1), (2, 2), (3, 4), (4, 3)]
    assert boards.is_symmetric(rb.induced) and boards.is_full(rb.induced)


def test_reduction_requires_symmetric_full_placement():
    with pytest.raises(InvalidPlacementError):
        suffix_reduction((2, 1), graph_of((1, 2)), suffix_set(1, [(2,)]))
    asym = graph_of((2, 3, 1))  # full on (3, 3, 3), but not an involution
    with pytest.raises(InvalidPlacementError):
        suffix_reduction((3, 3, 3), asym, suffix_set(1, [(2,)]))


@pytest.mark.parametrize("predicate", ["is_symmetric", "is_full"])
def test_induced_placement_check_raises_named_error(monkeypatch, predicate):
    # accept the parent board, refuse the induced placement on the reduced one
    real = getattr(boards, predicate)
    monkeypatch.setattr(boards, predicate, lambda q: real(q) and q.shape == (9,) * 9)
    p = graph_of(perm_from_text("127965384"))
    property_name = predicate.removeprefix("is_")
    with pytest.raises(InvalidPlacementError, match=f"induced placement is not {property_name}"):
        suffix_reduction((9,) * 9, p, suffix_set(3, [(5, 4)]))


def test_kept_columns_and_rows_must_agree(monkeypatch):
    # an asymmetric placement let through keeps different rows and columns
    monkeypatch.setattr(boards, "is_symmetric", lambda q: True)
    with pytest.raises(InvalidPlacementError, match="keeps columns"):
        suffix_reduction((4,) * 4, graph_of((1, 3, 4, 2)), suffix_set(1, [(2,)]))


def test_no_occurrence_reduces_to_empty_board():
    p = graph_of((1, 2, 3))  # increasing, avoids any descent suffix
    rb = suffix_reduction((3, 3, 3), p, suffix_set(1, [(3, 2)]))
    assert rb.shape == ()
    assert rb.induced.dots == frozenset()


def test_equivalence_sweep_small():
    for mu in [(3, 3, 3), (3, 3, 2), (4, 4, 4, 4), (4, 4, 2, 2)]:
        for t in [suffix_set(1, [(2,)]), suffix_set(2, [(3,)]), suffix_set(2, [(4, 3)])]:
            prefixes = {1: [(1,)], 2: [(1, 2), (2, 1)]}[t.j]
            for p in symmetric_full_placements(mu):
                rb = suffix_reduction(mu, p, t)
                for sigma in prefixes:
                    patterns = t.patterns_with_prefix(sigma)
                    assert verify_reduction_equivalence(p, rb, sigma, patterns)


def test_class_decomposition_small():
    t = suffix_set(2, [(3,)])
    assert class_decomposition_check((4, 4, 4, 4), t, (1, 2), (2, 1))
    assert class_decomposition_check((4, 4, 2, 2), t, (1, 2), (2, 1))
    t3 = suffix_set(3, [(4,)])
    assert class_decomposition_check((4, 4, 4, 4), t3, (1, 2, 3), (3, 2, 1))


def relabelling_suffix_corners(p, t):
    # reference: relabel every m-subset of dots with pattern_of
    corners = set()
    dots = sorted(p.dots)
    for tau in t.suffixes:
        pat = pattern_of(tau)
        m = len(pat)
        for combo in combinations(dots, m):
            heights = [y for _, y in combo]
            if pattern_of(heights) != pat:
                continue
            if not boards.box_in_shape(p.shape, combo[-1][0], max(heights)):
                continue
            cx = min(x for x, _ in combo) - 1
            cy = min(heights) - 1
            if cx >= 1 and cy >= 1:
                corners.add((cx, cy))
    return corners


# self-conjugate shapes of side <= 6 that carry a symmetric full placement
SHAPES = [s for s in sorted(enumerate_self_conjugate_shapes(6)) if symmetric_full_placements(s)]


@st.composite
def placements_and_suffix_sets(draw):
    shape = draw(st.sampled_from(SHAPES))
    p = draw(st.sampled_from(symmetric_full_placements(shape)))
    j = draw(st.integers(1, 3))
    suffix = st.integers(1, 3).flatmap(
        lambda m: st.permutations(range(j + 1, j + m + 1))
    )
    suffixes = draw(st.lists(suffix.map(tuple), min_size=1, max_size=3))
    return shape, p, suffix_set(j, suffixes)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(placements_and_suffix_sets())
def test_suffix_corners_match_the_pattern_of_search(case):
    mu, p, t = case
    assert _suffix_corners(p, t) == relabelling_suffix_corners(p, t)
    rb = suffix_reduction(mu, p, t)
    for sigma in permutations(range(1, t.j + 1)):
        if is_involution(sigma):
            patterns = t.patterns_with_prefix(sigma)
            assert verify_reduction_equivalence(p, rb, sigma, patterns)
