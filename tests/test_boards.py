"""Shapes, placements, and board containment."""
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpat import boards
from invpat.avoidance import lambda_sym
from invpat.errors import InvalidPlacementError, InvalidShapeError
from invpat.perms import contains, involution_list, pattern_of
from invpat.reduction import suffix_reduction, suffix_set
from invpat.slide import slide_transform
from invpat.boards import (
    Placement,
    avoiding,
    box_in_shape,
    conjugate,
    enumerate_full_placements,
    enumerate_self_conjugate_shapes,
    enumerate_symmetric_full_placements,
    graph_of,
    is_full,
    is_self_conjugate,
    is_symmetric,
    make_placement,
    placement_contains,
    placement_from_text,
    placement_to_text,
    shape_from_text,
    shape_to_text,
    square,
    validate_shape,
)


def test_validate_shape():
    assert validate_shape([3, 3, 2]) == (3, 3, 2)
    assert validate_shape(()) == ()
    with pytest.raises(InvalidShapeError, match="weakly decrease"):
        validate_shape((2, 3))
    with pytest.raises(InvalidShapeError, match="positive"):
        validate_shape((3, 0))
    # positivity is checked first
    with pytest.raises(InvalidShapeError, match="positive"):
        validate_shape((0, 3))
    with pytest.raises(InvalidShapeError, match="weakly decrease"):
        validate_shape((1, 2, 1))


def test_conjugate_is_involutive():
    shapes = [(), (1,), (4, 2, 1), (5, 5, 5), (3, 1, 1)]
    for s in shapes:
        assert conjugate(conjugate(s)) == s
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)


def reference_conjugate(shape):
    # the definition, one count per column
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p >= i) for i in range(1, shape[0] + 1))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.integers(-3, 12), max_size=9).map(tuple))
def test_conjugate_matches_its_definition_on_any_tuple(shape):
    assert conjugate(shape) == reference_conjugate(shape)


def test_self_conjugate_detection():
    assert is_self_conjugate(())
    assert is_self_conjugate((3, 3, 2))
    assert is_self_conjugate(square(4))
    assert not is_self_conjugate((3, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: lambda_sym((3, 2), ["12"]),
        lambda: suffix_reduction((3, 2), graph_of((1, 2)), suffix_set(1, [(2,)])),
        lambda: slide_transform(
            make_placement((4, 4, 3, 3), [(1, 1), (2, 3), (3, 4), (4, 2)]), 1, 1
        ),
    ],
    ids=["lambda_sym", "suffix_reduction", "slide_transform"],
)
def test_a_shape_that_is_not_self_conjugate_is_a_shape_error(call):
    with pytest.raises(InvalidShapeError, match="not self-conjugate"):
        call()


def test_placement_validation():
    with pytest.raises(InvalidPlacementError):
        make_placement((2, 1), [(2, 2)])  # box outside the shape
    with pytest.raises(InvalidPlacementError):
        make_placement((2, 2), [(1, 1), (1, 2)])  # shared column


def test_transpose_and_symmetry():
    p = make_placement((3, 3, 2), [(1, 3), (3, 1)])
    assert is_symmetric(p)
    q = make_placement((3, 3, 3), [(1, 2), (2, 3)])
    assert not is_symmetric(q)


def test_graph_of_and_fullness():
    p = graph_of((2, 1, 3))
    assert is_full(p) and is_symmetric(p)
    assert not is_full(make_placement((2, 2), [(1, 1)]))
    assert is_full(Placement((), frozenset()))


def test_placement_contains_agrees_with_word_containment_on_squares():
    patterns = [s for k in (2, 3) for s in permutations(range(1, k + 1))]
    for pi in permutations(range(1, 6)):
        p = graph_of(pi)
        for sigma in patterns:
            assert placement_contains(p, sigma) == contains(pi, sigma)


def test_placement_contains_needs_bounding_box():
    # heights 3,2,1 but the corner box (3,3) is missing from the shape
    p = make_placement((3, 3, 2), [(1, 3), (2, 2), (3, 1)])
    assert not placement_contains(p, (3, 2, 1))
    assert placement_contains(p, (2, 1))
    # the same dots on the full square do bound the occurrence
    q = make_placement((3, 3, 3), [(1, 3), (2, 2), (3, 1)])
    assert placement_contains(q, (3, 2, 1))


def test_placement_contains_column_restriction():
    p = graph_of((2, 1, 4, 3))
    assert placement_contains(p, (2, 1), columns=range(1, 3))
    assert not placement_contains(p, (2, 1), columns=range(2, 4))


def naive_placement_contains(p, sigma, columns=None):
    # every set of m dots: heights with pattern sigma, and the corner box
    # (last column, largest height) of their bounding rectangle in the shape
    dots = sorted(d for d in p.dots if columns is None or d[0] in columns)
    for chosen in combinations(dots, len(sigma)):
        heights = [y for _, y in chosen]
        if pattern_of(heights) != sigma:
            continue
        if not chosen or box_in_shape(p.shape, chosen[-1][0], max(heights)):
            return True
    return False


# self-conjugate shapes of side <= 6 that carry a symmetric full placement
SHAPES = [
    s for s in sorted(enumerate_self_conjugate_shapes(6)) if boards.symmetric_full_placements(s)
]
KERNEL = settings(max_examples=600, deadline=None, derandomize=True)


def patterns(max_len):
    return st.integers(0, max_len).flatmap(lambda m: st.permutations(range(1, m + 1))).map(tuple)


@st.composite
def thinned_symmetric_placements(draw):
    # a symmetric full placement on a self-conjugate shape of side <= 6,
    # with each dot kept or dropped
    shape = draw(st.sampled_from(SHAPES))
    full = draw(st.sampled_from(boards.symmetric_full_placements(shape)))
    kept = [d for d in sorted(full.dots) if draw(st.booleans()) or draw(st.booleans())]
    return Placement(shape, frozenset(kept))


@KERNEL
@given(st.integers(0, 8).flatmap(lambda n: st.permutations(range(1, n + 1))), patterns(5))
def test_board_kernel_agrees_with_word_kernel_on_graphs(pi, sigma):
    assert placement_contains(graph_of(tuple(pi)), sigma) == contains(tuple(pi), sigma)


@KERNEL
@given(thinned_symmetric_placements(), patterns(5), st.data())
def test_board_kernel_matches_brute_force(p, sigma, data):
    side = p.shape[0] if p.shape else 0
    columns = data.draw(
        st.one_of(
            st.none(),
            st.tuples(st.integers(1, side + 1), st.integers(0, side)).map(
                lambda ab: range(ab[0], ab[0] + ab[1])
            ),
            st.frozensets(st.integers(1, side + 1)),
        )
    )
    expected = naive_placement_contains(p, sigma, columns)
    assert placement_contains(p, sigma, columns=columns) == expected


def test_board_kernel_matches_brute_force_on_every_small_shape():
    # off the square the box tests can fail, so the matcher's pruning must
    # treat the row of a later box as a bound that a smaller value relaxes
    pats = [p for k in range(1, 5) for p in permutations(range(1, k + 1))]
    for shape in SHAPES:
        if shape and shape[-1] < shape[0]:
            pool = boards.symmetric_full_placements(shape)
            for sigma in pats:
                want = [p for p in pool if not naive_placement_contains(p, sigma)]
                assert avoiding(pool, [sigma]) == want, (shape, sigma)


# patterns of length 0 or 1 lie in every nonempty placement, so a set
# holding one rarely tells a later pattern's test from a skipped one
SET_MEMBERS = st.integers(2, 4).flatmap(lambda m: st.permutations(range(1, m + 1))).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(thinned_symmetric_placements(), max_size=8),
    st.lists(SET_MEMBERS, min_size=1, max_size=3),
    st.data(),
)
def test_avoiding_matches_a_brute_force_loop(pool, pats, data):
    columns = data.draw(
        st.one_of(
            st.none(),
            st.tuples(st.integers(1, 7), st.integers(0, 6)).map(
                lambda ab: range(ab[0], ab[0] + ab[1])
            ),
            st.frozensets(st.integers(1, 7)),
        )
    )
    # placement_contains runs through the same board scan, so the loop it is
    # held to uses the brute-force search instead
    expected = [
        p for p in pool if not any(naive_placement_contains(p, s, columns) for s in pats)
    ]
    got = avoiding(pool, pats, columns=columns)
    assert got == expected
    assert all(a is b for a, b in zip(got, expected))


@st.composite
def placements_of_up_to_19_dots(draw):
    # a permutation's graph less up to two dots, on a shape that holds
    # them: row y reaches the dots of rows y and above, plus some slack
    n = draw(st.one_of(st.integers(0, 8), st.integers(17, 19)))
    dots = list(enumerate(draw(st.permutations(range(1, n + 1))), start=1))
    for _ in range(min(n, draw(st.integers(0, 2)))):
        dots.pop(draw(st.integers(0, len(dots) - 1)))
    reach = [0] * n
    for x, y in dots:
        reach[y - 1] = x
    parts, widest = [], 1
    for need in reversed(reach):
        widest = max(widest, need + draw(st.sampled_from((0, 1, 2, n))))
        parts.append(widest)
    return Placement(tuple(reversed(parts)), dots)


@st.composite
def mixed_patterns(draw, p):
    # short patterns, one of 17 entries (often taken from the placement's
    # own dots, so that it occurs), and some longer than the placement
    heights = [y for _, y in p.dots]
    if len(heights) >= 17 and draw(st.booleans()):
        picks = st.lists(st.integers(0, len(heights) - 1), min_size=17, max_size=17, unique=True)
        long = pattern_of([heights[k] for k in sorted(draw(picks))])
    else:
        long = tuple(draw(st.permutations(range(1, 18))))
    over = len(p.dots) + 1
    too_long = st.permutations(range(1, over + draw(st.integers(0, 1)) + 1)).map(tuple)
    pats = draw(st.lists(st.one_of(patterns(4), too_long), max_size=5))
    pats.insert(draw(st.integers(0, len(pats))), long)
    return pats


@settings(max_examples=200, deadline=None, derandomize=True)
@given(placements_of_up_to_19_dots().flatmap(lambda p: st.tuples(st.just(p), mixed_patterns(p))))
def test_pattern_masks_match_a_brute_force_search(case):
    p, pats = case
    want = sum(1 << i for i, sigma in enumerate(pats) if naive_placement_contains(p, sigma))
    assert boards.pattern_masks([p], pats) == [want]
    assert avoiding([p], pats) == ([] if want else [p])


def test_board_kernel_chains_past_the_nesting_limit():
    # the 30 x 30 square without its top-right box, dots on the diagonal up
    # to 28 and then (29, 30), (30, 29): all 30 dots have pattern
    # 1..28 30 29, but their corner box (30, 30) is missing
    shape = (30,) * 29 + (29,)
    dots = [(i, i) for i in range(1, 29)] + [(29, 30), (30, 29)]
    p = make_placement(shape, dots)
    sigma = tuple(range(1, 29)) + (30, 29)
    assert not placement_contains(p, sigma)
    assert placement_contains(make_placement(square(30), dots), sigma)
    assert placement_contains(p, tuple(range(1, 30)))
    assert placement_contains(p, tuple(range(1, 29)), columns=range(1, 29))
    assert not placement_contains(p, tuple(range(1, 30)), columns=range(1, 29))
    ident = tuple(range(1, 26))
    assert placement_contains(graph_of(tuple(range(1, 31))), ident)
    assert not placement_contains(graph_of(tuple(range(30, 0, -1))), ident)


def test_full_placement_counts_on_squares():
    for n in range(5):
        assert sum(1 for _ in enumerate_full_placements(square(n))) == factorial(n)


def test_full_placements_need_square_row_column_counts():
    assert list(enumerate_full_placements((2, 2, 1))) == []


def test_symmetric_full_placement_counts_match_involutions():
    for n in range(6):
        found = list(enumerate_symmetric_full_placements(square(n)))
        assert len(found) == len(involution_list(n))
        assert all(is_symmetric(p) and is_full(p) for p in found)


def reference_symmetric_full_placements(shape):
    # the pairing recursion as it stood before boards and perms shared one
    # kernel: indices paired below or on the diagonal, then mirrored
    n = len(shape)
    if n == 0:
        yield Placement((), frozenset())
        return
    dots = []

    def pair(free):
        if not free:
            yield Placement(shape, frozenset(dots))
            return
        t = free[0]
        if box_in_shape(shape, t, t):
            dots.append((t, t))
            yield from pair(free[1:])
            dots.pop()
        for idx in range(1, len(free)):
            u = free[idx]
            if box_in_shape(shape, u, t):
                dots.append((u, t))
                dots.append((t, u))
                yield from pair(free[1:idx] + free[idx + 1 :])
                dots.pop()
                dots.pop()

    yield from pair(tuple(range(1, n + 1)))


def test_symmetric_enumeration_matches_the_reference_recursion():
    for shape in sorted(enumerate_self_conjugate_shapes(7)):
        got = list(enumerate_symmetric_full_placements(shape))
        assert got == list(reference_symmetric_full_placements(shape)), shape


def test_symmetric_enumeration_rejects_asymmetric_shape():
    with pytest.raises(InvalidShapeError):
        list(enumerate_symmetric_full_placements((3, 2)))


def test_self_conjugate_shape_enumeration_matches_filter():
    def all_partitions(side):
        def rec(prefix, cap):
            yield tuple(prefix)
            if len(prefix) == side:
                return
            for part in range(cap, 0, -1):
                yield from rec(prefix + [part], part)

        yield from rec([], side)

    for side in range(6):
        expected = sorted(s for s in all_partitions(side) if is_self_conjugate(s))
        got = sorted(enumerate_self_conjugate_shapes(side))
        assert got == expected
        assert len(got) == len(set(got))


def test_text_round_trips():
    for s in [(), (3, 3, 2)]:
        assert shape_from_text(shape_to_text(s)) == s
    p = make_placement((3, 3, 2), [(1, 3), (2, 2), (3, 1)])
    assert placement_from_text(placement_to_text(p)) == p
    empty = Placement((), frozenset())
    assert placement_from_text(placement_to_text(empty)) == empty


def test_a_dot_given_twice_is_one_dot():
    assert placement_from_text("2,2;1,1 1,1").dots == ((1, 1),)
    assert make_placement((2, 2), [(2, 1), (1, 2), (2, 1)]).dots == ((1, 2), (2, 1))


@st.composite
def thinned_graphs(draw):
    # the dots of a permutation's graph that fall in a shape, each kept or
    # dropped: mostly asymmetric, on shapes that need not be self-conjugate
    pi = draw(st.integers(0, 6).flatmap(lambda n: st.permutations(range(1, n + 1))))
    n = len(pi)
    parts = st.lists(st.integers(1, max(n, 1)), min_size=n, max_size=n).map(sorted)
    shape = draw(st.one_of(st.just(square(n)), parts.map(lambda s: tuple(reversed(s)))))
    boxes = [(x, y) for x, y in enumerate(pi, start=1) if box_in_shape(shape, x, y)]
    return Placement(shape, [d for d in boxes if draw(st.booleans()) or draw(st.booleans())])


PLACEMENTS = st.one_of(thinned_symmetric_placements(), thinned_graphs())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PLACEMENTS, st.data())
def test_dots_are_kept_in_column_order_whatever_they_are_given_in(p, data):
    boxes = list(p.dots)
    for given_dots in (frozenset(boxes), data.draw(st.permutations(boxes)), tuple(boxes[::-1])):
        q = Placement(p.shape, given_dots)
        assert q == p and hash(q) == hash(p)
        assert type(q.dots) is tuple and q.dots == tuple(sorted(boxes))
        assert [x for x, _ in q.dots] == sorted({x for x, _ in boxes})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PLACEMENTS)
def test_symmetry_and_fullness_agree_with_their_set_definitions(p):
    dots = set(p.dots)
    transposes = {(y, x) for x, y in dots}
    assert is_symmetric(p) == (is_self_conjugate(p.shape) and transposes == dots)
    width = p.shape[0] if p.shape else 0
    columns, rows = {x for x, _ in dots}, {y for _, y in dots}
    full = columns == set(range(1, width + 1)) and rows == set(range(1, len(p.shape) + 1))
    assert is_full(p) == full
