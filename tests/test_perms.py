"""Permutations, patterns, and containment against a naive oracle."""
import random
import re
import tracemalloc
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpat import perms
from invpat.boards import enumerate_self_conjugate_shapes
from invpat.errors import InvalidInputError, InvalidWordError
from invpat.perms import (
    avoids,
    contains,
    inverse,
    involution_list,
    involutions,
    is_involution,
    pattern_of,
    perm_from_text,
    perm_to_text,
    reversed_complement,
    symmetry_class,
    validate_perm,
)


def naive_contains(pi, sigma):
    return any(pattern_of(c) == sigma for c in combinations(pi, len(sigma)))


def test_validate_perm_rejects_non_permutations():
    with pytest.raises(InvalidWordError):
        validate_perm((1, 3))
    with pytest.raises(InvalidWordError):
        validate_perm((1, 1, 2))
    for word in [(1.0, 2.0), (True,), (1, "2"), (2, True)]:
        with pytest.raises(InvalidWordError):
            validate_perm(word)
    assert validate_perm(()) == ()


def test_pattern_of_rejects_repeats():
    with pytest.raises(InvalidWordError):
        pattern_of((2, 2))
    assert pattern_of(()) == ()
    assert pattern_of((40, 10, 30)) == (3, 1, 2)


def test_inverse_and_reversed_complement_are_involutive():
    for pi in permutations(range(1, 6)):
        assert inverse(inverse(pi)) == pi
        assert reversed_complement(reversed_complement(pi)) == pi
        # the two symmetry generators commute on the orbit
        assert inverse(reversed_complement(pi)) == reversed_complement(inverse(pi))


def test_symmetry_class_sizes_divide_four():
    for n in range(1, 6):
        for pi in permutations(range(1, n + 1)):
            cls = symmetry_class(pi)
            assert len(cls) in (1, 2, 4)
            assert pi in cls
            for member in cls:
                assert symmetry_class(member) == cls


def test_contains_matches_naive_oracle():
    patterns = [p for k in range(1, 4) for p in permutations(range(1, k + 1))]
    for pi in permutations(range(1, 6)):
        for sigma in patterns:
            assert contains(pi, sigma) == naive_contains(pi, sigma)


def test_contains_on_longer_patterns():
    for sigma in permutations(range(1, 5)):
        for pi in permutations(range(1, 6)):
            assert contains(pi, sigma) == naive_contains(pi, sigma)


def test_contains_accepts_arbitrary_distinct_values():
    assert contains((10, 40, 20), (1, 3, 2))
    assert avoids((10, 40, 20), (3, 2, 1))
    assert contains((5,), ())


@st.composite
def words_with_patterns(draw):
    # a word of n <= 9 distinct integers, as a tuple or a list, and a
    # pattern of length m <= 6; half the words have an occurrence planted
    n = draw(st.integers(0, 9))
    m = draw(st.integers(0, 6))
    sigma = tuple(draw(st.permutations(range(1, m + 1))))
    if m <= n and draw(st.booleans()):
        word = [10 * v for v in sigma]
        fillers = st.integers(1, 10 * m + 9).filter(lambda v: v % 10)
        for value in draw(st.lists(fillers, min_size=n - m, max_size=n - m, unique=True)):
            word.insert(draw(st.integers(0, len(word))), value)
    else:
        word = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n, unique=True))
    shift = draw(st.integers(-(10**9), 10**9))
    word = [v + shift for v in word]
    return (word if draw(st.booleans()) else tuple(word)), sigma


@settings(max_examples=600, deadline=None, derandomize=True)
@given(words_with_patterns())
def test_compiled_contains_matches_brute_force(case):
    pi, sigma = case
    assert contains(pi, sigma) == naive_contains(pi, sigma)


def test_contains_chains_past_the_nesting_limit():
    # CPython nests at most 20 blocks, so these matchers span several functions
    ident = tuple(range(1, 26))
    assert contains(tuple(range(1, 31)), ident)
    assert contains(bytes(range(1, 31)), ident)  # as the counts pass a row
    assert not contains(tuple(range(30, 0, -1)), ident)
    assert not contains(bytes(range(30, 0, -1)), ident)
    sigma = (3, 1, 22, 2, 5, 4, 21, 7, 6, 9, 8, 20, 11, 10, 13, 12, 19, 15, 14, 17, 16, 18)
    padded = tuple(10 * v for v in sigma[:11]) + (1, 999) + tuple(10 * v for v in sigma[11:])
    assert contains(padded, sigma)
    # one swap leaves a single subsequence of length m, with another pattern
    swapped = sigma[:15] + (sigma[16], sigma[15]) + sigma[17:]
    assert not contains(swapped, sigma)
    assert contains(swapped, swapped)
    assert not contains(bytes(swapped), sigma)
    assert contains(bytes(swapped), swapped)


@st.composite
def words_with_units(draw):
    # a unit of 1..12 patterns of mixed lengths 1..7 and a word of n <= 10
    # distinct integers; half the words have an occurrence of one of the
    # unit's patterns planted
    lengths = st.integers(1, 7).flatmap(lambda m: st.permutations(range(1, m + 1)))
    unit = tuple(tuple(p) for p in draw(st.lists(lengths, min_size=1, max_size=12)))
    n = draw(st.integers(0, 10))
    sigma = draw(st.sampled_from(unit))
    m = len(sigma)
    if m <= n and draw(st.booleans()):
        word = [10 * v for v in sigma]
        fillers = st.integers(1, 10 * m + 9).filter(lambda v: v % 10)
        for value in draw(st.lists(fillers, min_size=n - m, max_size=n - m, unique=True)):
            word.insert(draw(st.integers(0, len(word))), value)
    else:
        word = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n, unique=True))
    return unit, tuple(word)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(words_with_units())
def test_unit_mask_bits_match_brute_force(case):
    unit, word = case
    want = sum(naive_contains(word, sigma) << j for j, sigma in enumerate(unit))
    assert perms._matcher(unit)(word) == want
    # on the graph of the word's pattern in a square, the board form agrees
    dots = [(x + 1, v) for x, v in enumerate(pattern_of(word))]
    assert perms._matcher(unit, board=True)(dots, (len(word),) * len(word)) == want


def test_a_unit_of_long_and_short_patterns_is_one_compiled_matcher():
    long = (2, 1, *range(3, 18))  # not monotone, so compiled
    assert perms._matcher((long,))((2, 1, *range(3, 19))) == 1
    assert perms._matcher((long,))(tuple(range(1, 19))) == 0
    # fork's first 16 entries have the pattern of long's, so the two leave
    # the shared loops for two level functions at depth 16, each called
    # under the mask guard of its sibling; () alone, or beside (1, 2), is
    # found before any loop runs
    long = (2, 1, *range(3, 19))
    fork = (3, 2, *range(4, 18), 1, 18)
    mixed = ((2, 1), long, (1, 3, 2), long[::-1], (1, 2), long, fork)
    source = perms._matcher_source(mixed, False)
    levels = re.findall(r"^def (level16\w*)\(", source, re.M)
    assert len(levels) == 3 and levels[0] == "level16"
    assert re.search(r"if mask & (\d+) != \1:\n +mask = level16_\d+\(", source)
    words = [
        (),
        (3, 1, 2),
        long[:-1],  # fewer entries than the long patterns
        long,
        long[::-1],
        fork,
        tuple(range(1, 19)),
        (2, 1, *range(3, 20)),
        (20, *long[::-1], 19),
        (1, 19, *range(3, 18), 2, 18),
        (*fork[:16], 18, 0, 19),  # long and fork in one word
    ]
    rng = random.Random(1)
    for base in (long, fork, long[::-1]):
        for _ in range(10):  # a few transpositions, so both answers occur
            word = [*base, 19, 20]
            for _ in range(rng.randrange(3)):
                a, b = rng.sample(range(len(word)), 2)
                word[a], word[b] = word[b], word[a]
            words.append(tuple(word))
    for unit in (mixed, ((),), ((), (1, 2))):
        assert perms._matcher(unit).__code__.co_filename.startswith("<matcher")
        assert perms._matcher(unit, True).__code__.co_filename.startswith("<matcher")
        for word in words:
            want = sum(naive_contains(word, sigma) << j for j, sigma in enumerate(unit))
            assert perms._matcher(unit)(word) == want, (unit, word)
            dots = [(x + 1, v) for x, v in enumerate(pattern_of(word))]
            assert perms._matcher(unit, True)(dots, (len(word),) * len(word)) == want, word
    # each level function and position set has a name of its own
    for unit in (*UNITS, mixed, ((),), ((), (1, 2))):
        for board in (False, True):
            source = perms._matcher_source(unit, board)
            names = re.findall(r"^(?:def (\w+)\(|    (\w+) = \[0\] \* n$)", source, re.M)
            names = [function or seen for function, seen in names]
            assert len(names) == len(set(names)), (unit, board)


# every pattern of length <= 5 as a unit of its own, and the patterns of
# length 3..5 dealt into eight units of mixed lengths and kinds of level
SMALL = [p for k in range(6) for p in permutations(range(1, k + 1))]
UNITS = [(sigma,) for sigma in SMALL] + [tuple(SMALL[10 + i :: 8]) for i in range(8)]


def level_kinds(unit):
    # for each inner node of the unit's trie: how the loops under it read
    # its own value ("<", ">", "<>" or "unread"), and whether they read a
    # value chosen above it ("carried") or not ("fresh")
    kinds = set()
    nodes = [perms._trie(unit, False)]
    for node in nodes:
        nodes += node.children.values()
        if node.d >= 0 and node.children:
            kinds.add("".join(sorted(node.reads.get(node.d, {"unread"}))))
            kinds.add("fresh" if node.d and min(node.reads) >= node.d else "carried")
    return kinds


def test_the_mixed_units_hold_every_kind_of_level():
    kinds = [level_kinds(unit) for unit in UNITS[-8:]]
    assert all(len(k & {"<", ">", "<>", "unread"}) >= 2 for k in kinds)
    assert set().union(*kinds) == {"<", ">", "<>", "unread", "fresh", "carried"}


@cache
def small_involutions_and_masks():
    # every involution of n <= 8, with the bits of UNITS' patterns that
    # naive_contains finds in it: each pattern of length <= 5 in pi lies
    # in some subsequence of length min(5, n)
    pis = [pi for n in range(9) for pi in involution_list(n)]
    bit = {sigma: 1 << j for j, sigma in enumerate(SMALL)}
    inside = cache(lambda p: sum(bit[s] for s in SMALL if naive_contains(p, s)))
    found = [0] * len(pis)
    for i, pi in enumerate(pis):
        for c in combinations(pi, min(5, len(pi))):
            found[i] |= inside(pattern_of(c))
    return pis, found


@pytest.mark.parametrize("board", [False, True], ids=["word", "board"])
def test_compiled_units_match_naive_contains_on_every_small_involution(board):
    pis, found = small_involutions_and_masks()
    if board:  # on the square the board form finds the same patterns
        args = [[list(enumerate(pi, 1)) for pi in pis], [(len(pi),) * len(pi) for pi in pis]]
    else:
        args = [pis]
    for unit in UNITS:
        match = perms._matcher(unit, board)
        bits = [SMALL.index(sigma) for sigma in unit]
        want = [sum((f >> b & 1) << j for j, b in enumerate(bits)) for f in found]
        assert list(map(match, *args)) == want, unit
        if not board:  # the counts pass the word form rows of bytes
            assert list(map(match, map(bytes, pis))) == want, unit


def test_a_board_matcher_starts_its_running_bounds_at_ints():
    # a board's rows lie in 1..len(shape), so a running minimum with no
    # linked bound starts at len(shape) + 1 and a running maximum at 0, and
    # no row is compared with a float infinity; the word form's seq may
    # hold any integers, so it keeps inf and -inf
    board = [perms._matcher_source(unit, True) for unit in UNITS]
    word = [perms._matcher_source(unit, False) for unit in UNITS]
    assert not any("inf" in source for source in board)
    assert any(re.search(r"m\d+ = len\(shape\) \+ 1$", s, re.M) for s in board)
    assert any(re.search(r"m\d+ = 0$", s, re.M) for s in board)
    assert any(re.search(r"m\d+ = inf$", s, re.M) for s in word)
    assert any(re.search(r"m\d+ = -inf$", s, re.M) for s in word)


def compiled(unit):
    # the nested-loop matcher of a unit, whichever test _matcher picks for it
    namespace = {"inf": perms.inf}
    exec(perms._matcher_source(unit, False), namespace)
    return namespace["match"]


MONOTONE = [
    (sigma, down)
    for k in range(1, 9)
    for sigma, down in (((*range(1, k + 1),), False), ((*range(k, 0, -1),), True))
]


def test_a_lone_monotone_pattern_is_tested_by_patience_sorting():
    def name(unit, board=False):
        return perms._matcher(unit, board).__code__.co_filename

    for sigma, down in MONOTONE:
        want = f"<patience k={len(sigma)}{' down' if down else ''}>"
        assert (name((sigma,)) == want) == (len(sigma) > 1), sigma
    # a unit of two, the board form and any other pattern stay compiled loops
    assert name(((1, 2), (2, 1))) == "<matcher m=2,2>"
    assert name(((1, 2),), board=True) == "<matcher m=2>"
    assert name(((1, 3, 2),)) == "<matcher m=3>"


def test_patience_matches_the_compiled_loops_on_every_small_involution():
    pis = [pi for n in range(10) for pi in involution_list(n)]
    for sigma, down in MONOTONE:
        want = list(map(compiled((sigma,)), pis))
        match = perms._patience(len(sigma), down)
        assert list(map(match, pis)) == want, sigma
        assert list(map(match, map(bytes, pis))) == want, sigma


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-(10**12), 10**12), max_size=14, unique=True),
    st.sampled_from(MONOTONE),
)
def test_patience_matches_the_compiled_loops_on_arbitrary_words(word, case):
    sigma, down = case
    want = compiled((sigma,))(word)
    match = perms._patience(len(sigma), down)
    assert match(word) == match(tuple(word)) == want


@pytest.mark.parametrize("down", [False, True])
def test_patience_holds_twelve_hundred_tails(down):
    # one flat `if` a tail: an `elif` chain this long would not compile
    sigma = (*range(1200, 0, -1),) if down else (*range(1, 1201),)
    word = [v * 10**15 - 7 for v in range(1, 1201)]
    if down:
        word.reverse()
    assert contains(word, sigma)
    word[599], word[600] = word[600], word[599]
    assert not contains(word, sigma)
    assert not contains(word[:-1], sigma)
    assert contains(word, sigma[1:] if down else sigma[:-1])


@cache
def chained_monotone(down):
    # 17 levels: the compiled loops chain two functions
    sigma = (*range(17, 0, -1),) if down else (*range(1, 18),)
    assert "def level16(" in perms._matcher_source((sigma,), False)
    return sigma, compiled((sigma,))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(14, 20),
    st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=4),
    st.booleans(),
)
def test_patience_matches_the_chained_loops_past_the_nesting_limit(n, swaps, down):
    # a few transpositions of 1..n leave its longest increasing subsequence
    # near 17, so both answers occur
    word = list(range(1, n + 1))
    for a, b in swaps:
        if max(a, b) < n:
            word[a], word[b] = word[b], word[a]
    if down:
        word.reverse()
    sigma, loops = chained_monotone(down)
    want = loops(word)
    assert perms._patience(17, down)(word) == want
    assert perms._matcher((sigma,))(bytes(word)) == want


def test_involution_counts_match_known_sequence():
    expected = [1, 1, 2, 4, 10, 26, 76, 232, 764]
    assert [len(involution_list(n)) for n in range(9)] == expected


def test_involutions_are_involutions_and_distinct():
    for n in range(7):
        seen = list(involutions(n))
        assert len(set(seen)) == len(seen)
        assert all(is_involution(pi) for pi in seen)


def test_is_involution_examples():
    assert is_involution(())
    assert is_involution((2, 1, 3))
    assert not is_involution((2, 3, 1))


def test_text_round_trip():
    for pi in [(3, 1, 2), (), tuple(range(1, 12))]:
        assert perm_from_text(perm_to_text(pi)) == pi
    assert perm_to_text(tuple(range(1, 12))).count(",") == 10
    with pytest.raises(InvalidWordError):
        perm_from_text("122")


def reference_involutions(n):
    # the pairing recursion as it stood before boards and perms shared one
    # kernel: the least free index is a fixed point, then paired with each
    # later free index in turn
    mapping = [0] * n

    def extend(free):
        if not free:
            yield tuple(mapping)
            return
        t = free[0]
        mapping[t - 1] = t
        yield from extend(free[1:])
        for idx in range(1, len(free)):
            u = free[idx]
            mapping[t - 1] = u
            mapping[u - 1] = t
            yield from extend(free[1:idx] + free[idx + 1 :])

    yield from extend(tuple(range(1, n + 1)))


def reference_pairings(reach):
    # the shared recursion as it stood before the explicit-stack walk: the
    # same choices, with t paired only up to reach[t - 1]
    mapping = [0] * len(reach)

    def extend(free):
        if not free:
            yield tuple(mapping)
            return
        t = free[0]
        bound = reach[t - 1]
        if t <= bound:
            mapping[t - 1] = t
            yield from extend(free[1:])
        for idx in range(1, len(free)):
            u = free[idx]
            if u > bound:
                break
            mapping[t - 1] = u
            mapping[u - 1] = t
            yield from extend(free[1:idx] + free[idx + 1 :])

    yield from extend(tuple(range(1, len(reach) + 1)))


@pytest.mark.parametrize("n", range(12))
def test_involutions_match_the_reference_recursion(n):
    want = list(reference_involutions(n))
    assert list(involutions(n)) == want
    assert list(perms._pairings((n,) * n, bytes)) == [bytes(pi) for pi in want]


def test_the_pairing_walk_matches_the_recursion_on_every_shape_of_side_8():
    shapes = list(enumerate_self_conjugate_shapes(8))
    assert len(shapes) == 256
    for shape in shapes:
        assert list(perms._pairings(shape)) == list(reference_pairings(shape)), shape
    # past side 255 an entry does not fit a byte; this hook has no placement
    assert list(perms._pairings((256,) + (1,) * 255)) == []


def test_involution_list_refuses_n_past_its_limit():
    # the limit is checked before the store two sizes down is built
    perms._rc_orbits.cache_clear()
    for n in (14, 15):
        with pytest.raises(InvalidInputError, match="limit of 13"):
            involution_list(n)
        with pytest.raises(InvalidInputError, match="limit of 13"):
            perms._rc_orbits(n)
    assert perms._rc_orbits.cache_info().currsize == 0


@pytest.mark.parametrize("n", [True, 2.0, "3", None, -1])
def test_a_bad_n_is_refused_before_anything_is_built(n, monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated before n was checked")

    monkeypatch.setattr(perms, "_pairings", enumerate_nothing)
    perms._rc_orbits.cache_clear()
    for build in (involutions, involution_list, perms._rc_orbits):
        with pytest.raises(InvalidInputError, match="n must be an integer >= 0"):
            build(n)
    assert perms._rc_orbits.cache_info().currsize == 0


def test_an_unhashable_n_is_refused_by_name():
    for build in (involutions, involution_list):
        with pytest.raises(InvalidInputError, match="n must be an integer >= 0"):
            build([3])


def reference_rc_orbits(n):
    # the store as the pairing walk over every involution of [n] builds it,
    # keeping the smaller member of each orbit of two and the fixed rows
    image_of = perms._rc_image(n)
    pairs, fixed = [], []
    for row in perms._pairings((n,) * n, bytes):
        image = image_of(row)
        if row < image:
            pairs.append(row)
        elif row == image:
            fixed.append(row)
    return tuple(pairs), tuple(fixed)


@pytest.mark.parametrize("n", range(13))
def test_rc_orbits_match_the_walk_over_every_involution(n):
    assert perms._rc_orbits(n) == reference_rc_orbits(n)


def test_rc_orbits_are_built_without_the_pairing_walk(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("the store walked every involution")

    monkeypatch.setattr(perms, "_pairings", enumerate_nothing)
    perms._rc_orbits.cache_clear()
    pairs, fixed = perms._rc_orbits(12)
    assert (len(pairs), len(fixed)) == (69384, 1384)


@pytest.mark.parametrize("n", range(12))
def test_rc_orbits_partition_the_involution_list(n):
    pairs, fixed = ([tuple(row) for row in part] for part in perms._rc_orbits(n))
    images = [reversed_complement(pi) for pi in pairs]
    assert all(pi < image for pi, image in zip(pairs, images))
    assert all(reversed_complement(pi) == pi for pi in fixed)
    parts = [*pairs, *fixed, *images]
    assert len(set(parts)) == len(parts)  # disjoint, no repeats within a part
    assert sorted(parts) == sorted(involutions(n))
    assert all(type(row) is bytes for part in perms._rc_orbits(n) for row in part)
    # the list is the three parts in order, as tuples
    assert involution_list(n) == tuple(parts)


def test_the_orbit_rows_take_at_most_64_bytes_each():
    # the 18,004 orbit members kept at 11 take 152 B each with their slot
    # as tuples, 52 B as bytes (as tracemalloc counts them)
    perms._rc_orbits.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs, fixed = perms._rc_orbits(11)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 64 * (len(pairs) + len(fixed))


def test_involution_list_holds_no_copy_of_the_rows():
    # involution_list builds its tuples and the images on each call; with
    # a cache of its own, the 35,696 tuples of 11 would stay alive (about
    # 5 MiB)
    perms._rc_orbits(11)
    tracemalloc.start()
    try:
        assert len(involution_list(11)) == 35696
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20
