"""Permutations in one-line notation, patterns, and containment.

A permutation of [n] is a tuple of the integers 1..n, each appearing once.
The empty tuple is the (valid) empty permutation.  Patterns are themselves
permutations; a permutation contains a pattern if some subsequence of it
has the same relative order.
"""
from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInputError, InvalidWordError

Perm = tuple[int, ...]


def validate_perm(values: Sequence[int]) -> Perm:
    """Return values as a tuple after checking it permutes 1..n.

    >>> validate_perm([2, 1, 3])
    (2, 1, 3)
    """
    pi = tuple(values)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise InvalidWordError(f"not a permutation of 1..{len(pi)}: {pi}")
    return pi


def pattern_of(word: Iterable[int]) -> Perm:
    """Order-preserving relabelling of a word with distinct entries.

    >>> pattern_of((7, 9, 6))
    (2, 3, 1)
    >>> pattern_of((9, 6, 5))
    (3, 2, 1)
    """
    w = tuple(word)
    if len(set(w)) != len(w):
        raise InvalidWordError(f"word has repeated entries: {w}")
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return tuple(rank[v] for v in w)


def inverse(pi: Perm) -> Perm:
    """The inverse permutation: inverse(pi)[pi[i]-1] == i+1.

    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    out = [0] * len(pi)
    for i, v in enumerate(pi):
        out[v - 1] = i + 1
    return tuple(out)


def reversed_complement(tau: Perm) -> Perm:
    """Rotate the graph of tau by 180 degrees: (k+1-tau_k)...(k+1-tau_1).

    >>> reversed_complement((1, 2, 4, 3))
    (2, 1, 3, 4)
    """
    k = len(tau)
    return tuple(k + 1 - v for v in reversed(tau))


def is_involution(pi: Perm) -> bool:
    """True iff pi composed with itself is the identity.

    >>> is_involution((1, 2, 7, 9, 6, 5, 3, 8, 4))
    True
    >>> is_involution((4, 9, 7, 3, 8, 5, 6, 2, 1))
    False
    """
    return all(pi[v - 1] == i + 1 for i, v in enumerate(pi))


def symmetry_class(tau: Perm) -> frozenset[Perm]:
    """Orbit of tau under the symmetries preserving diagonal symmetry.

    The four members are tau, its inverse, its reversed complement, and the
    inverse of the reversed complement; duplicates collapse, so the orbit
    has size 1, 2, or 4.

    >>> sorted(symmetry_class((1, 2, 4, 3)))
    [(1, 2, 4, 3), (2, 1, 3, 4)]
    """
    rc = reversed_complement(tau)
    return frozenset((tau, inverse(tau), rc, inverse(rc)))


@cache
def _pattern_links(sigma: Perm) -> tuple[tuple[int | None, int | None], ...]:
    # For each pattern position d, the earlier position holding the closest
    # smaller value and the one holding the closest larger value.  These are
    # the only order constraints a new candidate has to satisfy.
    links = []
    for d in range(len(sigma)):
        lo = hi = None
        for e in range(d):
            if sigma[e] < sigma[d] and (lo is None or sigma[e] > sigma[lo]):
                lo = e
            if sigma[e] > sigma[d] and (hi is None or sigma[e] < sigma[hi]):
                hi = e
        links.append((lo, hi))
    return tuple(links)


# CPython refuses more than 20 statically nested blocks, so the matcher for
# a longer pattern is a chain of functions, each nesting this many loops.
_LEVELS_PER_FUNCTION = 16


def _matcher_source(sigma: Perm, board: bool) -> str:
    # One nested `for` per pattern position d.  Level d scans the candidates
    # left once the m - 1 - d later positions are reserved, and keeps value
    # v<d> only if it lies between the values at its two linked earlier
    # positions.  The board form reads (x, y) dots and also demands that the
    # box at (x<d>, largest y so far) exists; that y is the value at the
    # position of the largest of sigma[:d + 1], so it is known here, and
    # when it is v<d> itself the box is the dot's own and needs no test.
    # The source holds only integer literals and fixed names, no caller text.
    m = len(sigma)
    head = "seq, shape" if board else "seq"
    if m == 0:
        return f"def match({head}):\n    return True\n"
    links = _pattern_links(sigma)
    top = [max(range(d + 1), key=sigma.__getitem__) for d in range(m)]
    reads = [
        {e for e in (*links[d], top[d] if board else None) if e is not None}
        for d in range(m)
    ]

    def carried(k: int) -> str:
        # values chosen before level k that level k or a later one reads
        kept = sorted({e for d in range(k, m) for e in reads[d] if e < k})
        return "".join(f", v{e}" for e in kept)

    lines = []
    for first in range(0, m, _LEVELS_PER_FUNCTION):
        last = min(first + _LEVELS_PER_FUNCTION, m)
        if first == 0:
            lines += [f"def match({head}):", f"    e = len(seq) - {m - 1}"]
        else:
            lines.append(f"def level{first}({head}, e, i{first - 1}{carried(first)}):")
        pad = "    "
        for d in range(first, last):
            start = f"i{d - 1} + 1" if d else "0"
            stop = f"e + {d}" if d else "e"
            lines.append(f"{pad}for i{d} in range({start}, {stop}):")
            pad += "    "
            lines.append(f"{pad}{f'x{d}, ' if board else ''}v{d} = seq[i{d}]")
            lo, hi = links[d]
            if lo is not None or hi is not None:
                low = f"v{lo} < " if lo is not None else ""
                high = f" < v{hi}" if hi is not None else ""
                lines += [f"{pad}if not {low}v{d}{high}:", f"{pad}    continue"]
            if board and top[d] != d:
                lines += [f"{pad}if x{d} > shape[v{top[d]} - 1]:", f"{pad}    continue"]
            if d == m - 1:
                lines.append(f"{pad}return True")
            elif d == last - 1:
                lines += [
                    f"{pad}if level{last}({head}, e, i{d}{carried(last)}):",
                    f"{pad}    return True",
                ]
        lines.append("    return False")
    return "\n".join(lines) + "\n"


@cache
def _matcher(sigma: Perm, board: bool = False):
    """The compiled containment test for one pattern, built on first use.

    The word form is called as match(seq); the board form as
    match(dots, shape) with dots sorted by column.
    """
    namespace: dict = {}
    source = _matcher_source(sigma, board)
    exec(compile(source, f"<matcher m={len(sigma)}>", "exec"), namespace)
    return namespace["match"]


def contains(pi: Sequence[int], sigma: Perm) -> bool:
    """True iff some subsequence of pi has pattern sigma.

    pi may be any sequence of distinct integers; only relative order is
    used.  The empty pattern is contained in everything.  The test runs the
    matcher compiled for sigma on its first use.

    >>> contains((1, 2, 7, 9, 6, 5, 3, 8, 4), (1, 2, 3, 5, 4))
    True
    >>> contains((2, 1, 4, 3), (1, 2, 3, 4))
    False
    """
    return _matcher(sigma)(pi)


def avoids(pi: Sequence[int], sigma: Perm) -> bool:
    """True iff pi has no subsequence with pattern sigma."""
    return not contains(pi, sigma)


def _pairings(reach: Sequence[int]) -> Iterator[Perm]:
    """Yield each involution pi of [len(reach)] with pi[t - 1] <= reach[t - 1]
    for every t, where reach is a self-conjugate shape: on the n x n square
    these are all involutions of [n], on a shape its symmetric full
    placements.

    The least free index t is tried as a fixed point, then paired with each
    later free u in increasing order, stopping at the first u past
    reach[t - 1]; self-conjugacy gives t <= reach[u - 1] for free.
    """
    mapping = [0] * len(reach)

    def extend(free: tuple[int, ...]) -> Iterator[Perm]:
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


def involutions(n: int) -> Iterator[Perm]:
    """Yield every involution of [n], built by pairing the least free index.

    >>> sorted(involutions(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    """
    yield from _pairings((n,) * n)


# involution_list holds them all at once: 568,504 tuples at 13, 46 M at 16
_INVOLUTION_LIST_MAX_N = 13


@cache
def involution_list(n: int) -> tuple[Perm, ...]:
    """All involutions of [n], cached (35,696 of them at n = 11); n above
    13 raises InvalidInputError before anything is enumerated."""
    if n > _INVOLUTION_LIST_MAX_N:
        raise InvalidInputError(
            f"n = {n} is above the involution list limit of {_INVOLUTION_LIST_MAX_N}"
        )
    return tuple(involutions(n))


def perm_to_text(pi: Perm) -> str:
    """Digits concatenated for n <= 9, comma-separated beyond.

    >>> perm_to_text((3, 1, 2))
    '312'
    >>> perm_to_text(tuple([10, 2, 3, 4, 5, 6, 7, 8, 9, 1]))
    '10,2,3,4,5,6,7,8,9,1'
    """
    if len(pi) <= 9:
        return "".join(str(v) for v in pi)
    return ",".join(str(v) for v in pi)


def perm_from_text(text: str) -> Perm:
    """Parse the textual form accepted everywhere in the CLI."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return validate_perm([int(p) for p in text.split(",")])
    return validate_perm([int(ch) for ch in text])
