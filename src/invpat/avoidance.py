"""Exact counting of pattern-avoiding involutions and symmetric placements.

Everything here is exact integer arithmetic; the brute-force counters are
cross-checked against the closed forms, which come from independent
published formulas.
"""
from __future__ import annotations

import json
import os
from functools import cache
from itertools import filterfalse
from math import comb, factorial, prod
from typing import Iterable, Sequence

from . import boards
from .errors import InvalidInputError
from .perms import Perm, _matcher, involution_list, perm_from_text, perm_to_text

PatternSet = frozenset[Perm]


def pattern_set(patterns: Iterable) -> PatternSet:
    """Normalize an iterable of permutations/texts into a pattern set."""
    out = set()
    for p in patterns:
        out.add(perm_from_text(p) if isinstance(p, str) else tuple(p))
    if not out or any(len(p) == 0 for p in out):
        raise InvalidInputError("pattern set must be nonempty with nonempty patterns")
    return frozenset(out)


def pattern_set_key(patterns: PatternSet) -> str:
    """Canonical text form; ';' separates patterns (commas occur inside)."""
    return ";".join(sorted(perm_to_text(p) for p in sorted(patterns)))


def _avoiding_involutions(n: int, patterns) -> Sequence[Perm]:
    # cheapest check first; each pattern sees only the survivors of the
    # shorter ones, so every involution meets the same matchers as in a
    # nested loop that stops at the first match
    found = involution_list(n)
    for sigma in sorted(patterns, key=len):
        found = list(filterfalse(_matcher(sigma), found))
    return found


@cache
def _count_avoiders(n: int, patterns: PatternSet) -> int:
    return len(_avoiding_involutions(n, patterns))


def count_avoiders(n: int, patterns, store: "CountStore | None" = None) -> int:
    """Number of involutions of [n] avoiding every pattern in the set.

    >>> count_avoiders(7, ["1234"])
    127
    """
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    ps = pattern_set(patterns)
    if store is not None:
        key = f"{pattern_set_key(ps)}|{n}"
        hit = store.get(key)
        if hit is not None:
            return hit
        value = _count_avoiders(n, ps)
        store.put(key, value)
        return value
    return _count_avoiders(n, ps)


def lambda_sym(shape, patterns) -> int:
    """Number of symmetric full placements on the shape avoiding the set.

    >>> lambda_sym((3, 3, 3), ["123"])
    3
    >>> lambda_sym((3, 3, 2), ["123"]), lambda_sym((3, 3, 2), ["321"])
    (2, 2)
    """
    shape = boards._self_conjugate_shape(shape)
    placements = boards.symmetric_full_placements(shape)
    return len(boards.avoiding(placements, pattern_set(patterns)))


def count_avoiders_with_column_constraint(
    n: int, main, flank: Perm, side: str, i: int
) -> int:
    """Involutions of [n] avoiding ``main`` whose i outermost positions,
    on the given side, additionally avoid ``flank``.

    >>> count_avoiders_with_column_constraint(3, ["123"], (1, 2), "left", 3)
    1
    """
    if not 0 <= i <= n:
        raise InvalidInputError(f"i must be in 0..{n}, got {i}")
    if side not in ("left", "right"):
        raise InvalidInputError("side must be 'left' or 'right'")
    window = slice(0, i) if side == "left" else slice(n - i, n)
    match = _matcher(tuple(flank))
    return sum(
        1 for pi in _avoiding_involutions(n, pattern_set(main)) if not match(pi[window])
    )


# -- closed forms used as independent cross-checks --------------------------


def closed_form_123(n: int) -> int:
    """Avoiders of any of 123, 132, 213, 321: the central binomial column.

    >>> [closed_form_123(n) for n in (4, 5)]
    [6, 10]
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return comb(n, n // 2)


def closed_form_231(n: int) -> int:
    """Avoiders of 231 (or 312): 2^(n-1).

    >>> closed_form_231(4)
    8
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return 2 ** (n - 1)


def motzkin(n: int) -> int:
    """The n-th Motzkin number.

    >>> [motzkin(n) for n in (0, 5, 7)]
    [1, 21, 127]
    """
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    return sum(comb(n, 2 * i) * comb(2 * i, i) // (i + 1) for i in range(n // 2 + 1))


closed_form_1234 = motzkin


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def closed_form_12345(n: int) -> int:
    """Avoiders of 12345: a product of two Catalan numbers.

    >>> closed_form_12345(6), closed_form_12345(7)
    (70, 196)
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    k = (n + 1) // 2
    return catalan(k) * catalan(k) if n % 2 else catalan(k) * catalan(k + 1)


def closed_form_123456(n: int) -> int:
    """Avoiders of 123456: an exact factorial sum.

    >>> closed_form_123456(7)
    225
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    total = 0
    for i in range(n // 2 + 1):
        num = 6 * factorial(n) * factorial(2 * i + 2)
        den = (
            factorial(n - 2 * i)
            * factorial(i)
            * factorial(i + 1)
            * factorial(i + 2)
            * factorial(i + 3)
        )
        assert num % den == 0
        total += num // den
    return total


def hook_length_sum(n: int, k: int) -> int:
    """Avoiders of 12...k: the sum of f^λ over partitions λ of n with λ1 < k.

    RSK sends each involution to one standard tableau, whose first row is
    as long as the longest increasing subsequence; f^λ, the number of
    standard tableaux of shape λ, comes from the hook-length formula.

    >>> hook_length_sum(7, 4), hook_length_sum(7, 6)
    (127, 225)
    """
    if n < 0 or k < 1:
        raise InvalidInputError("need n >= 0 and k >= 1")

    def partitions(rest: int, cap: int):
        if rest == 0:
            yield ()
        for first in range(min(rest, cap), 0, -1):
            for tail in partitions(rest - first, first):
                yield (first, *tail)

    total = 0
    for shape in partitions(n, k - 1):
        heights = boards.conjugate(shape)
        hooks = prod(
            part - c + heights[c] - r - 1 for r, part in enumerate(shape) for c in range(part)
        )
        total += factorial(n) // hooks
    return total


# -- persistent memo store ---------------------------------------------------


_HEADER = b'{"format": "invpat-counts", "version": 1}'


class CountStore:
    """Append-only journal mapping 'patterns|n' keys to exact counts.

    Line 1 is the versioned header ``_HEADER``; every later line is one JSON
    ``[key, count]`` pair.  Each put appends its line with a single write, so
    nothing already on disk is rewritten.  A key may repeat with the same
    count (two processes sharing one file); any other deviation makes the
    whole store corrupt, and loading it raises ``InvalidInputError``.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._data: dict[str, int] = {}
        self._unsaved: list[bytes] = []
        if os.path.exists(self.path):
            self._data = self._load()

    def _corrupt(self, line: int, why: str) -> InvalidInputError:
        return InvalidInputError(f"count store {self.path} is corrupt: line {line}: {why}")

    def _load(self) -> dict[str, int]:
        with open(self.path, "rb") as fh:
            lines = fh.read().split(b"\n")
        # a whole journal ends in a newline, so its last piece is empty
        if lines[0] != _HEADER:
            raise self._corrupt(
                1, f"expected the header {_HEADER.decode()}; a store in"
                " another format must be deleted and recomputed"
            )
        data: dict[str, int] = {}
        for number, line in enumerate(lines[1:-1], start=2):
            try:
                entry = json.loads(line)
            except ValueError:  # undecodable bytes or malformed JSON
                entry = None
            if not (
                type(entry) is list
                and len(entry) == 2
                and type(entry[0]) is str
                and type(entry[1]) is int
            ):
                raise self._corrupt(number, "expected a JSON [key, integer count] pair")
            key, value = entry
            if data.setdefault(key, value) != value:
                raise self._corrupt(number, f"{key!r} repeated with a different count")
        if lines[-1]:
            raise self._corrupt(len(lines), "no trailing newline (a torn append)")
        return data

    def get(self, key: str) -> int | None:
        return self._data.get(key)

    def put(self, key: str, value: int) -> None:
        old = self._data.get(key, value)
        if old != value:  # a journal line cannot be taken back
            raise InvalidInputError(f"count store {self.path} holds {key!r} = {old}, not {value}")
        self._data[key] = value
        self._unsaved.append(json.dumps([key, value]).encode() + b"\n")
        self.save()

    def save(self) -> None:
        """Append the lines of every put not yet written, in one write."""
        text = b"".join(self._unsaved)
        with open(self.path, "ab") as fh:
            if fh.tell() == 0:  # this write creates the journal
                text = _HEADER + b"\n" + text
            fh.write(text)
        self._unsaved.clear()
