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
from math import comb, factorial
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


# -- persistent memo store ---------------------------------------------------


class CountStore:
    """JSON-backed map from 'patterns|n' keys to exact counts.

    Writes are serialized through a single in-process object; reads may
    happen from any number of consumers.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._data: dict[str, int] = {}
        if os.path.exists(self.path):
            self._data = self._load()

    def _load(self) -> dict[str, int]:
        try:
            with open(self.path) as fh:
                data = json.load(fh)
        except ValueError:  # undecodable bytes or malformed JSON
            data = None
        if not isinstance(data, dict) or any(type(v) is not int for v in data.values()):
            raise InvalidInputError(
                f"count store {self.path} is corrupt: expected a JSON object of integer counts"
            )
        return data

    def get(self, key: str) -> int | None:
        return self._data.get(key)

    def put(self, key: str, value: int) -> None:
        self._data[key] = value
        self.save()

    def save(self) -> None:
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self._data, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)
