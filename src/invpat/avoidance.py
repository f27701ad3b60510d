"""Exact counting of pattern-avoiding involutions and symmetric placements.

Everything here is exact integer arithmetic; the brute-force counters are
cross-checked against the closed forms, which come from independent
published formulas.
"""
from __future__ import annotations

import json
import os
from collections import Counter
from functools import cache
from itertools import combinations, filterfalse, repeat
from math import comb, factorial, prod
from typing import Iterable, Sequence

from . import boards
from .errors import InvalidInputError
from .growth import monotone_count
from .perms import (
    Perm,
    _check_listed,
    _check_size,
    _matcher,
    _rc_orbits,
    inverse,
    involution_list,
    pattern_of,
    perm_from_text,
    perm_to_text,
    reversed_complement,
    validate_perm,
)

PatternSet = frozenset[Perm]


def pattern_set(patterns: Iterable) -> PatternSet:
    """Normalize an iterable of permutations/texts into a pattern set."""
    out = set()
    for p in patterns:
        out.add(perm_from_text(p) if isinstance(p, str) else validate_perm(p))
    if not out or any(len(p) == 0 for p in out):
        raise InvalidInputError("pattern set must be nonempty with nonempty patterns")
    return frozenset(out)


def pattern_set_key(patterns: PatternSet) -> str:
    """Canonical text form; ';' separates patterns (commas occur inside)."""
    return ";".join(sorted(perm_to_text(p) for p in sorted(patterns)))


def _avoiding(found: Iterable[Sequence[int]], patterns) -> list:
    # cheapest check first; each pattern sees only the survivors of the
    # shorter ones, so every involution meets the same matchers as in a
    # nested loop that stops at the first match
    for sigma in sorted(patterns, key=len):
        found = list(filterfalse(_matcher((sigma,)), found))
    return found


# the rows that _scan turns into tuples at a time: a matcher reads its row
# as a tuple, so a chunk is converted once for all the units rather than
# once a unit, and the rows are never all held as tuples
_CHUNK = 4096

# _scan takes a census of the length-k patterns when C(n, k) <= this times
# their number m; the two paths cross at C(n, k) / m of about 8 to 12 (see
# _scan)
_CENSUS_RATIO = 10


@cache
def _subsets(n: int, k: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    # for each k-subset V of [n], the bytes.translate table sending each v
    # in V to its rank in V, and the bytes of [n] \ V to delete; 0.59 MB
    # at n = 13 and k = 6 or 7, the most subsets of any n the store holds
    tables, deletes = [], []
    for values in combinations(range(1, n + 1), k):
        table = bytearray(range(256))
        for rank, v in enumerate(values, 1):
            table[v] = rank
        tables.append(bytes(table))
        deletes.append(bytes(v for v in range(1, n + 1) if v not in values))
    return tuple(tables), tuple(deletes)


def _census(rows: Sequence[bytes], n: int, lengths: Iterable[int]) -> Counter:
    """How many of the rows contain each pattern of the given lengths,
    keyed by the pattern's bytes: row.translate(table, delete) is the
    standardised subsequence of the row on one value subset, so the set of
    them over every subset is the set of patterns the row contains."""
    tables: list[bytes] = []
    deletes: list[bytes] = []
    for k in lengths:
        table, delete = _subsets(n, k)
        tables += table
        deletes += delete
    census = Counter()
    for row in rows:
        census.update(set(map(row.translate, tables, deletes)))
    return census


def _scan(rows: Sequence[bytes], cells: list[PatternSet]) -> list[int]:
    """How many of the rows avoid each cell.

    The one-pattern cells of each pattern length k are counted by a census
    when C(n, k) <= _CENSUS_RATIO * m, m the number of their distinct
    length-k patterns: one bytes.translate per k-subset of [n] standardises
    a row on those values, and one Counter.update per row counts, for every
    k-pattern at once, the rows that contain it.  No matcher is compiled.
    The census costs C(n, k) translations a row whatever m is, and the
    matchers' cost grows with m.  In-process, with cold matchers:

        batch        n  C(n, k)/m  matchers  census
        S_6 classes  9     0.2      0.33 s   0.03 s
        S_6 classes 11     1.2      7.33 s   2.24 s
        T3          11     9.8      2.43 s   1.56 s
        T2          11    17.8      1.38 s   1.59 s
        T4          11    25.7      0.85 s   1.79 s

    The other lengths are matched in units: the patterns that agree on the
    standardised prefix of all but their last two entries share one
    compiled matcher, which walks the loops of their common prefixes once
    for all of them.  Each unit counts the masks its matcher returns, and
    each mask counts against every pattern whose bit it has.  A cell of
    several patterns goes through the _avoiding filter.
    """
    singles = [sigma for cell in cells if len(cell) == 1 for sigma in cell]
    n = len(rows[0]) if rows else 0
    widths = Counter(map(len, set(singles)))
    censused = [k for k, m in widths.items() if comb(n, k) <= _CENSUS_RATIO * m]
    found = _census(rows, n, censused) if censused else Counter()
    contained = [found[bytes(sigma)] for sigma in singles]
    units: dict = {}
    for j, sigma in enumerate(singles):
        if len(sigma) not in censused:
            units.setdefault(pattern_of(sigma[:-2]), []).append(j)
    matchers = [_matcher(tuple(singles[j] for j in members)) for members in units.values()]
    masks = [Counter() for _ in matchers]
    for at in range(0, len(rows), _CHUNK):
        chunk = rows[at : at + _CHUNK]
        if len(matchers) > 1:  # a lone matcher reads the bytes itself
            chunk = [*map(tuple, chunk)]
        for match, seen in zip(matchers, masks):
            seen.update(map(match, chunk))
    for members, seen in zip(units.values(), masks):
        for mask, count in seen.items():
            for bit, j in enumerate(members):
                if mask >> bit & 1:
                    contained[j] += count
    single = iter(contained)
    return [
        len(rows) - next(single) if len(cell) == 1 else len(_avoiding(rows, cell))
        for cell in cells
    ]


def _up_to_inverse(patterns: PatternSet) -> PatternSet:
    """The one of S and S⁻¹ (the patterns' inverses) that the scans read:
    the larger by sorted patterns, the member measured cheaper to match."""
    return max(patterns, frozenset(map(inverse, patterns)), key=sorted)


def _avoider_counts(
    n: int, cells: Sequence[PatternSet], start: int = 0, step: int = 1
) -> list[int]:
    """For each pattern set, how many involutions of [n] avoid it, counted
    over every step-th row from start of each part of perms._rc_orbits(n).
    No row holds a pattern longer than n, so each cell drops those first;
    a cell left empty counts every row.

    The image of a pair avoids S iff the pair avoids rc(S), so a cell
    counts A(pairs, S) + A(pairs, rc S) + A(fixed, S).  Every row is an
    involution, π = π⁻¹, and π contains σ iff π⁻¹ contains σ⁻¹, so a row
    avoids S iff it avoids S⁻¹: each set is scanned up to inverse, as
    _up_to_inverse(S).  The pairs are scanned once for the distinct sets
    so read from the cells and their images, which scans a cell whose
    image is itself or its inverse once, and the fixed rows for the cells
    alone.
    """
    pairs, fixed = (part[start::step] for part in _rc_orbits(n))
    cells = [frozenset(sigma for sigma in cell if len(sigma) <= n) for cell in cells]
    read = [_up_to_inverse(cell) for cell in cells]
    images = [_up_to_inverse(frozenset(map(reversed_complement, cell))) for cell in cells]
    scanned = [*dict.fromkeys([*read, *images])]
    in_pairs = dict(zip(scanned, _scan(pairs, scanned)))
    return [
        in_pairs[cell] + in_pairs[image] + count
        for cell, image, count in zip(read, images, _scan(fixed, read))
    ]


# count_avoiders' in-process memo, (n, pattern set) -> count; _each_count
# fills it a batch at a time
_known: dict[tuple[int, PatternSet], int] = {}


def _cell_key(patterns: PatternSet, n: int) -> str:
    """The CountStore key of the avoider count of a pattern set at n."""
    return f"{pattern_set_key(patterns)}|{n}"


def count_avoiders(n: int, patterns, store: "CountStore | None" = None) -> int:
    """Number of involutions of [n] avoiding every pattern in the set.

    A set whose patterns are all 12...j or j...1 is counted over partitions
    by growth.monotone_count on the n x n square; any other set is counted
    over the involution store, perms._rc_orbits.  Either way an n past the
    store's limit of 13 is refused before any count.

    >>> count_avoiders(7, ["1234"])
    127
    """
    _check_size(n)
    ps = pattern_set(patterns)
    if store is None and (n, ps) in _known:
        return _known[n, ps]
    return _each_count(n, [ps], store)[0]


def _monotone_bounds(cell: PatternSet) -> tuple[int | None, int | None] | None:
    """(a, b) when every pattern of the cell is 12...j or j...1: a the
    shortest increasing length and b the shortest decreasing one, None where
    the cell has none (1 is both).  None when some pattern is neither."""
    ups, downs = [], []
    for sigma in cell:
        up, down = _monotone(len(sigma))
        if sigma == up:
            ups.append(len(sigma))
        if sigma == down:
            downs.append(len(sigma))
        elif sigma != up:
            return None
    return min(ups, default=None), min(downs, default=None)


@cache
def _monotone(k: int) -> tuple[Perm, Perm]:
    # 12...k and k...1, built once a length: a classification tests every cell
    return tuple(range(1, k + 1)), tuple(range(k, 0, -1))


def _each_count(
    n: int, cells: list[PatternSet], store: "CountStore | None", pool=None, jobs: int = 1
) -> list[int]:
    """The avoider count at n of each pattern set.

    The store is read once per cell.  Of the cells in neither it nor the
    memo, n past the store's limit is refused.  Each cell of monotone
    patterns alone is counted into the memo by growth.monotone_count on the
    n x n square, whose symmetric full placements are the involutions of
    [n], with the bounds of _monotone_bounds.  The rest are counted by
    _avoider_counts as one batch into the memo, split over jobs interleaved
    shares of the orbits when a process pool is given.  Every cell is then
    read back through count_avoiders, a memo hit, and the store gets the
    cells it lacked, in order, in one append.
    """
    keys = [_cell_key(cell, n) for cell in cells]
    stored = [None] * len(cells) if store is None else [store.get(key) for key in keys]
    for cell, count in zip(cells, stored):
        if count is not None:
            _known.setdefault((n, cell), count)
    todo = [cell for cell in cells if (n, cell) not in _known]
    if todo:
        _check_listed(n)
    for cell in todo:
        bounds = _monotone_bounds(cell)
        if bounds is not None:
            _known[n, cell] = monotone_count((n,) * n, *bounds)
    todo = [cell for cell in todo if (n, cell) not in _known]
    if todo:
        if pool is None:
            counts = _avoider_counts(n, todo)
        else:
            shares = pool.map(
                _avoider_counts, repeat(n), repeat(todo, jobs), range(jobs), repeat(jobs)
            )
            counts = [sum(cell) for cell in zip(*shares)]
        for cell, count in zip(todo, counts):
            _known[n, cell] = count
    column = [count_avoiders(n, cell) for cell in cells]
    if store is not None:
        store.update(
            (key, count) for key, count, hit in zip(keys, column, stored) if hit is None
        )
    return column


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
    if type(n) is not int or not 0 <= i <= n:
        raise InvalidInputError(f"need an integer n and i in 0..n, got n = {n!r}, i = {i!r}")
    if side not in ("left", "right"):
        raise InvalidInputError("side must be 'left' or 'right'")
    window = slice(0, i) if side == "left" else slice(n - i, n)
    match = _matcher((tuple(flank),))
    found = _avoiding(involution_list(n), pattern_set(main))
    return sum(1 for pi in found if not match(pi[window]))


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
    ``[key, count]`` pair.  Each update appends the lines of its batch with a
    single write, one append per counted batch, and a put alone appends its
    line at once, so nothing already on disk is rewritten.  A key may repeat
    with the same count (two processes sharing one file); any other
    deviation makes the whole store corrupt, and loading it raises
    ``InvalidInputError``.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._data: dict[str, int] = {}
        self._unsaved: list[bytes] = []
        # refused here, so no count is computed for a store it cannot keep
        if os.path.isdir(self.path):
            raise InvalidInputError(f"count store {self.path} is a directory")
        parent = os.path.dirname(os.path.abspath(self.path))
        if not os.path.isdir(parent):
            raise InvalidInputError(f"count store {self.path}: no directory {parent}")
        if os.path.exists(self.path):
            self._data = self._load()

    def _corrupt(self, line: int, why: str) -> InvalidInputError:
        return InvalidInputError(f"count store {self.path} is corrupt: line {line}: {why}")

    def _load(self) -> dict[str, int]:
        try:
            with open(self.path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except OSError as exc:
            raise InvalidInputError(f"cannot read count store {self.path}: {exc.strerror}") from exc
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

    def put(self, key: str, value: int, *, save: bool = True) -> None:
        """Record one count; its journal line is appended now, or by the
        next save when save is false."""
        old = self._data.get(key, value)
        if old != value:  # a journal line cannot be taken back
            raise InvalidInputError(f"count store {self.path} holds {key!r} = {old}, not {value}")
        self._data[key] = value
        self._unsaved.append(json.dumps([key, value]).encode() + b"\n")
        if save:
            self.save()

    def update(self, pairs: Iterable[tuple[str, int]]) -> None:
        """Put each (key, count) pair, in order, with one append for the
        batch; an empty batch opens no file.  Every pair is checked against
        the store and the pairs before it first, so a batch that gives some
        key a second count records none of its pairs."""
        pairs = list(pairs)
        if not pairs:
            return
        given: dict[str, int] = {}
        for key, value in pairs:
            old = given.setdefault(key, self._data.get(key, value))
            if old != value:  # a journal line cannot be taken back
                raise InvalidInputError(
                    f"count store {self.path}: {key!r} is given {value}, but {old}"
                    " is already recorded or earlier in the batch"
                )
        for key, value in pairs:
            self.put(key, value, save=False)
        self.save()

    def save(self) -> None:
        """Append the lines of every put not yet written, in one write."""
        text = b"".join(self._unsaved)
        try:
            with open(self.path, "ab") as fh:
                if fh.tell() == 0:  # this write creates the journal
                    text = _HEADER + b"\n" + text
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write count store {self.path}: {exc.strerror}") from exc
        self._unsaved.clear()
