"""Standard Young tableaux, row insertion, and evacuation.

A tableau is stored as a tuple of row tuples, the row containing 1 first.
Entries increase along rows and along columns (from one row to the next),
and row lengths weakly decrease.

A tableau is checked once.  validate_tableau checks what comes from
outside; it, rsk, evacuation and standard_tableaux return the private tuple
subclass _Standard, which the tableau operations take without a new check.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import lt
from typing import Iterator

from .boards import validate_shape
from .errors import InvalidTableauError
from .perms import Perm, _ints, validate_perm

Tableau = tuple[tuple[int, ...], ...]


def tableau_shape(t: Tableau) -> tuple[int, ...]:
    return tuple(map(len, t))


def is_standard(t: Tableau) -> bool:
    """Check strict row/column increase and entries 1..n each once.

    This checks the filling only, so trailing empty rows pass (rows weakly
    shorten, so an empty row can only come last); validate_tableau adds the
    rule that no row is empty.
    """
    try:
        entries = sorted(chain.from_iterable(t))
    except TypeError:  # entries that do not compare
        return False
    if entries != [*range(1, len(entries) + 1)]:
        return False
    # entries are distinct here, so a sorted row strictly increases
    for row in t:
        if [*row] != sorted(row):
            return False
    # a lower row no longer than the upper one ends under it, where map stops
    for upper, lower in zip(t, t[1:]):
        if len(upper) < len(lower) or not all(map(lt, upper, lower)):
            return False
    return True


class _Standard(tuple):
    """A tableau known to be standard with no empty row: built by this
    module, or checked once by validate_tableau.  Only this exact type is
    trusted, so a caller's own tuple subclass is checked like any tuple."""

    __slots__ = ()


def validate_tableau(rows) -> Tableau:
    """rows as a tuple of tuples, after checking that every entry is an int
    (bool excluded), that it is standard and that no row is empty
    (is_standard alone lets trailing empty rows through, and rows weakly
    shorten, so an empty row is the last).  A tableau that this module
    built or already checked is returned as it is.
    """
    if type(rows) is _Standard:
        return rows
    try:
        t = tuple(map(tuple, rows))
    except TypeError:
        raise InvalidTableauError(f"not a sequence of rows: {rows!r}") from None
    if not set(map(type, chain.from_iterable(t))) <= {int}:
        raise InvalidTableauError(f"tableau entries must be integers: {t}")
    if not is_standard(t) or (t and not t[-1]):
        raise InvalidTableauError(f"not a standard tableau: {t}")
    return _Standard(t)


def transpose_tableau(t: Tableau) -> Tableau:
    """Reflect across the main diagonal (rows become columns); rows that do
    not weakly shorten raise InvalidTableauError.

    >>> transpose_tableau(((1, 2), (3,)))
    ((1, 3), (2,))
    """
    if not t:
        return ()
    if any(len(upper) < len(lower) for upper, lower in zip(t, t[1:])):
        raise InvalidTableauError(f"a row is longer than the row above it: {t}")
    return tuple(
        tuple(t[r][c] for r in range(len(t)) if c < len(t[r])) for c in range(len(t[0]))
    )


def rsk(pi: Perm) -> tuple[Tableau, Tableau]:
    """Row-insert pi; return the insertion and recording tableaux.

    The tableaux share a shape with len(pi) boxes, and an involution yields
    equal tableaux.  pi must permute 1..n (InvalidWordError otherwise), so
    that both tableaux are standard.

    >>> rsk((3, 1, 2))
    (((1, 2), (3,)), ((1, 3), (2,)))
    """
    pi = validate_perm(pi)
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(pi, start=1):
        x = value
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            idx = bisect_right(row, x)
            if idx == len(row):
                row.append(x)
                q_rows[r].append(step)
                break
            row[idx], x = x, row[idx]
            r += 1
    return _Standard(map(tuple, p_rows)), _Standard(map(tuple, q_rows))


def rsk_inverse(p: Tableau, q: Tableau) -> Perm:
    """Recover the permutation from an (insertion, recording) pair.

    >>> rsk_inverse(((1, 2), (3,)), ((1, 3), (2,)))
    (3, 1, 2)
    """
    p = validate_tableau(p)
    q = validate_tableau(q)
    if tableau_shape(p) != tableau_shape(q):
        raise InvalidTableauError("tableaux have different shapes")
    rows = [list(row) for row in p]
    n = sum(map(len, q))
    row_of = [0] * (n + 1)  # row_of[v] is the row of q that holds v
    for r, row in enumerate(q):
        for v in row:
            row_of[v] = r
    word = [0] * n
    for step in range(n, 0, -1):
        # the largest entry left in q is an outer corner: last in its row
        r = row_of[step]
        x = rows[r].pop()
        while r:
            r -= 1
            row = rows[r]
            idx = bisect_right(row, x) - 1
            row[idx], x = x, row[idx]
        word[step - 1] = x
    return validate_perm(word)


def evacuation(q: Tableau) -> Tableau:
    """Schützenberger's evacuation, the shape-preserving involution that
    deletes the smallest entry and slides the hole to an outer corner, the
    corner vacated at step s receiving n+1-s; computed by row insertion.

    By Schützenberger's theorem evac(P(w)) = P(w#), where w# is the reverse
    complement of w.  The row reading word of q (its rows from the last up,
    each left to right) has insertion tableau q, so evac(q) inserts the
    reverse complement of that word: the rows of q from the one holding 1
    down, each right to left, each entry v read as n+1-v.

    >>> evacuation(((1, 2), (3,)))
    ((1, 3), (2,))
    >>> evacuation(((1, 2, 3),))
    ((1, 2, 3),)
    """
    q = validate_tableau(q)
    end = sum(map(len, q)) + 1
    rows: list[list[int]] = []
    for q_row in q:
        for v in reversed(q_row):
            x = end - v
            for row in rows:
                idx = bisect_right(row, x)
                if idx == len(row):
                    row.append(x)
                    break
                row[idx], x = x, row[idx]
            else:
                rows.append([x])
    return _Standard(map(tuple, rows))


def check_reversal_property(w: Perm) -> bool:
    """Whether reversing w transposes the insertion tableau and evacuates
    then transposes the recording tableau.  Holds for every permutation.
    """
    p, q = rsk(w)
    rp, rq = rsk(tuple(reversed(w)))
    return rp == transpose_tableau(p) and rq == transpose_tableau(evacuation(q))


def standard_tableaux(shape: tuple[int, ...]) -> Iterator[Tableau]:
    """Yield every standard tableau of the given shape, which must be a
    partition (InvalidShapeError otherwise).

    One grid is filled in place with n, n-1, ..., 1, each placed in an
    outer corner of the cells still empty, rows tried top to bottom.  The
    tableaux therefore come out ordered by (row of n, row of n-1, ...,
    row of 1).  The walk keeps the row of each entry placed on one explicit
    stack, with no chain of nested generators.  1 always sits at (0, 0),
    and 2 in whichever of (0, 1) and (1, 0) is left, so the walk stops at 2.

    >>> list(standard_tableaux((2, 1)))
    [((1, 3), (2,)), ((1, 2), (3,))]
    """
    shape = validate_shape(shape)
    height = len(shape)
    grid = [[0] * length for length in shape]
    if grid:
        grid[0][0] = 1
    # empty cells left in each row, then a row of none and a row of -1, at
    # which the corner search below stops
    left = [*shape, 0, -1]
    placed = []  # the row of each entry placed, n first
    v = sum(shape)  # the entry to place next
    r = 0  # the first row to try it in
    while True:
        while v > 2:
            # the first row from r whose last empty cell is an outer corner
            c = left[r]
            while left[r + 1] >= c:
                r += 1
                c = left[r]
            if r == height:
                break
            left[r] = c - 1
            grid[r][c - 1] = v
            placed.append(r)
            v -= 1
            r = 0
        else:
            if v == 2:
                if left[0] == 2:
                    grid[0][1] = 2
                else:
                    grid[1][0] = 2
            yield _Standard(map(tuple, grid))
        # take back the last entry placed and try it in a lower row
        if not placed:
            return
        r = placed.pop()
        left[r] += 1
        v += 1
        r += 1


def tableau_to_text(t: Tableau) -> str:
    """Rows joined by '/', entries comma-separated: '1,2/3'."""
    return "/".join(",".join(str(v) for v in row) for row in t)


def tableau_from_text(text: str) -> Tableau:
    text = text.strip()
    if not text:
        return ()
    rows = [_ints(row, "tableau", text, error=InvalidTableauError) for row in text.split("/")]
    return validate_tableau(rows)
