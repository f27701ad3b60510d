"""Standard Young tableaux, row insertion, and evacuation.

A tableau is stored as a tuple of row tuples, the row containing 1 first.
Entries increase along rows and along columns (from one row to the next),
and row lengths weakly decrease.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import lt
from typing import Iterator

from .boards import validate_shape
from .errors import InvalidTableauError
from .perms import Perm, validate_perm

Tableau = tuple[tuple[int, ...], ...]


def tableau_shape(t: Tableau) -> tuple[int, ...]:
    return tuple(map(len, t))


def is_standard(t: Tableau) -> bool:
    """Check strict row/column increase and entries 1..n each once."""
    lengths = list(map(len, t))
    if lengths != sorted(lengths, reverse=True):
        return False
    entries = sorted(chain.from_iterable(t))
    if entries != list(range(1, len(entries) + 1)):
        return False
    # entries are distinct here, so a sorted row strictly increases
    if list(map(sorted, t)) != list(map(list, t)):
        return False
    # rows weakly shorten, so map stops at the end of the lower row
    return all(all(map(lt, upper, lower)) for upper, lower in zip(t, t[1:]))


def validate_tableau(rows) -> Tableau:
    t = tuple(map(tuple, rows))
    if not is_standard(t):
        raise InvalidTableauError(f"not a standard tableau: {t}")
    return t


def transpose_tableau(t: Tableau) -> Tableau:
    """Reflect across the main diagonal (rows become columns).

    >>> transpose_tableau(((1, 2), (3,)))
    ((1, 3), (2,))
    """
    if not t:
        return ()
    return tuple(
        tuple(t[r][c] for r in range(len(t)) if c < len(t[r])) for c in range(len(t[0]))
    )


def rsk(pi: Perm) -> tuple[Tableau, Tableau]:
    """Row-insert pi; return the insertion and recording tableaux.

    The tableaux share a shape with len(pi) boxes, and an involution yields
    equal tableaux.

    >>> rsk((3, 1, 2))
    (((1, 2), (3,)), ((1, 3), (2,)))
    """
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
    return tuple(tuple(r) for r in p_rows), tuple(tuple(r) for r in q_rows)


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
    row_of = {v: r for r, row in enumerate(q) for v in row}
    n = len(row_of)
    word = [0] * n
    for step in range(n, 0, -1):
        # the largest entry left in q is an outer corner: last in its row
        r = row_of[step]
        x = rows[r].pop()
        for above in range(r - 1, -1, -1):
            row = rows[above]
            idx = bisect_right(row, x) - 1
            row[idx], x = x, row[idx]
        word[step - 1] = x
    return validate_perm(word)


def evacuation(q: Tableau) -> Tableau:
    """The shape-preserving involution obtained by iterated removal slides.

    Repeatedly delete the smallest entry and slide the hole to an outer
    corner; the corner vacated at step s receives n+1-s in the result.

    >>> evacuation(((1, 2), (3,)))
    ((1, 3), (2,))
    >>> evacuation(((1, 2, 3),))
    ((1, 2, 3),)
    """
    q = validate_tableau(q)
    # the sentinel n + 1 pads each row and adds one row, so every cell of q
    # has a right and a lower neighbour; vacated cells take it too
    end = sum(map(len, q)) + 1
    width = len(q[0]) + 1 if q else 1
    grid = [list(row) + [end] * (width - len(row)) for row in q]
    grid.append([end] * width)
    out = [[0] * len(row) for row in q]
    for step in range(1, end):
        r = c = 0
        while True:
            right, down = grid[r][c + 1], grid[r + 1][c]
            if right < down:
                grid[r][c] = right
                c += 1
            elif down < right:
                grid[r][c] = down
                r += 1
            else:  # both are the sentinel: (r, c) is an outer corner
                break
        grid[r][c] = end
        out[r][c] = end - step
    return tuple(map(tuple, out))


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
    row of 1).

    >>> list(standard_tableaux((2, 1)))
    [((1, 3), (2,)), ((1, 2), (3,))]
    """
    shape = validate_shape(shape)
    grid = [[0] * length for length in shape]
    left = list(shape)  # empty cells left in each row
    last = len(left) - 1

    def fill(v: int) -> Iterator[Tableau]:
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


def tableau_to_text(t: Tableau) -> str:
    """Rows joined by '/', entries comma-separated: '1,2/3'."""
    return "/".join(",".join(str(v) for v in row) for row in t)


def tableau_from_text(text: str) -> Tableau:
    text = text.strip()
    if not text:
        return ()
    try:
        rows = [[int(v) for v in row.split(",")] for row in text.split("/")]
    except ValueError:
        raise InvalidTableauError(
            f"tableau text {text!r} has an empty or non-integer entry"
        ) from None
    return validate_tableau(rows)
