"""Ferrers shapes and rook placements on them.

A shape is a weakly decreasing tuple of positive parts, largest first.
Boxes are addressed as (column x, row y), both 1-based from the bottom-left
corner; row y contains parts[y-1] boxes, so the bottom row is the longest.
With this convention the column heights of a shape are the parts of its
conjugate, and a self-conjugate shape of length k has k columns of which
the first parts[-1] reach the full height k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import Iterator

from .errors import InvalidPlacementError, InvalidShapeError
from .perms import Perm, _matcher

Shape = tuple[int, ...]
Box = tuple[int, int]


def validate_shape(parts) -> Shape:
    """Return parts as a tuple after checking weak decrease and positivity."""
    shape = tuple(parts)
    if any(p < 1 for p in shape):
        raise InvalidShapeError(f"parts must be positive: {shape}")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise InvalidShapeError(f"parts must weakly decrease: {shape}")
    return shape


def conjugate(shape: Shape) -> Shape:
    """Transpose of the diagram: part i of the result counts parts >= i.

    >>> conjugate((3, 3, 2))
    (3, 3, 2)
    >>> conjugate((2, 1, 1))
    (3, 1)
    """
    width = shape[0] if shape else 0
    if width < 1:
        return ()
    ends = [0] * (width + 1)  # ends[x]: parts ending in column x, cut at the width
    for part in shape:
        if part > 0:
            ends[part if part < width else width] += 1
    # column x holds a box of every part that ends at or right of x
    return tuple(accumulate(ends[:0:-1]))[::-1]


def is_self_conjugate(shape: Shape) -> bool:
    return conjugate(shape) == tuple(shape)


def box_in_shape(shape: Shape, x: int, y: int) -> bool:
    """Whether box (column x, row y) belongs to the diagram."""
    return 1 <= y <= len(shape) and 1 <= x <= shape[y - 1]


def square(n: int) -> Shape:
    """The n x n square shape."""
    return (n,) * n


def column_heights(shape: Shape) -> Shape:
    """Height of each column; the conjugate partition."""
    return conjugate(shape)


@dataclass(frozen=True)
class Placement:
    """Dots on a shape, at most one per row and per column."""

    shape: Shape
    dots: frozenset[Box]

    def __post_init__(self):
        for x, y in self.dots:
            if not box_in_shape(self.shape, x, y):
                raise InvalidPlacementError(f"dot ({x},{y}) outside shape {self.shape}")
        cols = [x for x, _ in self.dots]
        rows = [y for _, y in self.dots]
        if len(set(cols)) != len(cols) or len(set(rows)) != len(rows):
            raise InvalidPlacementError("two dots share a row or column")


def make_placement(shape, dots) -> Placement:
    return Placement(validate_shape(shape), frozenset((int(x), int(y)) for x, y in dots))


def transpose(p: Placement) -> Placement:
    """Reflect across the main diagonal; lands on the conjugate shape."""
    return Placement(conjugate(p.shape), frozenset((y, x) for x, y in p.dots))


def is_symmetric(p: Placement) -> bool:
    """True iff the placement equals its transpose."""
    return is_self_conjugate(p.shape) and all((y, x) in p.dots for x, y in p.dots)


def is_full(p: Placement) -> bool:
    """True iff every row and every column of the shape holds exactly one dot."""
    n_rows = len(p.shape)
    n_cols = p.shape[0] if p.shape else 0
    if n_rows != len(p.dots) or n_cols != len(p.dots):
        return False
    return len({x for x, _ in p.dots}) == len(p.dots)


def graph_of(pi: Perm) -> Placement:
    """The graph of a permutation: a full placement on the n x n square.

    The graph is symmetric about the main diagonal iff pi is an involution.
    """
    n = len(pi)
    return Placement(square(n), frozenset((i + 1, v) for i, v in enumerate(pi)))


def placement_contains(p: Placement, sigma: Perm, columns=None) -> bool:
    """Whether dots of p form sigma inside a rectangular subshape.

    An occurrence is a set of dots with increasing columns whose heights
    have pattern sigma and whose bounding rectangle fits in the shape; it
    is enough that the box at (last column, max height) exists.  When
    ``columns`` is given, only dots in those columns are considered.

    >>> p = make_placement((3, 3, 2), [(1, 2), (2, 3), (3, 1)])
    >>> placement_contains(p, (1, 2)), placement_contains(p, (2, 3, 1))
    (True, False)
    """
    dots = sorted(p.dots)
    if columns is not None:
        allowed = set(columns)
        dots = [d for d in dots if d[0] in allowed]
    return _matcher(sigma, board=True)(dots, p.shape)


def enumerate_full_placements(shape: Shape) -> Iterator[Placement]:
    """Yield every full placement on the shape, columns filled left to right.

    >>> [sorted(p.dots) for p in enumerate_full_placements((2, 1))]
    [[(1, 2), (2, 1)]]
    """
    shape = validate_shape(shape)
    n_rows = len(shape)
    n_cols = shape[0] if shape else 0
    if n_rows != n_cols:
        return
    if n_rows == 0:
        yield Placement((), frozenset())
        return
    heights = column_heights(shape)
    used = [False] * (n_rows + 1)
    dots: list[Box] = []

    def fill(x: int) -> Iterator[Placement]:
        if x > n_cols:
            yield Placement(shape, frozenset(dots))
            return
        for y in range(1, heights[x - 1] + 1):
            if not used[y]:
                used[y] = True
                dots.append((x, y))
                yield from fill(x + 1)
                dots.pop()
                used[y] = False

    yield from fill(1)


def enumerate_symmetric_full_placements(shape: Shape) -> Iterator[Placement]:
    """Yield every symmetric full placement on a self-conjugate shape.

    Indices are paired below-or-on the diagonal and mirrored, halving the
    search.  Output order is deterministic.

    >>> sum(1 for _ in enumerate_symmetric_full_placements((3, 3, 3)))
    4
    >>> sum(1 for _ in enumerate_symmetric_full_placements((3, 3, 2)))
    2
    """
    shape = validate_shape(shape)
    if not is_self_conjugate(shape):
        raise InvalidShapeError(f"shape is not self-conjugate: {shape}")
    n = len(shape)
    if n == 0:
        yield Placement((), frozenset())
        return
    dots: list[Box] = []

    def pair(free: tuple[int, ...]) -> Iterator[Placement]:
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
            # (u, t) below the diagonal; its mirror is in the shape too.
            if box_in_shape(shape, u, t):
                dots.append((u, t))
                dots.append((t, u))
                yield from pair(free[1:idx] + free[idx + 1 :])
                dots.pop()
                dots.pop()

    yield from pair(tuple(range(1, n + 1)))


@cache
def symmetric_full_placements(shape: Shape) -> tuple[Placement, ...]:
    """Cached tuple of all symmetric full placements on the shape."""
    return tuple(enumerate_symmetric_full_placements(shape))


def enumerate_self_conjugate_shapes(max_side: int) -> Iterator[Shape]:
    """Yield every self-conjugate shape with first part <= max_side.

    Includes the empty shape.  Shapes are built from their diagonal hooks
    (distinct odd hook lengths), which gives each exactly once.

    >>> sorted(enumerate_self_conjugate_shapes(2))
    [(), (1,), (2, 1), (2, 2)]
    """
    if max_side < 0:
        raise InvalidShapeError("max_side must be >= 0")

    def build(hooks: tuple[int, ...]) -> Shape:
        # hooks[d] is the arm+leg+1 of diagonal box d+1, strictly decreasing.
        parts: list[int] = []
        for d, h in enumerate(hooks):
            arm = (h - 1) // 2
            parts.append(d + 1 + arm)
        # rows below the last diagonal box come from the columns by symmetry
        k = parts[0] if parts else 0
        full = [sum(1 for p in parts if p >= x) for x in range(1, k + 1)]
        for d, p in enumerate(parts):
            full[d] = p
        return tuple(full)

    def rec(prefix: tuple[int, ...], cap: int) -> Iterator[Shape]:
        yield build(prefix)
        depth = len(prefix)
        # next diagonal hook: odd, strictly smaller, still fitting max_side
        top = min(cap, 2 * (max_side - depth) - 1)
        for h in range(top if top % 2 == 1 else top - 1, 0, -2):
            yield from rec(prefix + (h,), h - 1)

    yield from rec((), 2 * max_side - 1)


def shape_to_text(shape: Shape) -> str:
    """Comma-separated parts, largest first; '-' for the empty shape."""
    return ",".join(str(p) for p in shape) if shape else "-"


def shape_from_text(text: str) -> Shape:
    text = text.strip()
    if text in ("", "-"):
        return ()
    return validate_shape(tuple(int(p) for p in text.split(",")))


def placement_to_text(p: Placement) -> str:
    """Shape, a semicolon, then space-separated 'x,y' dot pairs."""
    dots = " ".join(f"{x},{y}" for x, y in sorted(p.dots))
    return f"{shape_to_text(p.shape)};{dots}".rstrip()


def placement_from_text(text: str) -> Placement:
    shape_part, _, dots_part = text.partition(";")
    shape = shape_from_text(shape_part)
    dots = []
    for token in dots_part.split():
        x, y = token.split(",")
        dots.append((int(x), int(y)))
    return make_placement(shape, dots)
