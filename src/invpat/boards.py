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
from itertools import accumulate, compress
from operator import lt, not_
from typing import Iterator

from .errors import InvalidInputError, InvalidPlacementError, InvalidShapeError
from .perms import Perm, _ints, _matcher, _pairings

Shape = tuple[int, ...]
Box = tuple[int, int]


def validate_shape(parts) -> Shape:
    """Return parts as a tuple after checking weak decrease and positivity."""
    shape = tuple(parts)
    if min(shape, default=1) < 1:
        raise InvalidShapeError(f"parts must be positive: {shape}")
    if any(map(lt, shape, shape[1:])):
        raise InvalidShapeError(f"parts must weakly decrease: {shape}")
    return shape


def _self_conjugate_shape(parts) -> Shape:
    """validate_shape, then InvalidShapeError unless the shape is self-conjugate."""
    shape = validate_shape(parts)
    if not is_self_conjugate(shape):
        raise InvalidShapeError(f"shape is not self-conjugate: {shape}")
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
    return _is_self_conjugate(tuple(shape))


@cache
def _is_self_conjugate(shape: Shape) -> bool:
    # the sweeps ask this of the same few shapes on every placement
    return conjugate(shape) == shape


def box_in_shape(shape: Shape, x: int, y: int) -> bool:
    """Whether box (column x, row y) belongs to the diagram."""
    return 1 <= y <= len(shape) and 1 <= x <= shape[y - 1]


def square(n: int) -> Shape:
    """The n x n square shape."""
    return (n,) * n


@dataclass(frozen=True)
class Placement:
    """Dots on a shape, at most one per row and per column, given as any
    iterable of boxes and kept as a tuple sorted by column."""

    shape: Shape
    dots: tuple[Box, ...]

    def __post_init__(self):
        dots = tuple(sorted(self.dots))
        object.__setattr__(self, "dots", dots)
        for x, y in dots:
            if not box_in_shape(self.shape, x, y):
                raise InvalidPlacementError(f"dot ({x},{y}) outside shape {self.shape}")
        if len({x for x, _ in dots}) != len(dots) or len({y for _, y in dots}) != len(dots):
            raise InvalidPlacementError("two dots share a row or column")


def make_placement(shape, dots) -> Placement:
    """A placement from parsed input; a dot given twice is kept once."""
    return Placement(validate_shape(shape), {(int(x), int(y)) for x, y in dots})


def is_symmetric(p: Placement) -> bool:
    """True iff the placement equals its transpose."""
    return is_self_conjugate(p.shape) and p.dots == tuple(sorted((y, x) for x, y in p.dots))


def is_full(p: Placement) -> bool:
    """True iff every row and every column of the shape holds exactly one dot."""
    n_cols = p.shape[0] if p.shape else 0
    return len(p.shape) == len(p.dots) == n_cols


def graph_of(pi: Perm) -> Placement:
    """The graph of a permutation: a full placement on the n x n square.

    The graph is symmetric about the main diagonal iff pi is an involution.
    """
    n = len(pi)
    return Placement(square(n), tuple(enumerate(pi, start=1)))


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
    return pattern_masks([p], [sigma], columns) != [0]


def avoiding(placements, patterns, columns=None) -> list[Placement]:
    """The placements, in order, that contain none of the patterns: those
    whose pattern_masks entry is 0, so one matcher tests the patterns
    together instead of one matcher per pattern, shortest first.

    >>> pool = list(enumerate_full_placements((3, 3, 3)))
    >>> len(avoiding(pool, [(1, 2, 3), (3, 2, 1)]))
    4
    >>> [placement_to_text(p) for p in avoiding(pool, [(1, 2)])]
    ['3,3,3;1,3 2,2 3,1']
    """
    placements = tuple(placements)
    return list(compress(placements, map(not_, pattern_masks(placements, patterns, columns))))


def pattern_masks(placements, patterns, columns=None) -> list[int]:
    """For each placement, in order, the mask whose bit i is set iff
    patterns[i] occurs in it, as placement_contains reads an occurrence.

    One call of the board matcher perms._matcher tests the patterns
    together on the dots in column order, those in ``columns`` when given;
    it is one compiled unit whatever the patterns' lengths, its levels past
    depth 16 chained in level functions that carry the mask.

    >>> p = make_placement((3, 3, 2), [(1, 2), (2, 3), (3, 1)])
    >>> pattern_masks([p], [(2, 3, 1), (1, 2), (2, 1)])
    [6]
    """
    match = _matcher(tuple(map(tuple, patterns)), True)
    if columns is None:
        return [match(p.dots, p.shape) for p in placements]
    allowed = set(columns)
    return [match([d for d in p.dots if d[0] in allowed], p.shape) for p in placements]


def enumerate_full_placements(shape: Shape) -> Iterator[Placement]:
    """Yield every full placement on the shape, columns filled left to right.

    >>> [p.dots for p in enumerate_full_placements((2, 1))]
    [((1, 2), (2, 1))]
    """
    shape = validate_shape(shape)
    n_rows = len(shape)
    n_cols = shape[0] if shape else 0
    if n_rows != n_cols:
        return
    heights = conjugate(shape)
    used = [False] * (n_rows + 1)
    dots: list[Box] = []

    def fill(x: int) -> Iterator[Placement]:
        if x > n_cols:
            yield Placement(shape, tuple(dots))
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

    Each one is the graph of an involution that pairs t with u only where
    box (u, t) lies in the shape, built by the same pairing walk as
    perms.involutions.  Output order is deterministic.

    >>> sum(1 for _ in enumerate_symmetric_full_placements((3, 3, 3)))
    4
    >>> sum(1 for _ in enumerate_symmetric_full_placements((3, 3, 2)))
    2
    """
    shape = _self_conjugate_shape(shape)
    for pi in _pairings(shape):
        yield Placement(shape, tuple(enumerate(pi, start=1)))


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
        parts = tuple(d + 1 + (h - 1) // 2 for d, h in enumerate(hooks))
        # rows below the last diagonal box come from the columns by symmetry
        return parts + conjugate(parts)[len(parts):]

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
    return validate_shape(tuple(_ints(text, "shape", text)))


def placement_to_text(p: Placement) -> str:
    """Shape, a semicolon, then space-separated 'x,y' dot pairs."""
    dots = " ".join(f"{x},{y}" for x, y in p.dots)
    return f"{shape_to_text(p.shape)};{dots}".rstrip()


def placement_from_text(text: str) -> Placement:
    shape_part, _, dots_part = text.partition(";")
    shape = shape_from_text(shape_part)
    dots = [_ints(token, "placement", text) for token in dots_part.split()]
    if any(len(dot) != 2 for dot in dots):
        raise InvalidInputError(f"placement text {text!r} has a dot that is not x,y")
    return make_placement(shape, dots)
