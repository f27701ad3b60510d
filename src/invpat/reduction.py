"""Reducing a symmetric full placement by a set of pattern suffixes.

Given a symmetric full placement on a self-conjugate shape and a set of
suffixes (orderings of j+1..k), the boxes strictly southwest of some
suffix occurrence, together with their mirror images, form a self-conjugate
subshape.  Deleting its dotless rows and columns leaves a smaller
self-conjugate board carrying a symmetric full placement.  Containment of a
length-j involution prefix on that board is equivalent to containment of
the full prefix+suffix patterns on the original board, which is what makes
prefix exchange work.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import boards
from .boards import Placement, Shape
from .errors import InvalidInputError, InvalidPatternError, InvalidPlacementError
from .perms import Perm, is_involution


@dataclass(frozen=True)
class SuffixSet:
    """A prefix length j and suffixes, each an ordering of j+1..k for k > j."""

    j: int
    suffixes: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.j < 1:
            raise InvalidInputError("prefix length j must be >= 1")
        if not self.suffixes:
            raise InvalidInputError("suffix set must be nonempty")
        for tau in self.suffixes:
            # empty suffixes are rejected: 'southwest of an occurrence of
            # the empty pattern' has no usable meaning
            k = self.j + len(tau)
            if not tau or sorted(tau) != list(range(self.j + 1, k + 1)):
                raise InvalidInputError(
                    f"suffix {tau} is not a nonempty ordering of {self.j + 1}..{k}"
                )

    def patterns_with_prefix(self, prefix: Perm) -> frozenset[Perm]:
        """The full patterns obtained by prepending an involution prefix."""
        if len(prefix) != self.j or not is_involution(prefix):
            raise InvalidPatternError(f"prefix must be an involution of length {self.j}")
        return frozenset(tuple(prefix) + tau for tau in self.suffixes)


def suffix_set(j: int, suffixes) -> SuffixSet:
    return SuffixSet(j, frozenset(tuple(t) for t in suffixes))


@dataclass(frozen=True)
class ReducedBoard:
    """The reduced self-conjugate board with its induced placement and the
    row/column indices of the parent board it kept."""

    shape: Shape
    induced: Placement
    kept_columns: tuple[int, ...]
    kept_rows: tuple[int, ...]

    def parent_boxes(self) -> frozenset[tuple[int, int]]:
        """Boxes of the parent board corresponding to boxes of the shape."""
        out = set()
        for s, y in enumerate(self.kept_rows, start=1):
            for r in range(1, (self.shape[s - 1] if s <= len(self.shape) else 0) + 1):
                out.add((self.kept_columns[r - 1], y))
        return frozenset(out)


def _suffix_corners(p: Placement, t: SuffixSet) -> set[tuple[int, int]]:
    # For each occurrence of a suffix pattern (bounded by a rectangle of the
    # shape), record the box just southwest of all its dots.  Only these
    # corners matter; the marked region is the union of their rectangles.
    # Dots sit in distinct rows, so an m-subset of dots (sorted by column)
    # forms tau exactly when its heights, read at tau's positions in order
    # of increasing value, strictly increase.
    corners: set[tuple[int, int]] = set()
    dots = sorted(p.dots)
    for tau in t.suffixes:
        by_value = sorted(range(len(tau)), key=tau.__getitem__)
        low, high = by_value[0], by_value[-1]
        pairs = list(zip(by_value, by_value[1:]))
        for combo in combinations(dots, len(tau)):
            if any(combo[a][1] >= combo[b][1] for a, b in pairs):
                continue
            if not boards.box_in_shape(p.shape, combo[-1][0], combo[high][1]):
                continue
            cx = combo[0][0] - 1
            cy = combo[low][1] - 1
            if cx >= 1 and cy >= 1:
                corners.add((cx, cy))
    return corners


def suffix_reduction(mu: Shape, p: Placement, t: SuffixSet) -> ReducedBoard:
    """Build the reduced board of (mu, p) for the suffix set t.

    >>> from .boards import graph_of
    >>> from .perms import perm_from_text
    >>> rb = suffix_reduction((9,) * 9, graph_of(perm_from_text('127965384')),
    ...                       suffix_set(3, [(5, 4)]))
    >>> rb.shape
    (4, 4, 4, 3)
    """
    mu = boards._self_conjugate_shape(mu)
    if p.shape != mu or not boards.is_symmetric(p) or not boards.is_full(p):
        raise InvalidPlacementError("placement must be symmetric and full on mu")

    corners = _suffix_corners(p, t)
    corners |= {(b, a) for a, b in corners}
    # column x of the marked region reaches height h(x); union of rectangles
    heights = [0] * (len(mu) + 1)
    for a, b in corners:
        for x in range(1, a + 1):
            heights[x] = max(heights[x], b)
    # mu is self-conjugate, so column x of mu has height mu[x - 1]
    region = [min(heights[x], mu[x - 1]) for x in range(1, len(mu) + 1)]

    def in_region(x: int, y: int) -> bool:
        return 1 <= x <= len(region) and 1 <= y <= region[x - 1]

    kept_cols = tuple(sorted(x for x, y in p.dots if in_region(x, y)))
    kept_rows = tuple(sorted(y for x, y in p.dots if in_region(x, y)))
    if kept_cols != kept_rows:
        raise InvalidPlacementError(
            f"reduced board keeps columns {kept_cols} but rows {kept_rows}"
        )

    col_rank = {x: r for r, x in enumerate(kept_cols, start=1)}
    row_rank = {y: s for s, y in enumerate(kept_rows, start=1)}
    # row s of the new shape is kept_rows[s-1], cut to the kept columns
    shape = boards.validate_shape(
        sum(1 for x in kept_cols if in_region(x, y)) for y in kept_rows
    )

    induced = Placement(
        shape,
        frozenset(
            (col_rank[x], row_rank[y]) for x, y in p.dots if in_region(x, y)
        ),
    )
    if not boards.is_symmetric(induced):
        raise InvalidPlacementError(f"induced placement is not symmetric: {induced}")
    if not boards.is_full(induced):
        raise InvalidPlacementError(f"induced placement is not full: {induced}")
    return ReducedBoard(shape, induced, kept_cols, kept_rows)


def verify_reduction_equivalence(
    p: Placement, rb: ReducedBoard, sigma: Perm, patterns: frozenset[Perm]
) -> bool:
    """Whether [p contains some prefix+suffix pattern] iff [the induced
    placement on the reduced board contains the prefix].  Always true.

    rb is ``suffix_reduction(p.shape, p, t)`` and patterns is
    ``t.patterns_with_prefix(sigma)`` for one suffix set t; a caller trying
    several placements and prefixes builds each once.
    """
    lhs = not boards.avoiding([p], patterns)
    rhs = boards.placement_contains(rb.induced, tuple(sigma))
    return lhs == rhs


def class_decomposition_check(mu: Shape, t: SuffixSet, alpha: Perm, beta: Perm) -> bool:
    """Partition the symmetric full placements on mu by their dots outside
    the reduced board, then compare per-class avoider counts against the
    reduced board on both prefixes.  Returns the conjunction of all checks.
    """
    mu = boards.validate_shape(mu)
    alpha, beta = tuple(alpha), tuple(beta)
    t_alpha = t.patterns_with_prefix(alpha)
    t_beta = t.patterns_with_prefix(beta)

    groups: dict[tuple, list[tuple[Placement, ReducedBoard]]] = {}
    for p in boards.symmetric_full_placements(mu):
        rb = suffix_reduction(mu, p, t)
        inner = rb.parent_boxes()
        outside = frozenset(d for d in p.dots if d not in inner)
        groups.setdefault((outside, inner), []).append((p, rb))

    for (_, _), members in groups.items():
        shape = members[0][1].shape
        if any(rb.shape != shape for _, rb in members):
            return False
        placements = boards.symmetric_full_placements(shape)
        if len(members) != len(placements):
            return False
        inner_count_a = len(boards.avoiding(placements, [alpha]))
        inner_count_b = len(boards.avoiding(placements, [beta]))
        outer = [p for p, _ in members]
        outer_count_a = len(boards.avoiding(outer, t_alpha))
        outer_count_b = len(boards.avoiding(outer, t_beta))
        if outer_count_a != inner_count_a or outer_count_b != inner_count_b:
            return False
    return True
