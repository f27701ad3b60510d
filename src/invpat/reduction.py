"""Reducing a symmetric full placement by a set of pattern suffixes.

Given a symmetric full placement on a self-conjugate shape and a set of
suffixes (orderings of j+1..k), a box is marked when the dots strictly
northeast of it contain some suffix pattern whose box fits in the shape.
The marked boxes form a Ferrers shape, whose column heights one staircase
walk of the compiled board matcher finds.  Joined with its mirror image and
cut to the shape, the marked region is a self-conjugate subshape; deleting
its dotless rows and columns leaves a smaller self-conjugate board carrying
a symmetric full placement.  Containment of a length-j involution prefix on
that board is equivalent to containment of the full prefix+suffix patterns
on the original board, which is what makes prefix exchange work.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import boards
from .boards import Placement, Shape
from .errors import InvalidInputError, InvalidPatternError, InvalidPlacementError
from .perms import Perm, _matcher, is_involution, pattern_of


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
        rows = zip(self.kept_rows, self.shape)
        return frozenset((self.kept_columns[r], y) for y, part in rows for r in range(part))


def _marked_heights(p: Placement, t: SuffixSet) -> list[int]:
    # The heights of columns 1..n of the marked region.  Each column is no
    # taller than the one before, so y only comes down: at most 2n scans of
    # every standardized suffix.  p is full: p.dots[x:] lie right of column x.
    scan = _matcher(tuple(sorted(pattern_of(tau) for tau in t.suffixes)), True)

    def marked(x: int, y: int) -> bool:
        return scan([d for d in p.dots[x:] if d[1] > y], p.shape) != 0

    heights = []
    y = len(p.shape)
    for x in range(1, len(p.shape) + 1):
        while y and not marked(x, y):
            y -= 1
        heights.append(y)
    return heights


def suffix_reduction(mu: Shape, p: Placement, t: SuffixSet) -> ReducedBoard:
    """Build the reduced board of (mu, p) for the suffix set t.

    t is read only through its standardized suffixes, which one board scan
    tests at once, so order-isomorphic suffix sets give equal boards.

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

    heights = _marked_heights(p, t)
    # joined with its mirror image and cut to mu, whose column x is mu[x - 1] high
    mirror = boards.conjugate(heights) + (0,) * len(mu)
    region = [min(max(h, m), top) for h, m, top in zip(heights, mirror, mu)]
    inside = [(x, y) for x, y in p.dots if y <= region[x - 1]]

    kept_cols = tuple(x for x, _ in inside)
    kept_rows = tuple(sorted(y for _, y in inside))
    if kept_cols != kept_rows:
        raise InvalidPlacementError(
            f"reduced board keeps columns {kept_cols} but rows {kept_rows}"
        )

    # row s of the new shape is kept_rows[s-1], cut to the kept columns
    shape = boards.validate_shape(
        sum(1 for x in kept_cols if y <= region[x - 1]) for y in kept_rows
    )
    rank = {v: r for r, v in enumerate(kept_cols, start=1)}
    induced = Placement(shape, [(rank[x], rank[y]) for x, y in inside])
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
    lhs = boards.pattern_masks([p], patterns) != [0]
    return lhs == boards.placement_contains(rb.induced, tuple(sigma))


def class_decomposition_check(mu: Shape, t: SuffixSet, alpha: Perm, beta: Perm) -> bool:
    """Partition the symmetric full placements on mu by their dots outside
    the reduced board, then compare per-class avoider counts against the
    reduced board on both prefixes.  Returns the conjunction of all checks.
    """
    mu = boards.validate_shape(mu)
    alpha, beta = tuple(alpha), tuple(beta)
    full = [t.patterns_with_prefix(sigma) for sigma in (alpha, beta)]

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
        inner = [len(boards.avoiding(placements, [sigma])) for sigma in (alpha, beta)]
        outer = [len(boards.avoiding([p for p, _ in members], pats)) for pats in full]
        if outer != inner:
            return False
    return True
