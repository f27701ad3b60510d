"""Shifting a descent-free column window across a 321-avoiding placement.

The central bijection: among symmetric full placements on a self-conjugate
shape that avoid 321, those avoiding 21 within columns i..i+j-1 correspond
to those avoiding 21 within columns i+1..i+j.  The map leaves already-valid
placements alone and otherwise rearranges dots in the window and its mirror
rows, split into six cases by the height w of the dot in column i+j:

  I    w above every window dot         -- identity
  II   w > i+j, some window dot above w -- cyclic reseat of the window
  III  w = i+j (dot on the diagonal)    -- cyclic reseat; diagonal preserved
  IV   w in the window, no diagonal dot -- cyclic reseat
  V    w in the window, diagonal dots   -- merge/split of diagonal dots
  VI   w < i                            -- cyclic reseat

All of II, III, IV, and VI use the same rearrangement (conjugating by a
pair of cycles on the window indices); only V needs surgery, because a
fixed point of the placement's pairing must trade places with a 2-cycle.

Also here: trimming a non-square shape's outer frame, and the dot-position
statistics tied together by that trimming.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import boards
from .boards import Placement, Shape
from .errors import InvalidInputError, InvalidPlacementError, InvalidShapeError

Move = tuple[tuple[int, int], tuple[int, int], str]


def inner_shape(shape: Shape) -> Shape:
    """Delete the outermost rows and columns of a non-square shape.

    >>> inner_shape((8, 8, 8, 8, 7, 5, 5, 4))
    (6, 6, 6, 6, 4, 4)
    >>> inner_shape((2, 1))
    ()
    """
    shape = boards._self_conjugate_shape(shape)
    if not shape:
        raise InvalidShapeError("empty shape has no frame to delete")
    if len(shape) >= 2 and shape[-1] == shape[0]:
        raise InvalidShapeError(f"square shape has no well-defined frame: {shape}")
    widest = shape[0]
    trimmed = []
    for part in shape[1:-1]:
        part -= 1 + (1 if part == widest else 0)
        if part > 0:
            trimmed.append(part)
    return tuple(trimmed)


def top_row_dot_count(shape: Shape, pattern: str, i: int) -> int:
    """Count avoiding symmetric full placements by their top-row dot.

    For '123': placements avoiding 123 with a dot in box (i, top row).
    For '321': placements avoiding 321 with a dot in (smallest part + 1 - i,
    top row).  The top row sits at height equal to the widest part.
    """
    shape = boards._self_conjugate_shape(shape)
    if pattern not in ("123", "321"):
        raise InvalidInputError("pattern must be '123' or '321'")
    if not shape or not 1 <= i <= shape[-1]:
        raise InvalidInputError(f"i must be in 1..{shape[-1] if shape else 0}")
    top = shape[0]
    col = i if pattern == "123" else shape[-1] + 1 - i
    sigma = (1, 2, 3) if pattern == "123" else (3, 2, 1)
    pool = [p for p in boards.symmetric_full_placements(shape) if (col, top) in p.dots]
    return len(boards.avoiding(pool, [sigma]))


def flank_avoiding_count(shape: Shape, pattern: str, i: int) -> int:
    """Count avoiding symmetric full placements whose i outermost columns
    also avoid the length-2 prefix of the pattern.

    For '123' the first i columns must avoid 12; for '321' the last i of
    the first smallest-part columns must avoid 21.  i = 0 drops the flank
    condition entirely.
    """
    shape = boards._self_conjugate_shape(shape)
    if pattern not in ("123", "321"):
        raise InvalidInputError("pattern must be '123' or '321'")
    narrow = shape[-1] if shape else 0
    if not 0 <= i <= narrow:
        raise InvalidInputError(f"i must be in 0..{narrow}")
    sigma = (1, 2, 3) if pattern == "123" else (3, 2, 1)
    flank = (1, 2) if pattern == "123" else (2, 1)
    window = (
        range(1, i + 1) if pattern == "123" else range(narrow + 1 - i, narrow + 1)
    )
    pool = boards.avoiding(boards.symmetric_full_placements(shape), [sigma])
    return len(boards.avoiding(pool, [flank], columns=window))


@dataclass(frozen=True)
class SlideContext:
    """Window data for one application of the slide.

    below/on_diag/above list the window-column dots by their position
    relative to the main diagonal; w is the height of the dot in column
    i+j.
    """

    i: int
    j: int
    below: tuple[tuple[int, int], ...]
    on_diag: tuple[tuple[int, int], ...]
    above: tuple[tuple[int, int], ...]
    w: int


def _checked_window(p: Placement, i: int, j: int, lo: int) -> list[tuple[int, int]]:
    """Validate the input of the slide or its inverse at (i, j) and return
    the dots of columns lo..lo+j-1, which must avoid 21."""
    shape = p.shape
    narrow = shape[-1] if shape else 0
    if not (i >= 1 and i < narrow and 1 <= j <= narrow - i):
        raise InvalidInputError(f"window (i={i}, j={j}) out of range for {shape}")
    if not boards.is_self_conjugate(shape):
        raise InvalidInputError(f"shape is not self-conjugate: {shape}")
    if not (boards.is_symmetric(p) and boards.is_full(p)):
        raise InvalidInputError("placement must be symmetric and full")
    if boards.placement_contains(p, (3, 2, 1)):
        raise InvalidInputError("placement must avoid 321")
    window = sorted(d for d in p.dots if lo <= d[0] < lo + j)
    heights = [y for _, y in window]
    if any(heights[a] > heights[a + 1] for a in range(len(heights) - 1)):
        raise InvalidInputError(f"columns {lo}..{lo + j - 1} must avoid 21")
    return window


def slide_context(p: Placement, i: int, j: int) -> SlideContext:
    """Extract and validate the window data for the slide at (i, j)."""
    window = _checked_window(p, i, j, i)
    top = p.shape[0]
    cols = boards.column_heights(p.shape)
    # the first narrow columns of a self-conjugate shape reach full height
    if any(cols[c - 1] != top for c in range(i, i + j)):
        raise InvalidPlacementError(f"columns {i}..{i + j - 1} are not all {top} high")
    below = tuple(d for d in window if d[1] < d[0])
    on_diag = tuple(d for d in window if d[1] == d[0])
    above = tuple(d for d in window if d[1] > d[0])
    # within the window: below-diagonal dots first, then diagonal, then above
    if window != sorted(below) + sorted(on_diag) + sorted(above):
        raise InvalidPlacementError(f"window {window} is not ordered below, on, above")
    (w,) = [y for x, y in p.dots if x == i + j]
    return SlideContext(i, j, below, on_diag, above, w)


def classify_slide_case(ctx: SlideContext) -> str:
    """One of 'I'..'VI'; the cases are exhaustive and mutually exclusive."""
    window_top = max(
        (d[1] for d in ctx.below + ctx.on_diag + ctx.above), default=0
    )
    if ctx.w > window_top:
        return "I"
    if ctx.w > ctx.i + ctx.j:
        return "II"
    if ctx.w == ctx.i + ctx.j:
        return "III"
    if ctx.w >= ctx.i:
        return "V" if ctx.on_diag else "IV"
    return "VI"


def _apply_index_map(p: Placement, imap: dict[int, int], label: str):
    moves: list[Move] = []
    new_dots = set()
    for x, y in p.dots:
        nx, ny = imap.get(x, x), imap.get(y, y)
        new_dots.add((nx, ny))
        if (nx, ny) != (x, y):
            moves.append(((x, y), (nx, ny), label))
    return Placement(p.shape, frozenset(new_dots)), moves


def _cyclic_reseat(p: Placement, ctx: SlideContext):
    # v rightmost window dots sit above w; the window contents rotate so
    # that the lowest of those lands in column i and w's dot re-enters the
    # window one past it.  Applied to rows as well, symmetry is automatic.
    i, j, w = ctx.i, ctx.j, ctx.w
    window = sorted(ctx.below + ctx.on_diag + ctx.above)
    v = sum(1 for _, y in window if y > w)
    if v < 1:
        raise InvalidPlacementError(f"no window dot lies above w={w} to reseat")
    imap: dict[int, int] = {i + j - v: i, i + j: i + j - v + 1}
    for col in range(i, i + j):
        if col != i + j - v:
            imap[col] = col + 1
    return _apply_index_map(p, imap, "reseat")


def _merge_split(p: Placement, ctx: SlideContext):
    # w sits in the window and there are diagonal dots: the mirror pair at
    # (i+j, w) / (w, i+j) merges onto the diagonal and the lowest diagonal
    # dot splits into a mirror pair, so the pairing's cycle type is
    # preserved.  Everything else shifts one step.
    i, j, w = ctx.i, ctx.j, ctx.w
    below_cols = [x for x, _ in ctx.below]
    above_cols = [x for x, _ in ctx.above]
    if not above_cols or above_cols[0] != w:
        raise InvalidPlacementError(f"w={w} is not the leftmost above-diagonal dot")
    shift = set(below_cols) | set(above_cols[1:])
    diag_cols = [x for x, _ in ctx.on_diag]
    b1 = diag_cols[0]

    moves: list[Move] = []
    new_dots = set()
    for x, y in p.dots:
        if (x, y) in ((i + j, w), (w, i + j)):
            new_dots.add((w + 1, w + 1))
            moves.append(((x, y), (w + 1, w + 1), "merge"))
        elif (x, y) == (b1, b1):
            new_dots.add((i, b1 + 1))
            new_dots.add((b1 + 1, i))
            moves.append(((x, y), (i, b1 + 1), "split"))
            moves.append(((x, y), (b1 + 1, i), "split"))
        elif x == y and x in diag_cols:
            new_dots.add((x + 1, y + 1))
            moves.append(((x, y), (x + 1, y + 1), "diagonal-step"))
        else:
            nx = x + 1 if x in shift else x
            ny = y + 1 if y in shift else y
            new_dots.add((nx, ny))
            if (nx, ny) != (x, y):
                moves.append(((x, y), (nx, ny), "shift"))
    return Placement(p.shape, frozenset(new_dots)), moves


def _ensure(holds: bool, failure: str) -> None:
    # A post-condition of the slide; failing one is a fault in this module,
    # so it must raise even where assertions are stripped.
    if not holds:
        raise InvalidPlacementError(f"slide output {failure}")


def slide_transform_with_trace(p: Placement, i: int, j: int):
    """The slide map together with its list of (from, to, label) moves."""
    ctx = slide_context(p, i, j)
    case = classify_slide_case(ctx)
    if case == "I":
        return p, []
    if case == "V":
        out, moves = _merge_split(p, ctx)
    else:
        out, moves = _cyclic_reseat(p, ctx)
    _ensure(boards.is_symmetric(out), "is not symmetric")
    _ensure(boards.is_full(out), "is not full")
    _ensure(not boards.placement_contains(out, (3, 2, 1)), "contains 321")
    window = range(i + 1, i + j + 1)
    _ensure(
        not boards.placement_contains(out, (2, 1), columns=window),
        f"contains 21 in columns {i + 1}..{i + j}",
    )
    # a changed placement has left the domain, which keeps the map injective
    if out != p:
        _ensure(
            boards.placement_contains(out, (2, 1), columns=range(i, i + j)),
            f"changed but avoids 21 in columns {i}..{i + j - 1}",
        )
    return out, moves


def slide_transform(p: Placement, i: int, j: int) -> Placement:
    """Send a placement avoiding 21 in columns i..i+j-1 to one avoiding 21
    in columns i+1..i+j; a bijection between the two sets.

    >>> from .boards import make_placement
    >>> p = make_placement((3, 3, 2), [(1, 3), (2, 2), (3, 1)])
    >>> slide_transform(p, 1, 1) == p
    True
    """
    return slide_transform_with_trace(p, i, j)[0]


def slide_inverse_with_trace(p: Placement, i: int, j: int):
    """Inverse of the slide map, with its move list."""
    window = _checked_window(p, i, j, i + 1)
    (u,) = [y for x, y in p.dots if x == i]
    i_j = i + j
    if all(y > u for _, y in window):
        return p, []  # image of the identity case

    diag = sorted(x for x, y in window if x == y)
    if i < u <= i_j and diag:
        # invert the merge/split: the highest diagonal dot in the shifted
        # window came from the merge, the column-i mirror pair from the
        # split, and the rest slid one step.
        merged = diag[-1]
        stepped = set(diag[:-1])
        n_below = sum(1 for x, y in window if y < x)
        shift = set(range(i + 1, i + n_below)) | set(range(merged + 1, i_j + 1))
        moves: list[Move] = []
        new_dots = set()
        for x, y in p.dots:
            if (x, y) in ((i, u), (u, i)):
                new_dots.add((u - 1, u - 1))
                moves.append(((x, y), (u - 1, u - 1), "split"))
            elif (x, y) == (merged, merged):
                new_dots.add((merged - 1, i_j))
                new_dots.add((i_j, merged - 1))
                moves.append(((x, y), (merged - 1, i_j), "merge"))
                moves.append(((x, y), (i_j, merged - 1), "merge"))
            elif x == y and x in stepped:
                new_dots.add((x - 1, y - 1))
                moves.append(((x, y), (x - 1, y - 1), "diagonal-step"))
            else:
                nx = x - 1 if x in shift else x
                ny = y - 1 if y in shift else y
                new_dots.add((nx, ny))
                if (nx, ny) != (x, y):
                    moves.append(((x, y), (nx, ny), "shift"))
        out = Placement(p.shape, frozenset(new_dots))
    else:
        # invert the cyclic reseat: the largest window height below u marks
        # where the column-(i+j) dot was reseated, which recovers v.
        candidates = [x for x, y in window if y < u]
        if not candidates:
            raise InvalidInputError("placement is not in the image of the slide")
        reseated = max(((y, x) for x, y in window if y < u))[1]
        v = i_j - reseated + 1
        imap: dict[int, int] = {i: i_j - v, i_j - v + 1: i_j}
        for col in range(i + 1, i_j + 1):
            if col != i_j - v + 1:
                imap[col] = col - 1
        out, moves = _apply_index_map(p, imap, "reseat")

    _ensure(boards.is_symmetric(out), "is not symmetric")
    _ensure(boards.is_full(out), "is not full")
    if boards.placement_contains(out, (3, 2, 1)):
        raise InvalidInputError("placement is not in the image of the slide")
    if boards.placement_contains(out, (2, 1), columns=range(i, i_j)):
        raise InvalidInputError("placement is not in the image of the slide")
    return out, moves


def slide_inverse(p: Placement, i: int, j: int) -> Placement:
    """Round-trips with slide_transform on every valid input."""
    return slide_inverse_with_trace(p, i, j)[0]
