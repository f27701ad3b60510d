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

Each case but I is one relabelling: a map of the window columns applied to
both axes, with a few special dots sent to their own targets.  II, III, IV,
and VI share one map (a pair of cycles on the window indices); V adds the
special dots, because a fixed point of the placement's pairing must trade
places with a 2-cycle.  The inverse builds the same maps and inverts them.

Also here: trimming a non-square shape's outer frame, and the dot-position
statistics tied together by that trimming.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import boards
from .boards import Placement, Shape
from .errors import InvalidInputError, InvalidPlacementError, InvalidShapeError

Move = tuple[tuple[int, int], tuple[int, int], str]
_Special = dict[boards.Box, tuple[tuple[boards.Box, ...], str]]


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
    pool = [p for p in boards.symmetric_full_placements(shape) if p.dots[col - 1][1] == top]
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


def _checked_window(p: Placement, i: int, j: int, lo: int) -> tuple[tuple[int, int], ...]:
    """Validate the input of the slide or its inverse at (i, j) and return
    the dots of columns lo..lo+j-1, which must avoid 21."""
    shape = p.shape
    narrow = shape[-1] if shape else 0
    if not (i >= 1 and i < narrow and 1 <= j <= narrow - i):
        raise InvalidInputError(f"window (i={i}, j={j}) out of range for {shape}")
    boards._self_conjugate_shape(shape)
    if not (boards.is_symmetric(p) and boards.is_full(p)):
        raise InvalidInputError("placement must be symmetric and full")
    if boards.placement_contains(p, (3, 2, 1)):
        raise InvalidInputError("placement must avoid 321")
    if boards.placement_contains(p, (2, 1), columns=range(lo, lo + j)):
        raise InvalidInputError(f"columns {lo}..{lo + j - 1} must avoid 21")
    return p.dots[lo - 1 : lo - 1 + j]


def slide_context(p: Placement, i: int, j: int) -> SlideContext:
    """Extract and validate the window data for the slide at (i, j)."""
    window = _checked_window(p, i, j, i)
    top = p.shape[0]
    # column c of a self-conjugate shape is as high as row c is long, and
    # its first narrow columns reach full height
    if any(p.shape[c - 1] != top for c in range(i, i + j)):
        raise InvalidPlacementError(f"columns {i}..{i + j - 1} are not all {top} high")
    below = tuple(d for d in window if d[1] < d[0])
    on_diag = tuple(d for d in window if d[1] == d[0])
    above = tuple(d for d in window if d[1] > d[0])
    # within the window: below-diagonal dots first, then diagonal, then above
    if window != below + on_diag + above:
        raise InvalidPlacementError(f"window {window} is not ordered below, on, above")
    w = p.dots[i + j - 1][1]
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


def _relabel(p: Placement, coords: dict[int, int], special: _Special, label: str):
    # Every dot moves by the column map applied to both axes, traced under
    # label; a special dot goes to its own targets under its own label.
    moves: list[Move] = []
    new_dots = set()
    for dot in p.dots:
        x, y = dot
        moved = ((coords.get(x, x), coords.get(y, y)),)
        targets, name = special.get(dot, (moved, label))
        new_dots.update(targets)
        moves += [(dot, to, name) for to in targets if to != dot]
    return Placement(p.shape, new_dots), moves


def _reseat_map(i: int, j: int, v: int) -> dict[int, int]:
    # v rightmost window dots sit above w; the window contents rotate so
    # that the lowest of those lands in column i and w's dot re-enters the
    # window one past it.  Applied to rows as well, symmetry is automatic.
    imap = {col: col + 1 for col in range(i, i + j)}
    imap.update({i + j - v: i, i + j: i + j - v + 1})
    return imap


def _cyclic_reseat(p: Placement, ctx: SlideContext):
    v = sum(1 for _, y in ctx.below + ctx.on_diag + ctx.above if y > ctx.w)
    if v < 1:
        raise InvalidPlacementError(f"no window dot lies above w={ctx.w} to reseat")
    return _relabel(p, _reseat_map(ctx.i, ctx.j, v), {}, "reseat")


def _merge_split_maps(i: int, j: int, w: int, b1: int, stepped: list[int]):
    # The mirror pair at (i+j, w) / (w, i+j) merges onto the diagonal and
    # the lowest diagonal dot (b1, b1) splits into a mirror pair, so the
    # pairing's cycle type is preserved.  Every other window column steps
    # one to the right, the other diagonal dots (stepped) among them.
    coords = {col: col + 1 for col in range(i, i + j) if col not in (b1, w)}
    special: _Special = {(c, c): (((c + 1, c + 1),), "diagonal-step") for c in stepped}
    special[b1, b1] = ((i, b1 + 1), (b1 + 1, i)), "split"
    special[i + j, w] = special[w, i + j] = ((w + 1, w + 1),), "merge"
    return coords, special


def _merge_split(p: Placement, ctx: SlideContext):
    # w sits in the window and there are diagonal dots.
    if [x for x, _ in ctx.above[:1]] != [ctx.w]:
        raise InvalidPlacementError(f"w={ctx.w} is not the leftmost above-diagonal dot")
    b1, *stepped = [x for x, _ in ctx.on_diag]
    return _relabel(p, *_merge_split_maps(ctx.i, ctx.j, ctx.w, b1, stepped), "shift")


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
    u = p.dots[i - 1][1]
    i_j = i + j
    if all(y > u for _, y in window):
        return p, []  # image of the identity case

    diag = [x for x, y in window if x == y]
    if i < u <= i_j and diag:
        # invert the merge/split: the highest diagonal dot in the shifted
        # window is the merged one at w+1, the column-i mirror pair is the
        # split of (u-1, u-1), and the other diagonal dots stepped.
        stepped = [x - 1 for x in diag[:-1]]
        coords, special = _merge_split_maps(i, j, diag[-1] - 1, u - 1, stepped)
        label = "shift"
    else:
        # invert the cyclic reseat: the largest window height below u marks
        # where the column-(i+j) dot was reseated, which recovers v.
        below_u = [(y, x) for x, y in window if y < u]
        if not below_u:
            raise InvalidInputError("placement is not in the image of the slide")
        coords, special = _reseat_map(i, j, i_j - max(below_u)[1] + 1), {}
        label = "reseat"
    # each target of a special dot goes back to its source (or sources, for
    # a merge) under the same label
    back: _Special = {}
    for src, (targets, name) in special.items():
        for to in targets:
            back[to] = (back.get(to, ((), name))[0] + (src,), name)
    out, moves = _relabel(p, {new: old for old, new in coords.items()}, back, label)

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
