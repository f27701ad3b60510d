"""Growth diagrams on self-conjugate boards.

A symmetric full placement on a self-conjugate shape is fixed by one
sequence of partitions, read along the first half of the shape's outer
boundary from the top-left corner to the diagonal: each east step adds a
box and each south step removes one (Fomin's growth diagrams; Krattenthaler
2006 for fillings of Ferrers shapes).  The longest increasing chain of the
placement is the longest first row in the sequence, and the longest
decreasing chain the longest first column.
"""
from __future__ import annotations

from math import inf

from . import boards


def monotone_count(shape, a: int | None = None, b: int | None = None) -> int:
    """Number of symmetric full placements on a self-conjugate shape that
    avoid 12...a and b...1 (no bound where None): the paths of partitions
    along the boundary whose first rows stay shorter than a and whose
    lengths stay below b, counted a step at a time.

    >>> monotone_count((3, 3, 3)), monotone_count((3, 3, 3), 3)
    (4, 3)
    >>> monotone_count((3, 3, 2), 3), monotone_count((3, 3, 2), None, 3)
    (2, 2)
    """
    shape = boards._self_conjugate_shape(shape)
    a = inf if a is None else a
    b = inf if b is None else b
    paths = {(): 1}  # partition -> the paths that reach it
    x, y = 0, len(shape)  # the boundary point, from the top-left corner
    while x < y:  # the boundary meets the diagonal at x = y
        south = shape[y - 1] == x  # row y ends at column x: its dot leaves
        x, y = (x, y - 1) if south else (x + 1, y)
        step: dict[tuple[int, ...], int] = {}
        for lam, count in paths.items():
            for mu in _shrunk(lam) if south else _grown(lam, a, b):
                step[mu] = step.get(mu, 0) + count
        paths = step
    return sum(paths.values())


def _grown(lam: tuple[int, ...], a, b):
    # the partitions one box larger than lam with first row < a and length < b
    for i, part in enumerate(lam):
        if (i == 0 or lam[i - 1] > part) and (i or part + 1 < a):
            yield lam[:i] + (part + 1,) + lam[i + 1 :]
    if len(lam) + 1 < b and (lam or 1 < a):
        yield lam + (1,)


def _shrunk(lam: tuple[int, ...]):
    # the partitions one box smaller than lam: a part above the next, or the last
    for i, part in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < part:
            yield lam[:i] + (part - 1,) + lam[i + 1 :] if part > 1 else lam[:i]
