"""Permutations in one-line notation, patterns, and containment.

A permutation of [n] is a tuple of the integers 1..n, each appearing once.
The empty tuple is the (valid) empty permutation.  Patterns are themselves
permutations; a permutation contains a pattern if some subsequence of it
has the same relative order.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cache
from math import inf
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidInputError, InvalidWordError

Perm = tuple[int, ...]


def validate_perm(values: Sequence[int]) -> Perm:
    """Return values as a tuple after checking it permutes 1..n, with every
    entry an int (bool excluded).

    >>> validate_perm([2, 1, 3])
    (2, 1, 3)
    """
    pi = tuple(values)
    if not set(map(type, pi)) <= {int} or sorted(pi) != list(range(1, len(pi) + 1)):
        raise InvalidWordError(f"not a permutation of 1..{len(pi)}: {pi}")
    return pi


def pattern_of(word: Iterable[int]) -> Perm:
    """Order-preserving relabelling of a word with distinct entries.

    >>> pattern_of((7, 9, 6))
    (2, 3, 1)
    >>> pattern_of((9, 6, 5))
    (3, 2, 1)
    """
    w = tuple(word)
    if len(set(w)) != len(w):
        raise InvalidWordError(f"word has repeated entries: {w}")
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return tuple(rank[v] for v in w)


def inverse(pi: Perm) -> Perm:
    """The inverse permutation: inverse(pi)[pi[i]-1] == i+1.

    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    out = [0] * len(pi)
    for i, v in enumerate(pi):
        out[v - 1] = i + 1
    return tuple(out)


def reversed_complement(tau: Perm) -> Perm:
    """Rotate the graph of tau by 180 degrees: (k+1-tau_k)...(k+1-tau_1).

    >>> reversed_complement((1, 2, 4, 3))
    (2, 1, 3, 4)
    """
    k = len(tau)
    return tuple(k + 1 - v for v in reversed(tau))


def is_involution(pi: Perm) -> bool:
    """True iff pi composed with itself is the identity.

    >>> is_involution((1, 2, 7, 9, 6, 5, 3, 8, 4))
    True
    >>> is_involution((4, 9, 7, 3, 8, 5, 6, 2, 1))
    False
    """
    return all(pi[v - 1] == i + 1 for i, v in enumerate(pi))


def symmetry_class(tau: Perm) -> frozenset[Perm]:
    """Orbit of tau under the symmetries preserving diagonal symmetry.

    The four members are tau, its inverse, its reversed complement, and the
    inverse of the reversed complement; duplicates collapse, so the orbit
    has size 1, 2, or 4.

    >>> sorted(symmetry_class((1, 2, 4, 3)))
    [(1, 2, 4, 3), (2, 1, 3, 4)]
    """
    rc = reversed_complement(tau)
    return frozenset((tau, inverse(tau), rc, inverse(rc)))


@cache
def _pattern_links(sigma: Perm) -> tuple[tuple[int | None, int | None, int], ...]:
    # For each pattern position d, the earlier position holding the closest
    # smaller value and the one holding the closest larger value.  These are
    # the only order constraints a new candidate has to satisfy.  Last, the
    # position of the largest of sigma[:d+1], whose value is the row of the
    # box a board dot at d must fit under.
    links = []
    top = 0
    for d in range(len(sigma)):
        lo = hi = None
        for e in range(d):
            if sigma[e] < sigma[d] and (lo is None or sigma[e] > sigma[lo]):
                lo = e
            if sigma[e] > sigma[d] and (hi is None or sigma[e] < sigma[hi]):
                hi = e
        if sigma[d] > sigma[top]:
            top = d
        links.append((lo, hi, top))
    return tuple(links)


# CPython refuses more than 20 statically nested blocks, so the matcher of
# a unit whose patterns are longer than this is a chain of functions, each
# nesting this many loops: the loop at depth 16, 32, ... is a level function
# that takes the mask and returns it grown by what its loops found.
_LEVELS_PER_FUNCTION = 16


class _Node:
    """One standardised prefix of the unit's patterns: the loop at depth d."""

    def __init__(self, d: int, links: tuple | None = None, rest: int = 0):
        self.d = d
        self.links = links  # the (lo, hi, top) of _pattern_links at depth d
        self.leaf = 0  # bits of the patterns that end here
        self.bits = 0  # bits of the patterns that pass through here
        self.rest = rest  # fewest positions still to place
        # how the loops under this one read each earlier value: "<" where a
        # later value must exceed it, or where a later dot must fit under
        # the box in its row, so that a smaller value can only help; ">"
        # where a later value must stay below it
        self.reads: dict[int, set[str]] = {}
        self.children: dict[int, _Node] = {}


def _trie(unit: tuple[Perm, ...], board: bool) -> _Node:
    # A child is told apart from its siblings by the rank of its entry among
    # the prefix so far, which with the parent's prefix fixes its own.  How
    # a new node's test reads earlier values goes to every node above it.
    root = _Node(-1)
    for j, sigma in enumerate(unit):
        links = _pattern_links(sigma)
        path = [root]
        for d, v in enumerate(sigma):
            rank = sum(u < v for u in sigma[:d])
            if rank not in path[-1].children:
                lo, hi, top = links[d]
                boxed = top if board and top != d else None
                for earlier, way in ((lo, "<"), (hi, ">"), (boxed, "<")):
                    if earlier is not None:
                        for node in path:
                            node.reads.setdefault(earlier, set()).add(way)
                path[-1].children[rank] = _Node(d, links[d], len(sigma) - 1 - d)
            path.append(path[-1].children[rank])
            path[-1].rest = min(path[-1].rest, len(sigma) - 1 - d)
        for node in path:
            node.bits |= 1 << j
        path[-1].leaf |= 1 << j
    return root


def _matcher_source(unit: tuple[Perm, ...], board: bool) -> str:
    # One nested `for` per node of the trie of standardised prefixes, so the
    # patterns of the unit share the loops of their common prefixes.  The
    # loop at depth d scans the candidates left once the node's fewest later
    # positions are reserved, and keeps value v<d> only if it lies between
    # the values at its two linked earlier positions.  The board form reads
    # (x, y) dots and also demands that the box at (x<d>, largest y so far)
    # exists; that y is the value at the position of the largest of the
    # prefix, so it is known here, and when it is v<d> itself the box is the
    # dot's own and needs no test.  The dots are sorted by column, so every
    # later candidate of a loop whose box test fails fails it too, and the
    # loop breaks.
    #
    # match returns a mask whose bit j is set iff unit[j] occurs.  A node
    # where patterns end sets their bits, and breaks its loop if no longer
    # pattern passes through it; a child whose patterns are all found is
    # skipped, a node whose patterns are all found breaks, and a full mask
    # is returned at once.  For one pattern every such test is known to
    # pass and is left out, which leaves plain nested loops that return 1
    # on a find and the mask, 0, after them.  A level function (see
    # _LEVELS_PER_FUNCTION) is called like any other child loop.  The
    # source holds only integer literals and fixed names, no caller text.
    #
    # Two rules skip candidates whose subtree can only find a subset of
    # what a subtree already searched has found; the mask only grows, so
    # skipping them changes no result.  A later candidate of a loop has
    # fewer positions after it, so:
    # - if the loops below read v<d> only as "<" (see _Node.reads), a candidate
    #   above the least value searched under the same parent is skipped:
    #   m<d> holds that value and caps v<d> in the loop's own test.  Read
    #   only as ">", m<d> is the largest and a floor.  Not read at all, the
    #   loop breaks after the first candidate that passes its own tests.
    # - if the loops below read no value chosen above depth d, what they
    #   find depends on i<d> alone, and seen<d> (one per call) skips a
    #   position searched under another parent.
    # m<d> starts at its linked bound, or past every value when there is
    # none.  A board's rows lie in 1..len(shape), so there it starts at an
    # int, which compares with the int rows faster than a float infinity
    # does; the word form's seq may hold any integers.
    head = "seq, shape" if board else "seq"
    ceiling, floor = ("len(shape) + 1", "0") if board else ("inf", "-inf")
    full = (1 << len(unit)) - 1
    root = _trie(unit, board)
    functions = []
    names: list[str] = []  # the level functions and position sets
    seen: list[str] = []  # the per-call position sets, one per node using one

    def fresh(stem: str) -> str:
        # stem, or stem with a suffix that no earlier name has
        names.append(stem if stem not in names else f"{stem}_{len(names)}")
        return names[-1]

    def leaf(node: _Node, pad: str) -> list[str]:
        if node.leaf == full:
            return [f"{pad}return {full}"]
        lines = [f"{pad}mask |= {node.leaf}", f"{pad}if mask == {full}:", f"{pad}    return {full}"]
        return lines if node.children else lines + [f"{pad}break"]

    def children(node: _Node, pad: str) -> list[str]:
        lines = []
        for child in node.children.values():
            d, inner = child.d, pad
            if child.bits != node.bits:  # else the node's loop tests these
                lines.append(f"{pad}if mask & {child.bits} != {child.bits}:")
                inner += "    "
            if d and d % _LEVELS_PER_FUNCTION == 0:
                # the values chosen above that this level or a later one reads
                carried = "".join(f", v{e}" for e in sorted(e for e in node.reads if e < d))
                args = f"{head}, n, i{d - 1}{carried}, mask"
                name = fresh(f"level{d}")
                functions.append([f"def {name}({args}):", *loop(child, "    "), "    return mask"])
                call = f"{inner}mask = {name}({args})"
                lines += [call, f"{inner}if mask == {full}:", f"{inner}    return {full}"]
            else:
                lines += loop(child, inner)
        return lines

    def loop(node: _Node, pad: str) -> list[str]:
        d, reads = node.d, node.reads
        lo, hi, top = node.links
        low = None if lo is None else f"v{lo}"
        high = None if hi is None else f"v{hi}"
        lines = []
        if reads.get(d) == {"<"}:
            lines.append(f"{pad}m{d} = {high or ceiling}")
            high = f"m{d}"
        elif reads.get(d) == {">"}:
            lines.append(f"{pad}m{d} = {low or floor}")
            low = f"m{d}"
        start = f"i{d - 1} + 1" if d else "0"
        stop = f"n - {node.rest}" if node.rest else "n"
        lines.append(f"{pad}for i{d} in range({start}, {stop}):")
        pad += "    "
        lines.append(f"{pad}{f'x{d}, ' if board else ''}v{d} = seq[i{d}]")
        if low or high:
            bounds = " < ".join(b for b in (low, f"v{d}", high) if b)
            lines += [f"{pad}if not {bounds}:", f"{pad}    continue"]
        if board and top != d:
            lines += [f"{pad}if x{d} > shape[v{top} - 1]:", f"{pad}    break"]
        if f"m{d}" in (low, high):
            lines.append(f"{pad}m{d} = v{d}")
        if node.leaf:
            lines += leaf(node, pad)
        if not node.children:
            return lines
        unread = d not in reads
        # the sets are made in match, so not for a loop in a level function
        if 0 < d < _LEVELS_PER_FUNCTION and min(reads) >= d:
            name = fresh(f"seen{d}")
            seen.append(name)
            lines += [
                f"{pad}if {name}[i{d}]:",
                f"{pad}    {'break' if unread else 'continue'}",
                f"{pad}{name}[i{d}] = 1",
            ]
        lines += children(node, pad)
        if unread:
            lines.append(f"{pad}break")
        elif node.bits != full:
            lines += [f"{pad}if mask & {node.bits} == {node.bits}:", f"{pad}    break"]
        return lines

    body = ["    n = len(seq)", f"    mask = {root.leaf}"]
    if not board:  # CPython specialises indexing a tuple, not bytes
        body.insert(0, "    seq = tuple(seq)")
    loops = children(root, "    ")
    body += [f"    {name} = [0] * n" for name in seen] + loops + ["    return mask"]
    lines = [f"def match({head}):", *body]
    for function in functions:
        lines += function
    return "\n".join(lines) + "\n"


def _patience(k: int, down: bool):
    # Schensted: a word contains 12...k iff its longest increasing
    # subsequence has k entries, and k...1 iff its reverse's does.  t<i> is
    # the least last entry of an increasing subsequence of i entries read so
    # far, above every entry while there is none; t1 < t2 < ..., so an entry
    # replaces the first tail above it, and one above t<k-1> ends an
    # increasing subsequence of k.  The tails are locals of a generated
    # function, one flat `if` per tail: an `elif` chain nests, and CPython's
    # compiler refuses one of a few thousand.  A bytes entry is below the
    # int 256, which compares faster than inf.  Reversing the word costs
    # less than negating its entries.
    tails = [f"t{i}" for i in range(1, k)]
    lines = ["def match(seq):"]
    if tails:
        lines.append(f"    {' = '.join(tails)} = 256 if type(seq) is bytes else inf")
    lines.append(f"    for v in {'reversed(seq)' if down else 'seq'}:")
    for t in tails:
        lines += [f"        if v < {t}:", f"            {t} = v", "            continue"]
    lines += ["        return 1", "    return 0"]
    return _compiled("\n".join(lines) + "\n", f"<patience k={k}{' down' if down else ''}>")


def _compiled(source: str, name: str):
    # the function match that source defines, compiled under name
    namespace: dict = {"inf": inf}
    exec(compile(source, name, "exec"), namespace)
    return namespace["match"]


@cache
def _matcher(unit: tuple[Perm, ...], board: bool = False):
    """The containment test for a unit of patterns, built on first use; its
    result has bit j set iff unit[j] occurs.

    The word form is called as match(seq), seq any sequence of distinct
    integers (the involution rows are bytes); the board form as
    match(dots, shape) with dots in Placement's column order.  The word form of one
    monotone pattern, 12...k or k...1 with k >= 2, is a patience-sorting
    pass over seq (_patience) that keeps its k - 1 tails in local
    variables; every other unit, and every board form, is compiled into
    nested loops (_matcher_source) that read seq as a tuple, chained past
    _LEVELS_PER_FUNCTION loops into level functions that carry the mask.
    """
    if not board and len(unit) == 1 and len(unit[0]) > 1:
        (sigma,) = unit
        k = len(sigma)
        if sigma in ((*range(1, k + 1),), (*range(k, 0, -1),)):
            return _patience(k, sigma[0] == k)
    lengths = ",".join(str(len(sigma)) for sigma in unit)
    return _compiled(_matcher_source(unit, board), f"<matcher m={lengths}>")


def contains(pi: Sequence[int], sigma: Perm) -> bool:
    """True iff some subsequence of pi has pattern sigma.

    pi may be any sequence of distinct integers; only relative order is
    used.  The empty pattern is contained in everything.  The test runs the
    word-form matcher of the one-pattern unit (sigma,), built on its first
    use: for 12...k and k...1 one patience-sorting pass, which tests each
    entry against k - 1 tails held in local variables, and compiled nested
    loops for any other pattern.

    >>> contains((1, 2, 7, 9, 6, 5, 3, 8, 4), (1, 2, 3, 5, 4))
    True
    >>> contains((2, 1, 4, 3), (1, 2, 3, 4))
    False
    """
    return _matcher((sigma,))(pi) == 1


def avoids(pi: Sequence[int], sigma: Perm) -> bool:
    """True iff pi has no subsequence with pattern sigma."""
    return not contains(pi, sigma)


def _pairings(reach: Sequence[int], make: Callable = tuple) -> Iterator:
    """Yield make(pi) for each involution pi of [len(reach)] with
    pi[t - 1] <= reach[t - 1] for every t, where reach is a self-conjugate
    shape: on the n x n square these are all involutions of [n], on a shape
    its symmetric full placements.

    The least free index t is tried as a fixed point, then paired with each
    later free u in increasing order, stopping at the first u past
    reach[t - 1]; self-conjugacy gives t <= reach[u - 1] for free.  The walk
    keeps one explicit stack of levels over a linked list of the free
    indices, so each involution costs a few list operations and no chain of
    nested generators.
    """
    n = len(reach)
    # entries fit a byte up to 255, and bytes(pi) is then a plain copy
    mapping = bytearray(n) if n < 256 else [0] * n
    # the free indices, linked in increasing order from 0: nxt[i] is the
    # next one after i, and n + 1 ends the list
    nxt = [*range(1, n + 2)]
    # one (t, p, u) per open level: t is paired with u, the free index after
    # p; u is 0 while t is fixed or before its first partner, which follows 0
    levels = []
    while True:
        t = nxt[0]
        while t <= n:  # open a level at the least free index, t fixed
            nxt[0] = nxt[t]
            levels.append((t, 0, 0))
            if t > reach[t - 1]:  # it cannot be: go to its first partner
                break
            mapping[t - 1] = t
            t = nxt[0]
        else:
            yield make(mapping)
        # move the deepest level that has another partner on to it
        while levels:
            t, p, u = levels.pop()
            if u:
                nxt[p] = u
                p = u
            u = nxt[p]
            if u <= reach[t - 1]:
                mapping[t - 1] = u
                mapping[u - 1] = t
                nxt[p] = nxt[u]
                levels.append((t, p, u))
                break
            nxt[0] = t  # t was the least free index
        else:
            return


def _check_size(n) -> None:
    # n counts the entries of an involution: an int (bool excluded), >= 0
    if type(n) is not int or n < 0:
        raise InvalidInputError(f"n must be an integer >= 0, got {n!r}")


def involutions(n: int) -> Iterator[Perm]:
    """Yield every involution of [n], built by pairing the least free index.
    An n that is not an int >= 0 raises InvalidInputError.

    >>> sorted(involutions(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    """
    _check_size(n)
    return _pairings((n,) * n)


# _rc_orbits(n) holds one member of each reversed-complement orbit of the
# involutions of [n] as a row, bytes whose entries fit up to the limit: 46 B
# at 13 where a tuple takes 160.  The 284,944 rows it keeps at 13 take
# 15 MiB, and the stores two, four, ... sizes down it is built from another
# 1 MiB; the 2,390,480 involutions of 14 would need about four times as
# much.  No store keeps the other members: they are made as they are read.
_INVOLUTION_LIST_MAX_N = 13


def _check_listed(n) -> None:
    # n sizes the involution store: an int >= 0 no larger than its limit.
    # Every caller that counts over the store checks its largest n here
    # first, so a size past the limit is refused before any count runs.
    _check_size(n)
    if n > _INVOLUTION_LIST_MAX_N:
        raise InvalidInputError(
            f"n = {n} is above the involution list limit of {_INVOLUTION_LIST_MAX_N}"
        )


def _rc_image(n: int) -> Callable[[bytes], bytes]:
    # reversed_complement on rows of [n] as a C-level byte translation
    table = bytes(range(n + 1, 0, -1)).ljust(256, b"\0")
    return lambda row: row.translate(table)[::-1]


def _spliced(rows: Sequence[bytes], n: int, i: int, at: int, x: int, y: int) -> list[bytes]:
    # Rows of [n] from rows of [n - 2]: each relabelled v -> v + (v >= i),
    # with x put in at index at and y appended.  The rows are laid side by
    # side in one buffer of n-byte rows, a column at a time by extended
    # slices, and relabelled by one byte translation, so only the final cut
    # into rows is a Python loop.
    m, count = n - 2, len(rows)
    source = b"".join(rows).translate(bytes(range(i)) + bytes(range(i + 1, 256)) + b"\0")
    flat = bytearray(count * n)
    for j in range(m):
        flat[j + (j >= at) :: n] = source[j::m]
    flat[at::n] = bytes([x]) * count
    flat[n - 1 :: n] = bytes([y]) * count
    flat = bytes(flat)
    return [flat[r : r + n] for r in range(0, len(flat), n)]


@cache
def _rc_orbits(n: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The involutions of [n] by reversed-complement orbit, as rows (pairs,
    fixed), each part in increasing order: the smaller member of each orbit
    of two and every involution that reversed_complement fixes: the one
    involution store, the images of the pairs being made as they are read.
    An n that is not an int >= 0 raises InvalidInputError, and so does n
    above 13, before anything is built.

    The store is built from _rc_orbits(n - 2), by the partner i of n.
    Taking n and i out of an involution of [n] and closing up the gap
    leaves one of [n - 2], s; the rows with pi(n) = i are the rows s
    relabelled v -> v + (v >= i), with n put in at index i - 1 and i
    appended.  Which are kept follows from s, block by block:
    - pi(n) = n: with 1 fixed, the frame 1 ... n around s shifted up by
      one, whose image is the same frame around rc(s), so it is kept as s
      is; with 1 not fixed the image starts with 1 and is the smaller.
    - i = 1: the frame n ... 1, kept as s is in the same way.
    - 2 <= i <= n - 1: with a = pi(1), the row is the smaller member when
      a + i <= n, is compared with its image when a + i = n + 1 (the image
      starts with a too) and is the larger when a + i > n + 1.  a grows
      with s[0], so over every row of [n - 2] in order the first kind is
      a prefix and the second the block after it.

    >>> [[tuple(row) for row in part] for part in _rc_orbits(3)]
    [[(1, 3, 2)], [(1, 2, 3), (3, 2, 1)]]
    """
    _check_listed(n)
    if n < 2:
        return (), (bytes(range(1, n + 1)),)
    below = _rc_orbits(n - 2)
    pairs, fixed = (
        [*_spliced(part, n, 1, 0, 1, n), *_spliced(part, n, 1, 0, n, 1)] for part in below
    )
    rows = sorted((*below[0], *below[1], *map(_rc_image(n - 2), below[0])))
    image_of = _rc_image(n)
    for i in range(2, n):
        # a = s[0] + (s[0] >= i), so a + i <= n exactly when s[0] <= top,
        # and a + i = n + 1 when s[0] = top + 1 unless that is i itself
        top = n - i - (2 * i <= n)
        kept = bisect_left(rows, bytes([top + 1]))
        pairs += _spliced(rows[:kept], n, i, i - 1, n, i)
        if 2 * i != n + 1:
            block = rows[kept : bisect_left(rows, bytes([top + 2]), kept)]
            for row in _spliced(block, n, i, i - 1, n, i):
                image = image_of(row)
                if row < image:
                    pairs.append(row)
                elif row == image:
                    fixed.append(row)
    pairs.sort()
    fixed.sort()
    return tuple(pairs), tuple(fixed)


def involution_list(n: int) -> tuple[Perm, ...]:
    """All involutions of [n] as tuples (35,696 of them at n = 11): the
    pairs of _rc_orbits(n), its fixed involutions, then the images of the
    pairs.  The tuples and the images are made from the orbits on each
    call, so nothing but the orbits is held between calls.  An n that is
    not an int >= 0, an unhashable one included, or n above 13 raises
    InvalidInputError before anything is built."""
    _check_listed(n)  # before the cache of _rc_orbits hashes n
    pairs, fixed = _rc_orbits(n)
    return (*map(tuple, pairs), *map(tuple, fixed), *map(tuple, map(_rc_image(n), pairs)))


def perm_to_text(pi: Perm) -> str:
    """Digits concatenated for n <= 9, comma-separated beyond.

    >>> perm_to_text((3, 1, 2))
    '312'
    >>> perm_to_text(tuple([10, 2, 3, 4, 5, 6, 7, 8, 9, 1]))
    '10,2,3,4,5,6,7,8,9,1'
    """
    if len(pi) <= 9:
        return "".join(str(v) for v in pi)
    return ",".join(str(v) for v in pi)


def _ints(part: str, what: str, text: str, digits=False, error=InvalidInputError) -> list[int]:
    """The integers of part, a piece of text: its digits when digits is set
    and part has no comma, else those its commas separate.  Anything else
    raises error naming what was read and the whole text."""
    part = part.strip()
    try:
        return [int(v) for v in (part if digits and "," not in part else part.split(","))]
    except ValueError:
        raise error(f"{what} text {text!r} has an empty or non-integer entry") from None


def perm_from_text(text: str) -> Perm:
    """Parse the textual form accepted everywhere in the CLI."""
    return validate_perm(_ints(text, "permutation", text, digits=True))
