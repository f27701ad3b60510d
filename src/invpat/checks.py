"""Exhaustive small-size verification sweeps.

Each check function returns a list of records
``{"check", "params", "lhs", "rhs", "pass"}`` comparing two quantities that
are proved (or required) to be equal; run_checks collects them all.  These
are the cross-checks the test suite and the ``verify`` CLI command run.

Every sweep computes its records case by case, and each case runs inside
one guard, ``_case``.  Every input a case hands the library is in that
function's domain, so a ValueError raised there is a fault of the library,
not bad input: each record of the case not yet given fails, with lhs ``-``
and an rhs naming the error, and ``verify`` exits 1.  A bad limit is
refused before any case runs (exit 2).  The shapes a sweep walks, and
which records each shape gets, are settled outside its cases.
"""
from __future__ import annotations

import inspect
from contextlib import contextmanager
from itertools import chain, permutations

from . import boards, classify, reduction, slide, tableaux
from .avoidance import count_avoiders_with_column_constraint
from .errors import InvalidInputError
from .perms import _check_listed, is_involution, pattern_of, perm_to_text


def _record(check: str, params: str, lhs, rhs, ok: bool | None = None) -> dict:
    return {
        "check": check,
        "params": params,
        "lhs": lhs,
        "rhs": rhs,
        "pass": (lhs == rhs) if ok is None else ok,
    }


@contextmanager
def _case(records: list[dict], keys: list[tuple[str, str]]):
    """Guard one case, whose records carry the ``(check, params)`` keys.

    The body gives the records in key order through the yielded
    ``add(lhs, rhs, ok=None)``, or through cases nested inside it that
    cover the keys in the same order.  A ValueError fails every key not
    yet given.
    """
    start = len(records)

    def add(lhs, rhs, ok=None):
        records.append(_record(*keys[len(records) - start], lhs, rhs, ok))

    try:
        yield add
    except ValueError as exc:
        error = f"{type(exc).__name__}: {exc}"
        records.extend(_record(*key, "-", error, False) for key in keys[len(records) - start:])


def _partitions_in_box(side: int):
    def rec(prefix: list[int], cap: int):
        yield tuple(prefix)
        if len(prefix) == side:
            return
        for part in range(cap, 0, -1):
            prefix.append(part)
            yield from rec(prefix, part)
            prefix.pop()

    yield from rec([], side)


def check_extreme_placements(max_side: int = 5) -> list[dict]:
    """On boards with equal row and column counts that admit a full
    placement, exactly one full placement avoids 12 and exactly one avoids
    21; on self-conjugate boards those placements are symmetric.
    """
    records = []
    sigmas = ((1, 2), (2, 1))
    for shape in _partitions_in_box(max_side):
        if len(shape) != (shape[0] if shape else 0):
            continue
        text = f"shape={boards.shape_to_text(shape)}"
        keys = [("unique-extreme-placement", f"{text} pattern={perm_to_text(s)}") for s in sigmas]
        with _case(records, keys) as add:
            full = list(boards.enumerate_full_placements(shape))
            expect = 1 if full else 0
            for sigma in sigmas:
                hits = boards.avoiding(full, [sigma])
                ok = len(hits) == expect
                if boards.is_self_conjugate(shape):
                    ok = ok and all(boards.is_symmetric(p) for p in hits)
                add(len(hits), expect, ok)
    return records


def _suffix_sets(j: int) -> list[reduction.SuffixSet]:
    pool = [(j + 1,), (j + 1, j + 2), (j + 2, j + 1)]
    singles = [reduction.suffix_set(j, [t]) for t in pool]
    doubles = [
        reduction.suffix_set(j, [pool[a], pool[b]])
        for a in range(len(pool))
        for b in range(a + 1, len(pool))
    ]
    return singles + doubles


def _prefixes(j: int):
    return [pi for pi in permutations(range(1, j + 1)) if is_involution(pi)]


def check_reduction_equivalence(max_side: int = 5) -> list[dict]:
    """Containment of prefix+suffix patterns on the parent board agrees
    with containment of the bare prefix on the reduced board, for every
    placement, prefix, and small suffix set.
    """
    records = []
    shapes = sorted(s for s in boards.enumerate_self_conjugate_shapes(max_side) if s)
    for mu in shapes:
        # suffix_reduction reads t up to order-isomorphism, so the boards of a
        # standardized t serve j = 1, 2, 3; a case that raises keeps none
        reduced: dict[frozenset, list[reduction.ReducedBoard]] = {}
        for j in (1, 2, 3):
            prefixes = _prefixes(j)
            for t in _suffix_sets(j):
                keys = [
                    (
                        "reduction-equivalence",
                        f"mu={boards.shape_to_text(mu)} "
                        f"sigma={perm_to_text(sigma)} "
                        f"suffixes={sorted(t.suffixes)}",
                    )
                    for sigma in prefixes
                ]
                with _case(records, keys) as add:
                    placements = boards.symmetric_full_placements(mu)
                    key = frozenset(map(pattern_of, t.suffixes))
                    if key not in reduced:
                        reduced[key] = [reduction.suffix_reduction(mu, p, t) for p in placements]
                    # a parent's mask has m bits per prefix, one per suffix
                    m = len(t.suffixes)
                    full = [pat for s in prefixes for pat in sorted(t.patterns_with_prefix(s))]
                    parents = boards.pattern_masks(placements, full)
                    inner = boards.pattern_masks([rb.induced for rb in reduced[key]], prefixes)
                    for i in range(len(prefixes)):
                        good = sum(
                            bool(parent >> i * m & (1 << m) - 1) == bool(mask >> i & 1)
                            for parent, mask in zip(parents, inner)
                        )
                        add(good, len(placements))
    return records


def check_class_decomposition(max_side: int = 4) -> list[dict]:
    """Grouping placements by their dots outside the reduced board splits
    the board into classes on which both prefixes count alike, making the
    total avoider counts for exchanged prefixes equal.
    """
    records = []
    shapes = sorted(s for s in boards.enumerate_self_conjugate_shapes(max_side) if s)
    pairs = {2: ((1, 2), (2, 1)), 3: ((1, 2, 3), (3, 2, 1))}
    for mu in shapes:
        for j, (alpha, beta) in pairs.items():
            for t in _suffix_sets(j):
                params = (
                    f"mu={boards.shape_to_text(mu)} "
                    f"alpha={perm_to_text(alpha)} beta={perm_to_text(beta)} "
                    f"suffixes={sorted(t.suffixes)}"
                )
                with _case(records, [("class-decomposition", params)]) as add:
                    placements = boards.symmetric_full_placements(mu)
                    total_a = len(boards.avoiding(placements, t.patterns_with_prefix(alpha)))
                    total_b = len(boards.avoiding(placements, t.patterns_with_prefix(beta)))
                    ok = reduction.class_decomposition_check(mu, t, alpha, beta)
                    add(total_a, total_b, ok and total_a == total_b)
    return records


def check_column_constraint_square(n_max: int = 7) -> list[dict]:
    """Involutions avoiding 123 with the first i positions avoiding 12 are
    equinumerous with involutions avoiding 321 with the last i positions
    avoiding 21; both agree with the placement-side count on the square.
    """
    records = []
    for n in range(1, n_max + 1):
        for i in range(0, n + 1):
            keys = [
                (check, f"n={n} i={i}")
                for check in ("column-constraint-square", "column-constraint-board-route")
            ]
            with _case(records, keys) as add:
                lhs = count_avoiders_with_column_constraint(n, ["123"], (1, 2), "left", i)
                rhs = count_avoiders_with_column_constraint(n, ["321"], (2, 1), "right", i)
                add(lhs, rhs)
                add(lhs, slide.flank_avoiding_count(boards.square(n), "123", i))
    return records


def check_top_row_counts(max_side: int = 6) -> list[dict]:
    """On non-square self-conjugate boards the two top-row dot statistics
    agree column for column; on squares they need not, and the 3x3 board
    witnesses that.
    """
    records = []
    for shape in sorted(boards.enumerate_self_conjugate_shapes(max_side)):
        if not shape or shape[-1] == shape[0]:
            continue
        for i in range(1, shape[-1] + 1):
            params = f"shape={boards.shape_to_text(shape)} i={i}"
            with _case(records, [("top-row-counts", params)]) as add:
                lhs = slide.top_row_dot_count(shape, "123", i)
                add(lhs, slide.top_row_dot_count(shape, "321", i))
    with _case(records, [("top-row-counts-square-differ", "shape=3,3,3 i=1")]) as add:
        sq = boards.square(3)
        lhs = slide.top_row_dot_count(sq, "123", 1)
        rhs = slide.top_row_dot_count(sq, "321", 1)
        add(lhs, rhs, lhs != rhs)
    return records


def check_flank_recurrences(max_side: int = 6) -> list[dict]:
    """The flank-constrained counts satisfy the frame-deletion recurrence
    and tie the two statistics together.

    The recurrence conditions on the top-row dot, so it only makes sense on
    boards that carry at least one symmetric full placement (as every
    reduced board does); boards without one are recorded as trivially zero.
    """
    records = []
    for shape in sorted(boards.enumerate_self_conjugate_shapes(max_side)):
        if not shape or (len(shape) >= 2 and shape[-1] == shape[0]):
            continue
        text = f"shape={boards.shape_to_text(shape)}"
        # the board carries a symmetric full placement iff row y holds at
        # least len(shape) + 1 - y boxes: its records need no library call
        if any(part + y <= len(shape) for y, part in enumerate(shape, start=1)):
            with _case(records, [("flank-recurrence-empty-board", text)]) as add:
                add(slide.flank_avoiding_count(shape, "123", 0), 0)
            continue
        narrow = shape[-1]
        keys = []
        for pattern in ("123", "321"):
            params = f"{text} pattern={pattern}"
            keys += [("flank-recurrence", f"{params} i={i}") for i in range(1, narrow + 1)]
            keys.append(("top-row-inner-link", params))
        keys.append(("flank-trivial-at-one", text))
        with _case(records, keys) as add:
            inner = slide.inner_shape(shape)
            for pattern in ("123", "321"):
                flanks = [slide.flank_avoiding_count(inner, pattern, i) for i in range(narrow)]
                for i in range(1, narrow + 1):
                    add(slide.flank_avoiding_count(shape, pattern, i), sum(flanks[i - 1 :]))
                add(slide.top_row_dot_count(shape, pattern, 1), flanks[0])
            lhs = slide.flank_avoiding_count(shape, "123", 1)
            add(lhs, slide.flank_avoiding_count(shape, "123", 0))
    return records


def check_slide_bijection(max_side: int = 6) -> list[dict]:
    """For every window the slide maps the 321-avoiding symmetric full
    placements with a descent-free window bijectively onto those with the
    window shifted one column right, and the inverse round-trips.

    Each slide and inverse is computed once.  The slide is checked injective,
    onto the image and undone by the inverse; so each image point q is the
    slide of its inverse p, and sliding the inverse needs no check of its own.
    """
    records = []
    for shape in sorted(boards.enumerate_self_conjugate_shapes(max_side)):
        narrow = shape[-1] if shape else 0
        if narrow < 2:
            continue
        windows = [(i, j) for i in range(1, narrow) for j in range(1, narrow - i + 1)]
        keys = [
            ("slide-bijection", f"shape={boards.shape_to_text(shape)} i={i} j={j}")
            for i, j in windows
        ]
        # the pool is shared by the windows of the shape, each its own case
        with _case(records, keys):
            pool = boards.avoiding(boards.symmetric_full_placements(shape), [(3, 2, 1)])
            for (i, j), key in zip(windows, keys):
                with _case(records, [key]) as add:
                    domain = boards.avoiding(pool, [(2, 1)], columns=range(i, i + j))
                    image = boards.avoiding(pool, [(2, 1)], columns=range(i + 1, i + j + 1))
                    forward = [slide.slide_transform(p, i, j) for p in domain]
                    ok = (
                        len(set(forward)) == len(domain)
                        and set(forward) == set(image)
                        and all(
                            slide.slide_inverse(q, i, j) == p
                            for p, q in zip(domain, forward)
                        )
                    )
                    add(len(domain), len(image), ok and len(domain) == len(image))
    return records


def check_rsk_properties(n_max: int = 5) -> list[dict]:
    """Row insertion is a bijection, symmetry of the graph shows up as
    equal tableaux, and reversal transposes, for n <= n_max; evacuation
    keeps the shape and is an involution on every shape in the box of side
    min(n_max, 4) (an involution alone would let the transpose through).
    """
    records = []
    names = ("rsk-round-trip", "rsk-injective", "rsk-involution-symmetry", "rsk-reversal")
    for n in range(0, n_max + 1):
        with _case(records, [(name, f"n={n}") for name in names]) as add:
            perms = list(permutations(range(1, n + 1)))
            seen = set()
            round_trips = 0
            involution_match = 0
            reversal = 0
            for w in perms:
                p, q = rsk_pair = tableaux.rsk(w)
                seen.add(rsk_pair)
                if tableaux.rsk_inverse(p, q) == w:
                    round_trips += 1
                if (p == q) == is_involution(w):
                    involution_match += 1
                if tableaux.check_reversal_property(w):
                    reversal += 1
            for got in (round_trips, len(seen), involution_match, reversal):
                add(got, len(perms))
    for shape in _partitions_in_box(min(n_max, 4)):
        if not shape:
            continue
        params = f"shape={boards.shape_to_text(shape)}"
        with _case(records, [("evacuation-involution", params)]) as add:
            tabs = list(tableaux.standard_tableaux(shape))
            good = 0
            for t in tabs:
                e = tableaux.evacuation(t)
                if tableaux.tableau_shape(e) == shape and tableaux.evacuation(e) == t:
                    good += 1
            add(good, len(tabs))
    return records


def check_prefix_exchange(k_max: int = 5, n_max: int = 8) -> list[dict]:
    """Exchanging an increasing prefix for a decreasing one preserves
    avoider counts for every common suffix.
    """
    records = []
    pairs = [
        classify.prefix_exchange_pairs(alpha, beta, k_max, n_max)
        for alpha, beta in (((1, 2), (2, 1)), ((1, 2, 3), (3, 2, 1)))
    ]
    for pattern_a, pattern_b, ns in chain(*pairs):
        params = f"{perm_to_text(pattern_a)} vs {perm_to_text(pattern_b)}"
        with _case(records, [("prefix-exchange", params)]) as add:
            rec = classify._pair_record(pattern_a, pattern_b, ns)
            add(rec["counts_a"], rec["counts_b"])
    return records


# the sweeps that count involutions of every n up to n_max
_LISTED = {"columns", "prefix"}

# the rsk sweep lists all n! words of S_n and keeps every tableau pair, for
# each n up to n_max: 3.3 s and a 70 MiB peak at 8 (2 cores, Python 3.11),
# and each further n multiplies both by about n + 1
_RSK_MAX_N = 9

ALL_CHECKS = {
    "extremes": check_extreme_placements,
    "reduction": check_reduction_equivalence,
    "decomposition": check_class_decomposition,
    "columns": check_column_constraint_square,
    "toprow": check_top_row_counts,
    "recurrences": check_flank_recurrences,
    "slide": check_slide_bijection,
    "rsk": check_rsk_properties,
    "prefix": check_prefix_exchange,
}


def run_checks(names=None, max_side=None, n_max=None, k_max=None) -> list[dict]:
    """Run the named sweeps (all by default) and pool their records.

    Every name, and every size limit that is given, is checked before any
    sweep runs: a repeated name, a negative limit, or one that none of the
    chosen sweeps takes, is refused, and so is an n_max past the involution
    store for a sweep that counts over it.  Each given limit goes to the
    sweeps that take it; the others keep their defaults.  The rsk sweep,
    which walks all of S_n, is refused an n_max above _RSK_MAX_N.
    """
    chosen = list(ALL_CHECKS) if names is None else list(names)
    for name in chosen:
        if name not in ALL_CHECKS:
            raise InvalidInputError(
                f"unknown check {name!r}; choose from {sorted(ALL_CHECKS)}"
            )
        if chosen.count(name) > 1:
            raise InvalidInputError(f"check {name!r} is named more than once")
    limits = {"max_side": max_side, "n_max": n_max, "k_max": k_max}
    limits = {k: v for k, v in limits.items() if v is not None}
    taken = {name: inspect.signature(ALL_CHECKS[name]).parameters for name in chosen}
    for limit, value in limits.items():
        if value < 0:
            raise InvalidInputError(f"{limit} must be >= 0, got {value}")
        if not any(limit in params for params in taken.values()):
            raise InvalidInputError(
                f"{limit} is taken by none of the chosen checks {chosen}"
            )
    if n_max is not None and _LISTED.intersection(chosen):
        _check_listed(n_max)
    if n_max is not None and "rsk" in chosen and n_max > _RSK_MAX_N:
        raise InvalidInputError(
            f"n_max = {n_max} is above the rsk sweep's limit of {_RSK_MAX_N}"
            " (it walks all n! words of S_n)"
        )
    records = []
    for name in chosen:
        records.extend(
            ALL_CHECKS[name](**{k: v for k, v in limits.items() if k in taken[name]})
        )
    return records
