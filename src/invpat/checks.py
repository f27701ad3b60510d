"""Exhaustive small-size verification sweeps.

Each check function returns a list of records
``{"check", "params", "lhs", "rhs", "pass"}`` comparing two quantities that
are proved (or required) to be equal; run_checks collects them all.  These
are the cross-checks the test suite and the ``verify`` CLI command run.
"""
from __future__ import annotations

from itertools import permutations

from . import boards, classify, reduction, slide, tableaux
from .avoidance import count_avoiders_with_column_constraint, lambda_sym
from .boards import Shape
from .perms import is_involution, perm_to_text


def _record(check: str, params: str, lhs, rhs, ok: bool | None = None) -> dict:
    return {
        "check": check,
        "params": params,
        "lhs": lhs,
        "rhs": rhs,
        "pass": (lhs == rhs) if ok is None else ok,
    }


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
    for shape in _partitions_in_box(max_side):
        if len(shape) != (shape[0] if shape else 0):
            continue
        full = list(boards.enumerate_full_placements(shape))
        expect = 1 if full else 0
        for name, sigma in (("12", (1, 2)), ("21", (2, 1))):
            hits = [p for p in full if not boards.placement_contains(p, sigma)]
            ok = len(hits) == expect
            if boards.is_self_conjugate(shape):
                ok = ok and all(boards.is_symmetric(p) for p in hits)
            records.append(
                _record(
                    "unique-extreme-placement",
                    f"shape={boards.shape_to_text(shape)} pattern={name}",
                    len(hits),
                    expect,
                    ok,
                )
            )
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
        placements = boards.symmetric_full_placements(mu)
        for j in (1, 2, 3):
            prefixes = _prefixes(j)
            for t in _suffix_sets(j):
                # boards depend on (placement, t), patterns on (prefix, t)
                patterns = [t.patterns_with_prefix(sigma) for sigma in prefixes]
                goods = [0] * len(prefixes)
                for p in placements:
                    rb = reduction.suffix_reduction(mu, p, t)
                    for i, (sigma, pats) in enumerate(zip(prefixes, patterns)):
                        if reduction.verify_reduction_equivalence(p, rb, sigma, pats):
                            goods[i] += 1
                for sigma, good in zip(prefixes, goods):
                    records.append(
                        _record(
                            "reduction-equivalence",
                            f"mu={boards.shape_to_text(mu)} "
                            f"sigma={perm_to_text(sigma)} "
                            f"suffixes={sorted(t.suffixes)}",
                            good,
                            len(placements),
                        )
                    )
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
                ok = reduction.class_decomposition_check(mu, t, alpha, beta)
                placements = boards.symmetric_full_placements(mu)
                t_a = t.patterns_with_prefix(alpha)
                t_b = t.patterns_with_prefix(beta)
                total_a = sum(
                    1
                    for p in placements
                    if all(not boards.placement_contains(p, pat) for pat in t_a)
                )
                total_b = sum(
                    1
                    for p in placements
                    if all(not boards.placement_contains(p, pat) for pat in t_b)
                )
                records.append(
                    _record(
                        "class-decomposition",
                        f"mu={boards.shape_to_text(mu)} "
                        f"alpha={perm_to_text(alpha)} beta={perm_to_text(beta)} "
                        f"suffixes={sorted(t.suffixes)}",
                        total_a,
                        total_b,
                        ok and total_a == total_b,
                    )
                )
    return records


def check_column_constraint_square(n_max: int = 7) -> list[dict]:
    """Involutions avoiding 123 with the first i positions avoiding 12 are
    equinumerous with involutions avoiding 321 with the last i positions
    avoiding 21; both agree with the placement-side count on the square.
    """
    records = []
    for n in range(1, n_max + 1):
        for i in range(0, n + 1):
            lhs = count_avoiders_with_column_constraint(n, ["123"], (1, 2), "left", i)
            rhs = count_avoiders_with_column_constraint(n, ["321"], (2, 1), "right", i)
            records.append(
                _record("column-constraint-square", f"n={n} i={i}", lhs, rhs)
            )
            board = slide.flank_avoiding_count(boards.square(n), "123", i)
            records.append(
                _record("column-constraint-board-route", f"n={n} i={i}", lhs, board)
            )
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
            lhs = slide.top_row_dot_count(shape, "123", i)
            rhs = slide.top_row_dot_count(shape, "321", i)
            records.append(
                _record(
                    "top-row-counts",
                    f"shape={boards.shape_to_text(shape)} i={i}",
                    lhs,
                    rhs,
                )
            )
    sq = boards.square(3)
    lhs = slide.top_row_dot_count(sq, "123", 1)
    rhs = slide.top_row_dot_count(sq, "321", 1)
    records.append(
        _record("top-row-counts-square-differ", "shape=3,3,3 i=1", lhs, rhs, lhs != rhs)
    )
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
        if not boards.symmetric_full_placements(shape):
            records.append(
                _record(
                    "flank-recurrence-empty-board",
                    f"shape={boards.shape_to_text(shape)}",
                    slide.flank_avoiding_count(shape, "123", 0),
                    0,
                )
            )
            continue
        inner = slide.inner_shape(shape)
        narrow = shape[-1]
        for pattern in ("123", "321"):
            for i in range(1, narrow + 1):
                lhs = slide.flank_avoiding_count(shape, pattern, i)
                rhs = sum(
                    slide.flank_avoiding_count(inner, pattern, j - 1)
                    for j in range(i, narrow + 1)
                )
                records.append(
                    _record(
                        "flank-recurrence",
                        f"shape={boards.shape_to_text(shape)} pattern={pattern} i={i}",
                        lhs,
                        rhs,
                    )
                )
            link_l = slide.top_row_dot_count(shape, pattern, 1)
            link_r = slide.flank_avoiding_count(inner, pattern, 0)
            records.append(
                _record(
                    "top-row-inner-link",
                    f"shape={boards.shape_to_text(shape)} pattern={pattern}",
                    link_l,
                    link_r,
                )
            )
        lhs = slide.flank_avoiding_count(shape, "123", 1)
        rhs = slide.flank_avoiding_count(shape, "123", 0)
        records.append(
            _record(
                "flank-trivial-at-one",
                f"shape={boards.shape_to_text(shape)}",
                lhs,
                rhs,
            )
        )
    return records


def check_slide_bijection(max_side: int = 6) -> list[dict]:
    """For every window the slide maps the 321-avoiding symmetric full
    placements with a descent-free window bijectively onto those with the
    window shifted one column right, and the inverse round-trips.
    """
    records = []
    for shape in sorted(boards.enumerate_self_conjugate_shapes(max_side)):
        narrow = shape[-1] if shape else 0
        if narrow < 2:
            continue
        pool = [
            p
            for p in boards.symmetric_full_placements(shape)
            if not boards.placement_contains(p, (3, 2, 1))
        ]
        for i in range(1, narrow):
            for j in range(1, narrow - i + 1):
                domain = [
                    p
                    for p in pool
                    if not boards.placement_contains(p, (2, 1), columns=range(i, i + j))
                ]
                image = [
                    p
                    for p in pool
                    if not boards.placement_contains(
                        p, (2, 1), columns=range(i + 1, i + j + 1)
                    )
                ]
                forward = [slide.slide_transform(p, i, j) for p in domain]
                ok = (
                    len(set(forward)) == len(domain)
                    and set(forward) == set(image)
                    and all(
                        slide.slide_inverse(q, i, j) == p
                        for p, q in zip(domain, forward)
                    )
                    and all(
                        slide.slide_transform(slide.slide_inverse(q, i, j), i, j) == q
                        for q in image
                    )
                )
                records.append(
                    _record(
                        "slide-bijection",
                        f"shape={boards.shape_to_text(shape)} i={i} j={j}",
                        len(domain),
                        len(image),
                        ok and len(domain) == len(image),
                    )
                )
    return records


def check_rsk_properties(n_max: int = 5) -> list[dict]:
    """Row insertion is a bijection, symmetry of the graph shows up as
    equal tableaux, and reversal transposes, for n <= n_max; evacuation is
    an involution on every shape in the box of side min(n_max, 4).
    """
    records = []
    for n in range(0, n_max + 1):
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
        records.append(_record("rsk-round-trip", f"n={n}", round_trips, len(perms)))
        records.append(_record("rsk-injective", f"n={n}", len(seen), len(perms)))
        records.append(
            _record("rsk-involution-symmetry", f"n={n}", involution_match, len(perms))
        )
        records.append(_record("rsk-reversal", f"n={n}", reversal, len(perms)))
    for shape in _partitions_in_box(min(n_max, 4)):
        if not shape:
            continue
        tabs = list(tableaux.standard_tableaux(shape))
        good = sum(1 for t in tabs if tableaux.evacuation(tableaux.evacuation(t)) == t)
        records.append(
            _record(
                "evacuation-involution",
                f"shape={boards.shape_to_text(shape)}",
                good,
                len(tabs),
            )
        )
    return records


def check_prefix_exchange(k_max: int = 5, n_max: int = 8) -> list[dict]:
    """Exchanging an increasing prefix for a decreasing one preserves
    avoider counts for every common suffix.
    """
    records = []
    for alpha, beta in (((1, 2), (2, 1)), ((1, 2, 3), (3, 2, 1))):
        for rec in classify.verify_prefix_exchange(alpha, beta, k_max, n_max):
            records.append(
                _record(
                    "prefix-exchange",
                    f"{rec['pattern_a']} vs {rec['pattern_b']}",
                    rec["counts_a"],
                    rec["counts_b"],
                )
            )
    return records


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


def run_checks(names=None) -> list[dict]:
    """Run the named sweeps (all by default) and pool their records."""
    from .errors import InvalidInputError

    chosen = list(ALL_CHECKS) if names is None else list(names)
    records = []
    for name in chosen:
        if name not in ALL_CHECKS:
            raise InvalidInputError(
                f"unknown check {name!r}; choose from {sorted(ALL_CHECKS)}"
            )
        records.extend(ALL_CHECKS[name]())
    return records
