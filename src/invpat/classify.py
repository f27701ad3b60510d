"""Grouping patterns by symmetry and by avoider-count vectors.

The symmetry classes of S_k (orbits under inverse and reversed complement)
partition the patterns; members of a class have the same avoider counts,
so one representative is counted per class.  Golden count tables for
k = 4, 5, 6 ship with the package and reproduce_table recomputes them from
scratch, failing hard on any disagreement.
"""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import resources
from itertools import permutations

from .avoidance import CountStore, _each_count, count_avoiders
from .errors import InvalidInputError, TableMismatchError
from .perms import (
    Perm,
    _check_listed,
    is_involution,
    perm_from_text,
    perm_to_text,
    symmetry_class,
    validate_perm,
)

TABLE_IDS = ("T1", "T2", "T3", "T4")


@dataclass(frozen=True)
class ClassReport:
    """Symmetry classes of S_k grouped by their avoider-count vectors.

    ``groups`` maps a count vector (over ``ns``) to the classes sharing it;
    each class is the sorted tuple of its members in text form.
    """

    k: int
    ns: tuple[int, ...]
    groups: tuple[tuple[tuple[int, ...], tuple[tuple[str, ...], ...]], ...]

    def class_count(self) -> int:
        return sum(len(classes) for _, classes in self.groups)


def symmetry_classes(k: int) -> list[tuple[Perm, ...]]:
    """The symmetry classes of S_k, each sorted, listed by least member."""
    seen: set[frozenset[Perm]] = set()
    out = []
    for pi in permutations(range(1, k + 1)):
        cls = symmetry_class(pi)
        if cls not in seen:
            seen.add(cls)
            out.append(tuple(sorted(cls)))
    return sorted(out)


def classify_sk(
    k: int, n_max: int, jobs: int = 1, store: CountStore | None = None
) -> ClassReport:
    """Count avoiders for one representative per symmetry class of S_k and
    group the classes by their count vectors over n = k+1 .. n_max.
    """
    if k < 1 or n_max < k + 1:
        raise InvalidInputError("need k >= 1 and n_max >= k + 1")
    ns = tuple(range(k + 1, n_max + 1))
    classes = symmetry_classes(k)
    vectors = _count_vectors([cls[0] for cls in classes], ns, jobs, store)
    grouped: dict[tuple[int, ...], list[tuple[str, ...]]] = {}
    for cls, vec in zip(classes, vectors):
        grouped.setdefault(vec, []).append(tuple(perm_to_text(p) for p in cls))
    groups = tuple(
        (vec, tuple(sorted(grouped[vec]))) for vec in sorted(grouped)
    )
    return ClassReport(k, ns, groups)


def _count_vectors(
    reps: list[Perm], ns: tuple[int, ...], jobs: int, store: CountStore | None
) -> list[tuple[int, ...]]:
    # Without a store, jobs workers each count the batch of every n over an
    # interleaved share of the orbits and the shares are summed; with
    # one, the counting stays in this process.
    if type(jobs) is not int or jobs < 1:
        raise InvalidInputError(f"jobs must be an integer >= 1, got {jobs!r}")
    for n in ns:  # before any count
        _check_listed(n)
    parallel = jobs > 1 and store is None
    cells = [frozenset([rep]) for rep in reps]
    with ProcessPoolExecutor(jobs) if parallel else nullcontext() as pool:
        columns = [_each_count(n, cells, store, pool, jobs) for n in ns]
    return list(zip(*columns))


def load_tables() -> dict:
    """The golden count tables shipped with the package."""
    text = resources.files("invpat").joinpath("data/tables.json").read_text()
    return json.loads(text)


def reproduce_table(
    table_id: str, jobs: int = 1, store: CountStore | None = None
) -> dict:
    """Recompute one golden table from scratch and compare cell by cell.

    Returns the computed table; any disagreement with the shipped values
    raises TableMismatchError listing every bad cell.
    """
    if table_id not in TABLE_IDS:
        raise InvalidInputError(f"unknown table id {table_id!r}; use one of {TABLE_IDS}")
    golden = load_tables()[table_id]
    n_lo, n_hi = golden["n_range"]
    ns = tuple(range(n_lo, n_hi + 1))

    reps = []
    for row in golden["rows"]:
        for members in row["classes"]:
            perms = sorted(perm_from_text(m) for m in members)
            rep = perms[0]
            if frozenset(perms) != symmetry_class(rep):
                raise InvalidInputError(f"{members} is not a symmetry class")
            reps.append(rep)

    vectors = _count_vectors(reps, ns, jobs, store)
    at = 0
    rows = []
    mismatches = []
    for row in golden["rows"]:
        want = tuple(row["counts"])
        for members in row["classes"]:
            got = vectors[at]
            at += 1
            rows.append({"class": list(members), "counts": list(got)})
            for n, g, w in zip(ns, got, want):
                if g != w:
                    mismatches.append((",".join(members), n, g, w))
    if mismatches:
        raise TableMismatchError(mismatches)
    return {"id": table_id, "title": golden["title"], "ns": list(ns), "rows": rows}


def prefix_exchange_pairs(alpha: Perm, beta: Perm, k_max: int, n_max: int):
    """For every ordering tau of j+1..k (j < k <= k_max), the patterns
    alpha+tau and beta+tau and the sizes k..n_max to count them at.

    The prefixes and limits are checked on the call, before any pair is
    made; the pairs come lazily.
    """
    alpha, beta = validate_perm(alpha), validate_perm(beta)
    j = len(alpha)
    if len(beta) != j or not (is_involution(alpha) and is_involution(beta)):
        raise InvalidInputError("prefixes must be involutions of equal length")
    if k_max <= j:
        raise InvalidInputError("k_max must exceed the prefix length")
    if k_max > n_max:
        raise InvalidInputError(f"k_max {k_max} exceeds n_max {n_max}")
    return (
        (alpha + tau, beta + tau, list(range(k, n_max + 1)))
        for k in range(j + 1, k_max + 1)
        for tau in permutations(range(j + 1, k + 1))
    )


def verify_prefix_exchange(
    alpha: Perm, beta: Perm, k_max: int, n_max: int
) -> list[dict]:
    """Compare the avoider counts of every pair of prefix_exchange_pairs."""
    return [_pair_record(*pair) for pair in prefix_exchange_pairs(alpha, beta, k_max, n_max)]


def _pair_record(pat_a: Perm, pat_b: Perm, ns: list[int]) -> dict:
    """The avoider counts of two patterns over ns, side by side."""
    counts_a = [count_avoiders(n, [pat_a]) for n in ns]
    counts_b = [count_avoiders(n, [pat_b]) for n in ns]
    return {
        "pattern_a": perm_to_text(pat_a),
        "pattern_b": perm_to_text(pat_b),
        "ns": ns,
        "counts_a": counts_a,
        "counts_b": counts_b,
        "equal": counts_a == counts_b,
    }


# pairs whose equality is observed in the tables but not proved; the scan
# reports them without asserting anything
CONJECTURED_PAIRS = (
    ("12345", "43215"),
    ("12345", "45312"),
    ("123456", "456123"),
    ("123456", "564312"),
)


def scan_conjectures(n_max: int, shape_side: int = 5, k_max: int = 4) -> list[dict]:
    """Collect evidence for the open equalities; reports, never asserts.

    Square boards: the four conjectured pattern pairs, counted up to n_max.
    Self-conjugate boards with first part <= shape_side: the increasing
    pattern of each length k, 2 <= k <= k_max, against the decreasing one.
    """
    from . import boards
    from .avoidance import lambda_sym

    longest = max(len(a) for a, _ in CONJECTURED_PAIRS)
    if n_max <= longest:
        raise InvalidInputError(f"n_max must exceed {longest}, the longest pair, got {n_max}")
    if k_max < 2:
        raise InvalidInputError(f"k_max must be >= 2, got {k_max}")
    _check_listed(n_max)
    shapes = sorted(boards.enumerate_self_conjugate_shapes(shape_side))
    records = []
    for text_a, text_b in CONJECTURED_PAIRS:
        pat_a, pat_b = perm_from_text(text_a), perm_from_text(text_b)
        ns = list(range(len(pat_a) + 1, n_max + 1))
        records.append({"kind": "square-pair", **_pair_record(pat_a, pat_b, ns)})
    for k in range(2, k_max + 1):
        up = tuple(range(1, k + 1))
        down = tuple(range(k, 0, -1))
        bad = []
        for shape in shapes:
            a = lambda_sym(shape, [up])
            b = lambda_sym(shape, [down])
            if a != b:
                bad.append({"shape": list(shape), "increasing": a, "decreasing": b})
        records.append(
            {
                "kind": "board-pair",
                "pattern_a": perm_to_text(up),
                "pattern_b": perm_to_text(down),
                "shape_side": shape_side,
                "shapes": len(shapes),
                "unequal": bad,
                "equal": not bad,
            }
        )
    return records
