"""The benchmark's workloads: count, verify and memo.

Each workload builds its inputs from the seed (``setup``), makes the timed
calls into invpat (``run``) and checks every result against an oracle
(``check``).  ``run`` catches what an operation raises, so a raised exception
is counted as a failed operation instead of ending the run, and calls
``tick()`` between operations, where the runner may pause its clock to probe
the host's speed.

- count:  few patterns at large n; time goes to perms.contains scanning
          involution_list(n).  Bypasses boards, tableaux and the store.
- verify: board and tableau sweeps at sides above the defaults; time goes to
          tableaux, reduction, boards.placement_contains and the slide.
          perms.contains almost never runs.
- memo:   every symmetry class of S_6 at small n through a fresh CountStore,
          written by a first pass and read back by a second.  The only
          workload where per-pattern set-up and store I/O show.
"""
from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import permutations

TABLE_IDS = ("T1", "T2", "T3", "T4")


@dataclass
class Outcome:
    """Operations attempted and the name and reason of each that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, name: str, got, want) -> None:
        self.attempted += 1
        if isinstance(got, Exception):
            self.failures.append(f"{name}: raised {type(got).__name__}: {got}")
        elif got != want:
            self.failures.append(f"{name}: got {got!r}, expected {want!r}")


def attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation, counted by check()
        return exc


# -- oracles independent of the library ---------------------------------------


def _partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def syt_count(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of a shape, by the hook-length formula.

    >>> syt_count((4, 4, 4, 4))
    24024
    """
    columns = [sum(1 for part in shape if part > c) for c in range(shape[0])] if shape else []
    hooks = 1
    for r, part in enumerate(shape):
        for c in range(part):
            hooks *= (part - c) + (columns[c] - r) - 1
    return math.factorial(sum(shape)) // hooks


def increasing_avoiders(n: int, k: int) -> int:
    """Involutions of [n] avoiding 12...k, as a sum of hook-length counts.

    RSK sends involutions bijectively to standard tableaux, and the longest
    increasing subsequence is the first row, so the count is the sum of f^λ
    over λ ⊢ n with λ1 < k.  It equals motzkin (k = 4), closed_form_12345
    and closed_form_123456 but shares no code with them.

    >>> increasing_avoiders(7, 4), increasing_avoiders(7, 6)
    (127, 225)
    """
    return sum(syt_count(lam) for lam in _partitions(n) if lam[0] < k)


def _parse(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def golden_classes(tables: dict) -> list[tuple[str, tuple[str, ...], dict[int, int]]]:
    """(table id, class members, {n: count}) for every class of T1..T4."""
    out = []
    for tid in TABLE_IDS:
        lo, hi = tables[tid]["n_range"]
        for row in tables[tid]["rows"]:
            golden = dict(zip(range(lo, hi + 1), row["counts"]))
            for members in row["classes"]:
                out.append((tid, tuple(members), golden))
    return out


# -- count --------------------------------------------------------------------


@dataclass
class Cell:
    name: str
    n: int
    pattern: tuple[int, ...]
    want: int


class Count:
    """A seeded sample of T1-T4 classes at n = 10, two fixed golden cells at
    n = 11 and the increasing patterns 1234, 12345, 123456 at n = 12.

    The sample takes one class from each of ``strata`` groups of the classes
    ordered by their golden n = 11 count, and a seeded member of it.  Cell
    cost varies up to fivefold between classes, and a plain random sample
    would make a seed's wall time depend on which classes it drew; the
    fixed n = 11 and n = 12 cells carry most of the time and build
    involution_list(12), which sets the peak memory.
    """

    name = "count"
    strata = 12
    sampled_n = 10
    fixed = ((11, "1324"), (11, "123456"))
    increasing_n = 12
    increasing_k = (4, 5, 6)

    def setup(self, lib, seed: int) -> list[Cell]:
        rng = random.Random(seed)
        classes = golden_classes(lib.classify.load_tables())
        classes.sort(key=lambda c: (c[2][11], c[0], c[1]))
        cells = []
        size = len(classes)
        for s in range(self.strata):
            stratum = classes[s * size // self.strata : (s + 1) * size // self.strata]
            tid, members, golden = rng.choice(stratum)
            member = rng.choice(members)
            n = self.sampled_n
            cells.append(Cell(f"{tid} {member} n={n}", n, _parse(member), golden[n]))
        for n, text in self.fixed:
            tid, _, golden = next(c for c in classes if text in c[1])
            cells.append(Cell(f"{tid} {text} n={n}", n, _parse(text), golden[n]))
        n = self.increasing_n
        for k in self.increasing_k:
            pattern = tuple(range(1, k + 1))
            want = increasing_avoiders(n, k)
            cells.append(Cell(f"12...{k} n={n} (hook-length sum)", n, pattern, want))
        rng.shuffle(cells)
        return cells

    def run(self, lib, cells: list[Cell], tick) -> list:
        results = []
        for c in cells:
            results.append(attempt(lib.avoidance.count_avoiders, c.n, [c.pattern]))
            tick()
        return results

    def check(self, lib, cells: list[Cell], results: list) -> Outcome:
        out = Outcome()
        for cell, got in zip(cells, results):
            out.expect(f"count cell {cell.name}", got, cell.want)
        return out

    def cleanup(self, cells) -> None:
        pass


# -- verify -------------------------------------------------------------------


@dataclass
class VerifyInputs:
    words: list[tuple[int, ...]]
    box: tuple[int, ...]
    order: list[int]


class Verify:
    """Board sweeps one side above their defaults, RSK round trips over S_8
    and evacuation applied twice over the standard tableaux of the 4x4 box.

    The seed orders the words and tableaux; the work is the same for every
    seed.  The tableau functions are called directly rather than through
    check_rsk_properties, whose evacuation half ignores its n_max argument.
    """

    name = "verify"
    sweeps = (
        ("extremes", "check_extreme_placements", 6),
        ("reduction", "check_reduction_equivalence", 6),
        ("decomposition", "check_class_decomposition", 5),
        ("recurrences", "check_flank_recurrences", 7),
        ("toprow", "check_top_row_counts", 7),
        ("slide", "check_slide_bijection", 7),
    )
    rsk_n = 8
    box = (4, 4, 4, 4)

    def setup(self, lib, seed: int) -> VerifyInputs:
        rng = random.Random(seed)
        words = list(permutations(range(1, self.rsk_n + 1)))
        rng.shuffle(words)
        order = list(range(syt_count(self.box)))
        rng.shuffle(order)
        return VerifyInputs(words, self.box, order)

    def run(self, lib, inp: VerifyInputs, tick) -> dict:
        tableaux = lib.tableaux
        sweeps, trips, evacuated = [], [], []
        for _, fn, side in self.sweeps:
            sweeps.append(attempt(getattr(lib.checks, fn), side))
            tick()
        for w in inp.words:
            trips.append(attempt(_round_trip, tableaux, w))
            tick()
        tabs = attempt(lambda: list(tableaux.standard_tableaux(inp.box)))
        for i in inp.order:
            evacuated.append(attempt(_evacuate_twice, tableaux, tabs, i))
            tick()
        return {"sweeps": sweeps, "trips": trips, "tabs": tabs, "evacuated": evacuated}

    def check(self, lib, inp: VerifyInputs, raw: dict) -> Outcome:
        out = Outcome()
        for (name, fn, side), records in zip(self.sweeps, raw["sweeps"]):
            if isinstance(records, Exception) or not records:
                out.expect(f"sweep {name} side={side}", records, "a nonempty record list")
                continue
            for rec in records:
                out.expect(f"sweep {name}: {rec['check']} {rec['params']}", rec["pass"], True)
        for w, got in zip(inp.words, raw["trips"]):
            out.expect(f"rsk round trip {w}", got, w)
        tabs = raw["tabs"]
        got = tabs if isinstance(tabs, Exception) else len(tabs)
        out.expect(f"standard_tableaux{inp.box} count", got, len(inp.order))
        for i, got in zip(inp.order, raw["evacuated"]):
            want = tabs[i] if isinstance(tabs, list) and i < len(tabs) else None
            out.expect(f"evacuation twice, tableau #{i}", got, want)
        return out

    def cleanup(self, inp) -> None:
        pass


def _round_trip(tableaux, w):
    p, q = tableaux.rsk(w)
    return tableaux.rsk_inverse(p, q)


def _evacuate_twice(tableaux, tabs, i):
    return tableaux.evacuation(tableaux.evacuation(tabs[i]))


# -- memo ---------------------------------------------------------------------


@dataclass
class MemoInputs:
    workdir: str
    path: str
    t4: dict[tuple[str, ...], dict[int, int]]
    increasing: dict[int, int]


class Memo:
    """classify_sk over every symmetry class of S_6 with a CountStore in a
    fresh file: a first pass to n_max = 8 writes each cell, a second pass to
    n_max = 9 on a newly opened store reads them back and writes n = 9.

    This is a store's real traffic (690 cells, each put rewriting the whole
    file), not a synthetic key count.  jobs is fixed at 2 so every machine
    does the same work; with a store, classify_sk runs serially today.  The
    seed names the store's directory and nothing else: the inputs are the
    whole of S_6.
    """

    name = "memo"
    k = 6
    passes = (8, 9)
    jobs = 2

    def __init__(self, scratch: str):
        self.scratch = scratch

    def setup(self, lib, seed: int) -> MemoInputs:
        t4 = {}
        for tid, members, golden in golden_classes(lib.classify.load_tables()):
            if tid == "T4" and len(members[0]) == self.k:
                t4[tuple(sorted(members))] = golden
        increasing = {
            n: increasing_avoiders(n, self.k) for n in range(self.k + 1, max(self.passes) + 1)
        }
        os.makedirs(self.scratch, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"memo-seed{seed}-", dir=self.scratch)
        return MemoInputs(workdir, os.path.join(workdir, "counts.json"), t4, increasing)

    def run(self, lib, inp: MemoInputs, tick) -> list:
        class TickingStore(lib.avoidance.CountStore):
            # classify_sk reads the store once per cell; ticking there lets
            # the runner split a pass of several seconds into segments.
            def get(self, key):
                value = super().get(key)
                tick()
                return value

        reports = []
        for n_max in self.passes:
            store = TickingStore(inp.path)
            reports.append(attempt(lib.classify.classify_sk, self.k, n_max, self.jobs, store))
        return reports

    def check(self, lib, inp: MemoInputs, reports: list) -> Outcome:
        out = Outcome()
        store = attempt(lib.avoidance.CountStore, inp.path)
        first: dict[tuple[tuple[str, ...], int], int] = {}
        for number, (n_max, report) in enumerate(zip(self.passes, reports), start=1):
            if isinstance(report, Exception):
                out.expect(f"memo pass {number} (n_max={n_max})", report, None)
                continue
            seen_t4 = set()
            for vec, classes in report.groups:
                for cls in classes:
                    for n, value in zip(report.ns, vec):
                        got, want = self._cell(lib, inp, store, first, number, cls, n, value)
                        out.expect(f"memo pass {number} class {cls[0]} n={n}", got, want)
                    if cls in inp.t4:
                        seen_t4.add(cls)
            for cls in sorted(set(inp.t4) - seen_t4):
                out.expect(f"memo pass {number} T4 class {cls[0]}", "missing", "present")
        return out

    @staticmethod
    def _cell(lib, inp, store, first, number, cls, n, value):
        got = {"value": value}
        want = {"value": value}
        if cls in inp.t4:
            want["value"] = inp.t4[cls][n]
            got["hook-length sum"] = value
            want["hook-length sum"] = inp.increasing[n]
        if number == 1:
            first[(cls, n)] = value
        elif (cls, n) in first:
            got["read back"] = value
            want["read back"] = first[(cls, n)]
        if isinstance(store, Exception):
            got["stored"] = repr(store)
        else:
            key = f"{lib.avoidance.pattern_set_key(lib.avoidance.pattern_set([cls[0]]))}|{n}"
            got["stored"] = store.get(key)
        want["stored"] = value
        return got, want

    def cleanup(self, inp: MemoInputs) -> None:
        shutil.rmtree(inp.workdir, ignore_errors=True)
