"""The verification sweeps themselves (small sizes; acceptance runs big)."""
import functools

import pytest

from invpat import avoidance, boards, checks, classify, reduction, slide, tableaux
from invpat.cli import run
from invpat.errors import (
    InvalidInputError,
    InvalidPlacementError,
    InvalidShapeError,
    InvalidTableauError,
)
from invpat.perms import validate_perm


def _all_pass(records):
    assert records, "sweep produced no records"
    failed = [r for r in records if not r["pass"]]
    assert not failed, failed[:5]


def test_extreme_placements_sweep():
    _all_pass(checks.check_extreme_placements(4))


def test_reduction_equivalence_sweep():
    _all_pass(checks.check_reduction_equivalence(4))


def test_class_decomposition_sweep():
    _all_pass(checks.check_class_decomposition(3))


def test_column_constraint_sweep():
    _all_pass(checks.check_column_constraint_square(5))


def test_top_row_sweep():
    _all_pass(checks.check_top_row_counts(5))


def test_flank_recurrence_sweep():
    _all_pass(checks.check_flank_recurrences(5))


def test_slide_sweep():
    _all_pass(checks.check_slide_bijection(5))


_MERGE_SPLIT_MAPS = slide._merge_split_maps


def _merge_split_dropping_a_column(i, j, w, b1, stepped):
    coords, special = _MERGE_SPLIT_MAPS(i, j, w, b1, stepped)
    if coords:
        coords.pop(max(coords))
    return coords, special


@pytest.mark.parametrize(
    "name, fault, error",
    [
        ("_merge_split", slide._cyclic_reseat, "slide output contains 321"),
        ("_merge_split_maps", _merge_split_dropping_a_column, "two dots share a row"),
    ],
)
def test_a_faulty_slide_fails_the_sweep_with_exit_1(monkeypatch, capsys, name, fault, error):
    # The inverse is built from the same maps as the slide, so a wrong map
    # round-trips; the sweep must still fail it, as a check and not as bad input.
    monkeypatch.setattr(slide, name, fault)
    failed = [r for r in checks.check_slide_bijection(5) if not r["pass"]]
    assert failed and all(error in r["rhs"] for r in failed)
    assert run(["verify", "--check", "slide", "--max-side", "5", "--no-timing"]) == 1
    record = "FAIL slide-bijection shape=5,5,5,5,5 i=1 j=3: - vs InvalidPlacementError: "
    assert record + error in capsys.readouterr().out


def test_an_inverse_wrong_on_one_image_fails_the_slide_sweep(monkeypatch, capsys):
    # The sweep computes each inverse once, on the slide's own output, and
    # does not slide the inverse of each image point again; an inverse that
    # quietly returns a wrong placement for one image point must still fail.
    shape = (5,) * 5
    pool = boards.avoiding(boards.symmetric_full_placements(shape), [(3, 2, 1)])
    domain = boards.avoiding(pool, [(2, 1)], columns=range(1, 3))
    moved = next(q for p in domain if (q := slide.slide_transform(p, 1, 2)) != p)
    real = slide.slide_inverse

    def slide_inverse(q, i, j):
        return q if (q, i, j) == (moved, 1, 2) else real(q, i, j)

    monkeypatch.setattr(slide, "slide_inverse", slide_inverse)
    failed = [r for r in checks.check_slide_bijection(5) if not r["pass"]]
    assert [r["params"] for r in failed] == ["shape=5,5,5,5,5 i=1 j=2"]
    assert failed[0]["lhs"] == failed[0]["rhs"]  # the counts agree; the round trip does not
    assert run(["verify", "--check", "slide", "--max-side", "5", "--no-timing"]) == 1
    assert "FAIL slide-bijection shape=5,5,5,5,5 i=1 j=2: " in capsys.readouterr().out


def test_reduced_boards_one_row_short_fail_both_sweeps(monkeypatch):
    # planted fault: every column of the marked region one box lower
    marked_heights = reduction._marked_heights
    monkeypatch.setattr(
        reduction, "_marked_heights", lambda p, t: [max(h - 1, 0) for h in marked_heights(p, t)]
    )
    records = checks.check_reduction_equivalence(5)
    assert (sum(not r["pass"] for r in records), len(records)) == (161, 1302)
    records = checks.check_class_decomposition(4)
    assert (sum(not r["pass"] for r in records), len(records)) == (12, 180)


def test_a_faulty_reduction_fails_the_sweeps_with_exit_1(monkeypatch, capsys):
    real = reduction.suffix_reduction
    identity = boards.graph_of((1, 2, 3))

    def suffix_reduction(mu, p, t):
        if p == identity:
            raise InvalidPlacementError("planted")
        return real(mu, p, t)

    monkeypatch.setattr(reduction, "suffix_reduction", suffix_reduction)
    error = "InvalidPlacementError: planted"
    for sweep in (checks.check_reduction_equivalence, checks.check_class_decomposition):
        failed = [r for r in sweep(3) if not r["pass"]]
        assert failed and all(r["rhs"] == error for r in failed)
        assert all(r["params"].startswith("mu=3,3,3 ") for r in failed)
    argv = ["verify", "--check", "reduction,decomposition", "--max-side", "3", "--no-timing"]
    assert run(argv) == 1
    out = capsys.readouterr().out
    assert f"FAIL reduction-equivalence mu=3,3,3 sigma=1 suffixes=[(2,)]: - vs {error}" in out
    assert f"FAIL class-decomposition mu=3,3,3 alpha=12 beta=21 suffixes=[(3,)]: - vs {error}" in out


def _evacuated_shapes(records):
    return [r["params"] for r in records if r["check"] == "evacuation-involution"]


def _box(side):
    shapes = [s for s in checks._partitions_in_box(side) if s]
    return [f"shape={boards.shape_to_text(s)}" for s in shapes]


def test_rsk_sweep():
    records = checks.check_rsk_properties(4)
    _all_pass(records)
    assert _evacuated_shapes(records) == _box(4)


def test_a_faulty_rsk_inverse_fails_the_sweep_with_exit_1(monkeypatch, capsys):
    # a library fault is a failing check, not bad input (exit 2)
    real = tableaux.rsk_inverse

    def rsk_inverse(p, q):
        word = real(p, q)
        return validate_perm((2, 2, 3)) if len(word) == 3 else word

    monkeypatch.setattr(tableaux, "rsk_inverse", rsk_inverse)
    error = "InvalidWordError: not a permutation of 1..3: (2, 2, 3)"
    failed = [r for r in checks.check_rsk_properties(3) if not r["pass"]]
    assert [r["check"] for r in failed] == [
        "rsk-round-trip", "rsk-injective", "rsk-involution-symmetry", "rsk-reversal"
    ]
    assert all(r["params"] == "n=3" and r["rhs"] == error for r in failed)
    assert run(["verify", "--check", "rsk", "--n-max", "3", "--no-timing"]) == 1
    assert f"FAIL rsk-round-trip n=3: - vs {error}" in capsys.readouterr().out


def test_a_faulty_evacuation_fails_the_sweep_with_exit_1(monkeypatch):
    def evacuation(q):
        raise InvalidTableauError("planted")

    monkeypatch.setattr(tableaux, "evacuation", evacuation)
    monkeypatch.setattr(tableaux, "check_reversal_property", lambda w: True)
    failed = [r for r in checks.check_rsk_properties(2) if not r["pass"]]
    assert [r["params"] for r in failed] == _box(2)
    assert all(r["rhs"] == "InvalidTableauError: planted" for r in failed)
    assert run(["verify", "--check", "rsk", "--n-max", "2", "--no-timing"]) == 1


def test_a_transposing_evacuation_fails_the_sweep_with_exit_1(monkeypatch):
    # transposing twice gives the tableau back, so only the shape test sees
    # this fault, on every shape that is not its own conjugate
    monkeypatch.setattr(tableaux, "evacuation", tableaux.transpose_tableau)
    failed = [r for r in checks.check_rsk_properties(3) if not r["pass"]]
    shapes = [s for s in checks._partitions_in_box(3) if s and not boards.is_self_conjugate(s)]
    assert _evacuated_shapes(failed) == [f"shape={boards.shape_to_text(s)}" for s in shapes]
    assert len(shapes) == 12  # 19 shapes in the box, 7 self-conjugate
    assert run(["verify", "--check", "rsk", "--n-max", "3", "--no-timing"]) == 1


@pytest.mark.parametrize("n_max", [0, 2, 3])
def test_rsk_sweep_evacuates_the_box_of_side_n_max(n_max):
    records = checks.check_rsk_properties(n_max)
    _all_pass(records)
    assert _evacuated_shapes(records) == _box(n_max)


def test_prefix_exchange_sweep():
    _all_pass(checks.check_prefix_exchange(4, 6))


def test_run_checks_dispatch():
    records = checks.run_checks(["extremes"])
    assert all(r["check"].startswith("unique-extreme") for r in records)
    with pytest.raises(InvalidInputError):
        checks.run_checks(["nope"])


def test_run_checks_validates_every_name_before_running(monkeypatch):
    ran = []
    monkeypatch.setattr(checks, "ALL_CHECKS", {"extremes": lambda: ran.append(1) or []})
    with pytest.raises(InvalidInputError, match="'nope'"):
        checks.run_checks(["extremes", "nope"])
    assert ran == []


def test_run_checks_refuses_a_repeated_name_before_running(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(checks, "ALL_CHECKS", {"extremes": lambda: ran.append(1) or []})
    with pytest.raises(InvalidInputError, match="'extremes' is named more than once"):
        checks.run_checks(["extremes", "extremes"])
    # through the CLI, the sweep would otherwise run twice and count double
    assert run(["verify", "--check", "extremes,extremes", "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "named more than once" in err
    assert ran == []


def test_run_checks_passes_each_sweep_only_the_limits_it_takes(monkeypatch):
    seen = []
    monkeypatch.setattr(
        checks,
        "ALL_CHECKS",
        {
            "side": lambda max_side=5: seen.append(("side", max_side)) or [],
            "pair": lambda k_max=5, n_max=8: seen.append(("pair", k_max, n_max)) or [],
        },
    )
    checks.run_checks(max_side=3, n_max=6)
    checks.run_checks(["pair"], k_max=4)
    assert seen == [("side", 3), ("pair", 5, 6), ("pair", 4, 8)]


@pytest.mark.parametrize(
    "names, limits",
    [
        (["side"], {"n_max": 6}),
        (["side"], {"max_side": 3, "k_max": 4}),
        (["pair"], {"max_side": 3}),
    ],
)
def test_run_checks_refuses_a_limit_no_chosen_sweep_takes(monkeypatch, names, limits):
    ran = []
    monkeypatch.setattr(
        checks,
        "ALL_CHECKS",
        {
            "side": lambda max_side=5: ran.append("side") or [],
            "pair": lambda k_max=5, n_max=8: ran.append("pair") or [],
        },
    )
    with pytest.raises(InvalidInputError, match="taken by none of the chosen checks"):
        checks.run_checks(names, **limits)
    assert ran == []


def test_record_shape():
    for record in checks.check_column_constraint_square(3):
        assert set(record) == {"check", "params", "lhs", "rhs", "pass"}


# -- planted faults: each sweep must fail on a library that is wrong ---------


def _drop_each_shapes_last_full_placement(monkeypatch):
    real = boards.enumerate_full_placements
    monkeypatch.setattr(boards, "enumerate_full_placements", lambda shape: [*real(shape)][:-1])


def _left_flank_one_column_short(monkeypatch):
    real = checks.count_avoiders_with_column_constraint

    def count(n, main, flank, side, i):
        return real(n, main, flank, side, max(i - 1, 0) if side == "left" else i)

    monkeypatch.setattr(checks, "count_avoiders_with_column_constraint", count)


def _321_top_row_dot_not_mirrored(monkeypatch):
    real = slide.top_row_dot_count

    def count(shape, pattern, i):
        return real(shape, pattern, shape[-1] + 1 - i if pattern == "321" else i)

    monkeypatch.setattr(slide, "top_row_dot_count", count)


def _321_flank_one_column_left(monkeypatch):
    real = slide.flank_avoiding_count

    def count(shape, pattern, i):
        if pattern == "123":
            return real(shape, pattern, i)
        narrow = shape[-1] if shape else 0
        pool = boards.avoiding(boards.symmetric_full_placements(shape), [(3, 2, 1)])
        return len(boards.avoiding(pool, [(2, 1)], columns=range(narrow - i, narrow)))

    monkeypatch.setattr(slide, "flank_avoiding_count", count)


def _one_more_avoider_of_a_pattern_starting_with_1(monkeypatch):
    real = classify.count_avoiders

    def count(n, patterns, store=None):
        (sigma,) = patterns
        return real(n, patterns, store) + (sigma[0] == 1 and n > len(sigma) + 1)

    monkeypatch.setattr(classify, "count_avoiders", count)


# sweep -> (fault, limits, failing records and all records under the fault)
PLANTED = {
    "extremes": (_drop_each_shapes_last_full_placement, {"max_side": 5}, (59, 200)),
    "columns": (_left_flank_one_column_short, {"n_max": 7}, (42, 70)),
    "toprow": (_321_top_row_dot_not_mirrored, {"max_side": 6}, (30, 100)),
    "recurrences": (_321_flank_one_column_left, {"max_side": 6}, (41, 284)),
    "prefix": (_one_more_avoider_of_a_pattern_starting_with_1, {"k_max": 4, "n_max": 7}, (4, 4)),
}


@pytest.mark.parametrize("name", list(PLANTED))
def test_a_planted_fault_fails_the_sweep_with_exit_1(monkeypatch, name):
    plant, limits, want = PLANTED[name]
    _all_pass(checks.ALL_CHECKS[name](**limits))
    plant(monkeypatch)
    records = checks.ALL_CHECKS[name](**limits)
    assert (sum(not r["pass"] for r in records), len(records)) == want
    options = [f"--{limit.replace('_', '-')}={value}" for limit, value in limits.items()]
    assert run(["verify", "--check", name, *options, "--no-timing"]) == 1


def _raise_planted(*args):
    raise InvalidInputError("planted")


def _no_full_placements_on_four_rows(monkeypatch):
    real = boards.enumerate_full_placements

    def full(shape):
        return _raise_planted() if len(shape) == 4 else real(shape)

    monkeypatch.setattr(boards, "enumerate_full_placements", full)


def _no_right_flank_over_the_whole_square(monkeypatch):
    real = checks.count_avoiders_with_column_constraint

    def count(n, main, flank, side, i):
        return _raise_planted() if side == "right" and i == n else real(n, main, flank, side, i)

    monkeypatch.setattr(checks, "count_avoiders_with_column_constraint", count)


def _no_321_top_row_dot_in_the_last_column(monkeypatch):
    real = slide.top_row_dot_count

    def count(shape, pattern, i):
        return _raise_planted() if pattern == "321" and i == shape[-1] else real(shape, pattern, i)

    monkeypatch.setattr(slide, "top_row_dot_count", count)


def _inner_shape_trimmed_twice(monkeypatch):
    # the twice-trimmed board is empty, square or too narrow for the
    # flank counts, which then raise on the sweep's own inputs
    real = slide.inner_shape
    monkeypatch.setattr(slide, "inner_shape", lambda shape: real(real(shape)))


def _no_count_of_123_at_5(monkeypatch):
    real = classify.count_avoiders

    def count(n, patterns, store=None):
        return _raise_planted() if n == 5 and patterns == [(1, 2, 3)] else real(n, patterns, store)

    monkeypatch.setattr(classify, "count_avoiders", count)


# sweep -> (fault raising a ValueError, limits, failing records and all
# records under the fault, records failed by the error, what their rhs starts with)
RAISING = {
    "extremes": (
        _no_full_placements_on_four_rows, {"max_side": 5}, (40, 200, 40),
        ("InvalidInputError: planted",),
    ),
    "columns": (
        _no_right_flank_over_the_whole_square, {"n_max": 7}, (14, 70, 14),
        ("InvalidInputError: planted",),
    ),
    "toprow": (
        _no_321_top_row_dot_in_the_last_column, {"max_side": 6}, (57, 100, 57),
        ("InvalidInputError: planted",),
    ),
    "recurrences": (
        _inner_shape_trimmed_twice, {"max_side": 6}, (207, 284, 151),
        ("InvalidShapeError: ", "InvalidInputError: i must be in 0.."),
    ),
    "prefix": (
        _no_count_of_123_at_5, {"k_max": 4, "n_max": 7}, (1, 4, 1),
        ("InvalidInputError: planted",),
    ),
}


@pytest.mark.parametrize("name", list(RAISING))
def test_a_library_error_fails_the_records_of_its_case_with_exit_1(monkeypatch, capsys, name):
    # a ValueError raised inside a sweep is a library fault, not bad input (exit 2)
    plant, limits, want, errors = RAISING[name]
    plant(monkeypatch)
    records = checks.ALL_CHECKS[name](**limits)
    failed = [r for r in records if not r["pass"]]
    errored = [r for r in failed if r["lhs"] == "-"]
    assert (len(failed), len(records), len(errored)) == want
    assert all(r["rhs"].startswith(errors) for r in errored)
    options = [f"--{limit.replace('_', '-')}={value}" for limit, value in limits.items()]
    assert run(["verify", "--check", name, *options, "--no-timing"]) == 1
    first = errored[0]
    line = f"FAIL {first['check']} {first['params']}: - vs {first['rhs']}\n"
    assert line in capsys.readouterr().out


def test_a_placement_error_on_one_board_fails_only_its_recurrence_records(monkeypatch, capsys):
    # which records a board gets is read off its shape, so an error from
    # the placements of (3, 2, 1) fails that board's five records and no more
    real = boards.symmetric_full_placements

    def placements(shape):
        if shape == (3, 2, 1):
            raise InvalidShapeError("planted")
        return real(shape)

    monkeypatch.setattr(boards, "symmetric_full_placements", placements)
    records = checks.check_flank_recurrences(4)
    failed = [r for r in records if not r["pass"]]
    assert (len(failed), len(records)) == (5, 58)
    assert all(r["rhs"] == "InvalidShapeError: planted" for r in failed)
    assert all(r["params"].startswith("shape=3,2,1") for r in failed)
    assert run(["verify", "--check", "recurrences", "--max-side", "4", "--no-timing"]) == 1
    out = capsys.readouterr().out
    assert "FAIL flank-trivial-at-one shape=3,2,1: - vs InvalidShapeError: planted\n" in out
    assert out.endswith("53/58 checks passed\n")


def test_the_prefix_limits_are_refused_before_any_count(monkeypatch):
    counted = []
    monkeypatch.setattr(classify, "count_avoiders", lambda *args: counted.append(args))
    # 3 is above the prefix 12 but not above 123; 9 is above n_max = 8
    for k_max in (3, 9):
        with pytest.raises(InvalidInputError):
            checks.run_checks(["prefix"], k_max=k_max)
    assert counted == []


def test_a_size_past_the_involution_store_is_refused_before_any_count(monkeypatch, capsys):
    def refuse(what):
        @functools.wraps(what)  # run_checks reads a sweep's parameters
        def count_nothing(*args, **kwargs):
            raise AssertionError(f"{what.__name__} ran before n was checked")

        return count_nothing

    monkeypatch.setattr(avoidance, "_avoider_counts", refuse(avoidance._avoider_counts))
    monkeypatch.setattr(avoidance, "monotone_count", refuse(avoidance.monotone_count))
    for name, sweep in checks.ALL_CHECKS.items():
        monkeypatch.setitem(checks.ALL_CHECKS, name, refuse(sweep))
    calls = [
        lambda: classify.classify_sk(5, 14),
        lambda: classify.scan_conjectures(14),
        lambda: checks.run_checks(["columns"], n_max=14),
        lambda: checks.run_checks(["prefix"], n_max=14),
        lambda: checks.run_checks(n_max=14),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="limit of 13"):
            call()
    commands = [
        ["classify", "--k", "5", "--n-max", "14"],
        ["verify", "--check", "columns", "--n-max", "14"],
        ["verify", "--check", "prefix", "--n-max", "14"],
        ["scan", "--n-max", "14"],
    ]
    for command in commands:
        assert run([*command, "--no-timing"]) == 2, command
        assert "limit of 13" in capsys.readouterr().err


def test_an_rsk_sweep_past_s_9_is_refused_before_any_sweep(monkeypatch, capsys):
    # the sweep lists all n! words for each n up to n_max: S_12 would take days
    def refuse(what):
        @functools.wraps(what)  # run_checks reads a sweep's parameters
        def sweep_nothing(*args, **kwargs):
            raise AssertionError(f"{what.__name__} ran before n_max was checked")

        return sweep_nothing

    for name, sweep in checks.ALL_CHECKS.items():
        monkeypatch.setitem(checks.ALL_CHECKS, name, refuse(sweep))
    for names in (["rsk"], ["columns", "rsk"], None):
        with pytest.raises(InvalidInputError, match="rsk sweep's limit of 9"):
            checks.run_checks(names, n_max=10)
    assert run(["verify", "--check", "rsk", "--n-max", "12", "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "rsk sweep's limit of 9" in err
    # a sweep that does not walk S_n takes the same n_max
    with pytest.raises(AssertionError, match="ran before"):
        checks.run_checks(["columns"], n_max=10)


# each sweep's planted-fault controls
CONTROLS = {
    **dict.fromkeys(PLANTED, test_a_planted_fault_fails_the_sweep_with_exit_1),
    "reduction": test_reduced_boards_one_row_short_fail_both_sweeps,
    "decomposition": test_reduced_boards_one_row_short_fail_both_sweeps,
    "slide": test_a_faulty_slide_fails_the_sweep_with_exit_1,
    "rsk": test_a_faulty_rsk_inverse_fails_the_sweep_with_exit_1,
}


def test_every_sweep_has_a_planted_fault_control():
    assert sorted(CONTROLS) == sorted(checks.ALL_CHECKS)
