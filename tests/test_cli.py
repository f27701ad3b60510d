"""Exit codes, output formats, and determinism of the command line."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invpat import checks
from invpat.cli import parse_patterns, run
from invpat.errors import InvalidInputError


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_parse_patterns():
    assert parse_patterns("1234,4321") == [(1, 2, 3, 4), (4, 3, 2, 1)]
    long = "[10,2,3,4,5,6,7,8,9,1],123"
    assert parse_patterns(long) == [(10, 2, 3, 4, 5, 6, 7, 8, 9, 1), (1, 2, 3)]
    with pytest.raises(InvalidInputError):
        parse_patterns("12,[34")
    with pytest.raises(InvalidInputError):
        parse_patterns("12,,21")


def test_count_text(capsys):
    assert run(["count", "--n", "7", "--patterns", "1234", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert out == "127\n"


@pytest.mark.parametrize("down", [False, True])
def test_count_takes_a_monotone_pattern_of_twelve_hundred(capsys, down):
    # longer than any involution of [11], so all 35,696 avoid it
    values = range(1200, 0, -1) if down else range(1, 1201)
    pattern = "[" + ",".join(map(str, values)) + "]"
    assert run(["count", "--n", "11", "--patterns", pattern, "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert out == "35696\n"


def test_count_json_schema(capsys):
    assert run(
        ["count", "--n", "6", "--patterns", "123", "--format", "json", "--no-timing"]
    ) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert set(payload) == {"command", "params", "results", "version"}
    assert payload["command"] == "count"
    assert payload["results"][0]["count"] == 20


def test_json_timing_field_is_optional(capsys):
    assert run(["count", "--n", "4", "--patterns", "12", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    assert "seconds" in json.loads(out)


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["classify", "--k", "3", "--n-max", "6", "--format", "json", "--no-timing"]
    assert run(argv) == 0
    first, _ = out_of(capsys)
    assert run(argv) == 0
    second, _ = out_of(capsys)
    assert first == second


def test_usage_errors_exit_two(capsys):
    assert run(["count", "--n", "7"]) == 2  # missing --patterns
    assert run(["count", "--n", "7", "--patterns", "1234", "--bogus"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["count", "--n", "7", "--patterns", "7781"]) == 2
    assert run(["slide", "--perm", "321", "--i", "1", "--j", "1"]) == 2
    assert run(["table", "--id", "T1", "--check"]) == 2  # the flag is gone


def test_count_past_the_involution_list_limit_is_refused(capsys):
    # the limit is checked before any involution is built
    assert run(["count", "--n", "16", "--patterns", "12", "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert "limit of 13" in err


@pytest.mark.parametrize("patterns", ["1234", "4321", "123456,4321", "1324"])
def test_a_count_at_n_14_is_refused_whether_or_not_its_set_is_monotone(capsys, patterns):
    # a monotone set is counted over partitions, which could reach n = 14,
    # but keeps the limit of every other set
    assert run(["count", "--n", "14", "--patterns", patterns, "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert "limit of 13" in err


def test_shapes_and_placements(capsys):
    assert run(["shapes", "--max-side", "2", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines() == ["-", "1", "2,1", "2,2"]
    assert run(
        ["placements", "--shape", "3,3,2", "--avoid", "123", "--count-only", "--no-timing"]
    ) == 0
    out, _ = out_of(capsys)
    assert out == "2\n"


def test_rsk_round_trip_via_cli(capsys):
    assert run(["rsk", "--perm", "312", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert "insertion: 1,2/3" in out
    assert run(["rsk", "--p", "1,2/3", "--q", "1,3/2", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert out == "312\n"


def test_empty_rsk_inputs_are_read_not_taken_as_absent(capsys):
    assert run(["rsk", "--perm", "", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert out == "insertion: \nrecording: \nevacuation: \n"
    assert run(["rsk", "--p", "", "--q", "", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert out == "\n"  # the empty word
    # both tableaux are given, so their shapes are compared
    assert run(["rsk", "--p", "1", "--q", "", "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == "" and "tableaux have different shapes" in err


@pytest.mark.parametrize("text", ["1,2/", "1,,2/3", "1,x/2"])
def test_bad_tableau_text_is_named(capsys, text):
    assert run(["rsk", "--p", text, "--q", "1,3/2", "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert f"tableau text {text!r}" in err and "invalid literal" not in err


# Each text form typed wrong, and the text that its error must name.
SLIDE = ["--i", "1", "--j", "1"]
REDUCE = ["reduce", "--perm", "12", "--prefix-length", "1"]
MALFORMED = {
    "perm": (["rsk", "--perm", "31a"], "31a"),
    "patterns": (["count", "--n", "5", "--patterns", "12,3a"], "12,3a"),
    "patterns-nested": (["count", "--n", "5", "--patterns", "[[1,2]]"], "[[1,2]]"),
    # integers, but one item is no permutation
    "patterns-not-perm": (["count", "--n", "5", "--patterns", "12,13"], "12,13"),
    "patterns-repeat": (["count", "--n", "5", "--patterns", "[1,2],[2,2]"], "[1,2],[2,2]"),
    "avoid": (["placements", "--shape", "2,2", "--avoid", "2x1"], "2x1"),
    # an empty value is read, and refused, like any other
    "avoid-empty": (["placements", "--shape", "2,2", "--avoid", ""], ""),
    "check-empty": (["verify", "--check", ""], ""),
    "prefix": ([*REDUCE, "--suffixes", "2", "--prefix", "1a"], "1a"),
    "suffixes": ([*REDUCE, "--suffixes", "2|5x4"], "2|5x4"),
    "shape": (["placements", "--shape", "3,a"], "3,a"),
    "placement-shape": (["slide", "--placement", "3,a;1,1", *SLIDE], "3,a"),
    "placement-dot": (["slide", "--placement", "3,3,3;1,a", *SLIDE], "3,3,3;1,a"),
    "placement-half-dot": (["slide", "--placement", "3,3,3;1", *SLIDE], "3,3,3;1"),
    "placement-long-dot": (["slide", "--placement", "2,2;1,1,1", *SLIDE], "2,2;1,1,1"),
    "p": (["rsk", "--p", "1,a/2", "--q", "1,2/3"], "1,a/2"),
    "q": (["rsk", "--p", "1,2/3", "--q", "1,3/2/"], "1,3/2/"),
}


@pytest.mark.parametrize("form", sorted(MALFORMED))
def test_malformed_text_is_refused_by_name(form, capsys):
    argv, named = MALFORMED[form]
    assert run([*argv, "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert repr(named) in err
    assert "invalid literal" not in err and "unpack" not in err
    assert "unbalanced" not in err  # nested brackets have a message of their own


@pytest.mark.parametrize(
    "argv",
    [
        [*REDUCE, "--placement", "2,2;1,1 2,2", "--suffixes", "2"],
        ["slide", "--perm", "12", "--placement", "2,2;1,1 2,2", *SLIDE],
        ["slide", *SLIDE],
        ["rsk", "--perm", "312", "--p", "1,2/3", "--q", "1,3/2"],
        ["rsk", "--perm", "312", "--p", "", "--q", ""],
        ["rsk", "--perm", "312", "--q", "1,3/2"],
        ["rsk", "--p", "1,2/3"],
        ["rsk"],
    ],
    ids=[
        "reduce-both",
        "slide-both",
        "slide-neither",
        "rsk-all",
        "rsk-all-empty",
        "rsk-perm-q",
        "rsk-p",
        "rsk",
    ],
)
def test_conflicting_or_missing_inputs_are_refused(argv, capsys):
    # one of --perm and --placement (or --p with --q) is read; the other
    # is never dropped silently
    assert run([*argv, "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == "" and "--perm" in err


def test_an_empty_prefix_is_checked_not_skipped(capsys):
    assert run([*REDUCE, "--suffixes", "2", "--prefix", "", "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == "" and "prefix must be an involution of length 1" in err


def test_a_closed_stdout_ends_the_run_without_a_traceback():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    # the 5,040 placements print about 200 KB, more than a pipe holds, so
    # the run is still writing when the reader goes away
    argv = ["placements", "--shape", "7,7,7,7,7,7,7", "--all", "--no-timing"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "invpat", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"7,7,7,7,7,7,7;1,1 2,2 3,3 4,4 5,5 6,6 7,7\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert err == b""


def test_reduce_command(capsys):
    assert run(
        [
            "reduce",
            "--perm",
            "127965384",
            "--prefix-length",
            "3",
            "--suffixes",
            "54",
            "--prefix",
            "123",
            "--no-timing",
        ]
    ) == 0
    out, _ = out_of(capsys)
    assert "shape: 4,4,4,3" in out
    assert "equivalent for prefix 123: True" in out


def test_slide_command_with_trace(capsys):
    assert run(
        ["slide", "--perm", "1324", "--i", "1", "--j", "2", "--trace", "--no-timing"]
    ) == 0
    out, _ = out_of(capsys)
    assert "case: V" in out
    assert run(
        [
            "slide",
            "--placement",
            "4,4,4,4;1,2 2,1 3,3 4,4",
            "--i",
            "1",
            "--j",
            "2",
            "--inverse",
            "--no-timing",
        ]
    ) == 0
    out, _ = out_of(capsys)
    # inverse of the traced slide lands back on the original graph
    assert out.splitlines()[0] == "4,4,4,4;1,1 2,3 3,2 4,4"


def test_a_placement_typed_with_a_dot_twice_holds_it_once(capsys):
    argv = ["--placement", "4,4,4,4;1,2 2,1 3,3 4,4 2,1", "--i", "1", "--j", "2", "--no-timing"]
    assert run(["slide", *argv, "--inverse"]) == 0
    assert out_of(capsys)[0].splitlines()[0] == "4,4,4,4;1,1 2,3 3,2 4,4"
    argv = ["--suffixes", "3", "--prefix-length", "2", "--prefix", "21", "--no-timing"]
    assert run(["reduce", "--placement", "4,4,4,4;1,2 2,1 3,4 4,3 1,2", *argv]) == 0
    assert out_of(capsys)[0].splitlines()[:2] == ["shape: 2,2", "induced: 2,2;1,2 2,1"]


def test_table_csv_header(capsys):
    assert run(["table", "--id", "T1", "--format", "csv", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    lines = out.splitlines()
    assert lines[0] == "class,n,count"
    assert "1324,7,126" in lines
    # 13 classes x 7 values of n
    assert len(lines) == 1 + 13 * 7


def test_csv_rejected_where_meaningless(capsys):
    assert run(["shapes", "--max-side", "2", "--format", "csv", "--no-timing"]) == 2


# The smallest valid invocation of each subcommand.
MINIMAL = {
    "count": ["--n", "3", "--patterns", "12"],
    "shapes": ["--max-side", "2"],
    "placements": ["--shape", "2,2"],
    "rsk": ["--perm", "21"],
    "reduce": ["--perm", "12", "--prefix-length", "1", "--suffixes", "2"],
    "slide": ["--perm", "12", "--i", "1", "--j", "1"],
    "classify": ["--k", "3", "--n-max", "4"],
    "table": ["--id", "T1"],
    "verify": ["--check", "extremes", "--max-side", "2"],
    "scan": ["--n-max", "7", "--shape-side", "2", "--k-max", "2"],
}

# Each option, and the subcommands that read it.
OPTIONS = {
    "none": ([], set(MINIMAL)),
    "json": (["--format", "json"], set(MINIMAL)),
    "csv": (["--format", "csv"], {"count", "classify", "table"}),
    "cache": (["--cache", "STORE"], {"count", "classify", "table"}),
    "jobs": (["--jobs", "1"], {"classify", "table"}),
}


@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_each_option_is_taken_only_where_it_is_read(command, option, tmp_path, capsys):
    extra, readers = OPTIONS[option]
    extra = [str(tmp_path / "store") if arg == "STORE" else arg for arg in extra]
    code = run([command, *MINIMAL[command], *extra, "--no-timing"])
    out, err = out_of(capsys)
    if command in readers:
        assert code == 0 and out
    else:
        assert code == 2 and out == ""
        assert err.startswith(f"usage: invpat {command} ")


def test_a_refused_option_is_reported_by_its_subcommand(capsys):
    assert run(["shapes", "--max-side", "2", "--jobs", "4"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("usage: invpat shapes [-h] ")
    assert err.endswith("invpat shapes: error: unrecognized arguments: --jobs 4\n")


@pytest.mark.parametrize("first", ["--jobs", "--jobs=4"])
def test_an_option_before_the_subcommand_is_named(first, capsys):
    argv = [first, *(["4"] if first == "--jobs" else []), "shapes", "--max-side", "2"]
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("usage: invpat ")
    assert err.endswith(
        "invpat: error: --jobs is placed before the subcommand shapes;"
        " options go after it\n"
    )


def test_verify_csv_is_refused_before_any_sweep(monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(checks, "run_checks", no_sweep)
    assert run(["verify", "--format", "csv"]) == 2
    out, err = out_of(capsys)
    assert out == "" and "invalid choice: 'csv'" in err


def test_verify_subset(capsys):
    assert run(["verify", "--check", "toprow", "--max-side", "4", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert "FAIL" not in out
    assert run(["verify", "--check", "bogus", "--no-timing"]) == 2
    # toprow takes only --max-side; other limits are refused, not dropped
    for limit in ("--n-max", "--k-max"):
        assert run(["verify", "--check", "toprow", limit, "99", "--no-timing"]) == 2
        out, err = out_of(capsys)
        assert out == "" and "taken by none of the chosen checks" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", "extremes", "--max-side", "-1"], "max_side must be >= 0"),
        (["--check", "rsk", "--n-max", "-1"], "n_max must be >= 0"),
        (["--check", "columns", "--n-max", "-1"], "n_max must be >= 0"),
        # without the check, 38! orderings of the suffix entries
        (["--check", "prefix", "--k-max", "40"], "k_max 40 exceeds n_max 8"),
    ],
)
def test_verify_refuses_a_bad_limit_before_any_sweep(capsys, argv, message):
    assert run(["verify", *argv, "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == "" and message in err


def test_scan_exits_zero(capsys):
    assert run(
        ["scan", "--n-max", "7", "--shape-side", "3", "--k-max", "2", "--no-timing"]
    ) == 0
    out, _ = out_of(capsys)
    assert "square-pair" in out and "board-pair" in out


def test_cache_flag(tmp_path, capsys):
    path = tmp_path / "memo.json"
    argv = ["count", "--n", "6", "--patterns", "1234", "--cache", str(path), "--no-timing"]
    assert run(argv) == 0
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"format": "invpat-counts", "version": 1},
        ["1234|6", 51],
    ]
    assert run(argv) == 0  # served from the store, which writes nothing
    out, _ = out_of(capsys)
    assert out.endswith("51\n")
    assert path.read_text().splitlines() == lines


@pytest.mark.parametrize(
    "jobs, message", [("0", "at least 1"), ("-2", "at least 1"), ("two", "not an integer")]
)
def test_bad_jobs_is_a_usage_error(capsys, jobs, message):
    argv = ["classify", "--k", "3", "--n-max", "5", "--jobs", jobs, "--no-timing"]
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert "--jobs" in err and message in err


@pytest.mark.parametrize("command", ["classify --k 3 --n-max 7", "table --id T1"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_jobs_with_a_store_counts_in_one_process_and_says_so(
    tmp_path, capsys, monkeypatch, command, source
):
    argv = command.split() + ["--no-timing"]
    assert run(argv + ["--jobs", "1"]) == 0
    serial, _ = out_of(capsys)
    path = tmp_path / "counts.store"
    if source == "flag":
        argv += ["--cache", str(path)]
    else:
        monkeypatch.setenv("INVPAT_CACHE", str(path))
    assert run(argv + ["--jobs", "3"]) == 0
    out, err = out_of(capsys)
    assert out == serial
    assert err == "note: --jobs 3 is ignored with a count store; counting in one process\n"
    assert run(argv + ["--jobs", "1"]) == 0  # one worker asked for, nothing to say
    assert out_of(capsys) == (serial, "")


def test_an_empty_cache_is_refused_not_read_as_unset(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.store"
    monkeypatch.setenv("INVPAT_CACHE", str(path))
    assert run(["count", "--n", "3", "--patterns", "12", "--cache", "", "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == "" and "--cache ''" in err
    assert not path.exists()


def test_store_path_that_is_a_directory_is_refused(tmp_path, capsys):
    argv = ["count", "--n", "3", "--patterns", "12", "--cache", str(tmp_path), "--no-timing"]
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert str(tmp_path) in err and "is a directory" in err
    assert "Traceback" not in err


def test_store_path_in_a_missing_directory_is_refused(tmp_path, capsys, monkeypatch):
    from invpat import avoidance

    def count_nothing(*args):
        raise AssertionError("counted before the store path was checked")

    monkeypatch.setattr(avoidance, "_avoider_counts", count_nothing)
    monkeypatch.setattr(avoidance, "monotone_count", count_nothing)  # 12 is monotone
    path = tmp_path / "nodir" / "x.store"
    argv = ["count", "--n", "3", "--patterns", "12", "--cache", str(path), "--no-timing"]
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert str(path) in err and "no directory" in err
    assert not path.parent.exists()


def test_store_that_cannot_be_written_is_named(tmp_path, capsys, monkeypatch):
    from invpat import avoidance

    path = tmp_path / "memo.json"

    def fail_open(file, mode="r", *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(file))

    monkeypatch.setattr(avoidance, "open", fail_open, raising=False)
    argv = ["count", "--n", "3", "--patterns", "12", "--cache", str(path), "--no-timing"]
    assert run(argv) == 2
    err = out_of(capsys)[1]
    assert f"cannot write count store {path}: Permission denied" in err
    path.write_text("")
    assert run(argv) == 2
    err = out_of(capsys)[1]
    assert f"cannot read count store {path}: Permission denied" in err


def test_corrupt_store_is_named(tmp_path, capsys):
    path = tmp_path / "memo.json"
    path.write_text("{")
    argv = ["count", "--n", "6", "--patterns", "1234", "--cache", str(path), "--no-timing"]
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert str(path) in err and "corrupt" in err
    assert "Expecting" not in err
    path.write_text('{"1234|6": "many"}')  # a count that is not an integer
    assert run(argv) == 2
    assert str(path) in out_of(capsys)[1]
