"""Exit codes, output formats, and determinism of the command line."""
import json

import pytest

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


@pytest.mark.parametrize("text", ["1,2/", "1,,2/3", "1,x/2"])
def test_bad_tableau_text_is_named(capsys, text):
    assert run(["rsk", "--p", text, "--q", "1,3/2", "--no-timing"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert f"tableau text {text!r}" in err and "invalid literal" not in err


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


def test_verify_subset(capsys):
    assert run(["verify", "--check", "toprow", "--max-side", "4", "--no-timing"]) == 0
    out, _ = out_of(capsys)
    assert "FAIL" not in out
    assert run(["verify", "--check", "bogus", "--no-timing"]) == 2


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
