"""Command-line surface for counting, board enumeration, and verification.

Every subcommand is deterministic for a fixed invocation; timing output is
optional and suppressed by --no-timing so byte-identical runs are possible.
Exit codes: 0 success, 1 computation mismatch or failed check, 2 usage or
input error.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
import time

from . import __version__, boards, checks, classify, reduction, slide, tableaux
from .avoidance import CountStore, count_avoiders, pattern_set_key
from .errors import InvalidInputError, InvalidWordError, TableMismatchError
from .perms import _ints, perm_from_text, perm_to_text, validate_perm

CACHE_ENV = "INVPAT_CACHE"


def parse_patterns(text: str) -> list[tuple[int, ...]]:
    """Comma-separated digit strings; bracketed comma lists for length >= 10.

    '1234,4321' and '[10,2,3,4,5,6,7,8,9,1],123' are both accepted.
    """
    out = []
    # a comma inside brackets is followed by a ']' before any '['
    for item in re.split(r",(?![^[]*\])", text):
        item = item.strip()
        if not item:
            raise InvalidInputError(f"empty pattern in {text!r}")
        if item.startswith("[") and item.endswith("]"):
            item = item[1:-1]
            if "[" in item:
                raise InvalidInputError(f"nested brackets in {text!r}: one pair holds one pattern")
        if "[" in item or "]" in item:
            raise InvalidInputError(f"unbalanced brackets in {text!r}")
        try:
            out.append(validate_perm(_ints(item, "patterns", text, digits=True)))
        except InvalidWordError as e:  # integers, but no permutation
            raise InvalidInputError(f"patterns text {text!r}: {e}") from None
    return out


def _parse_suffixes(text: str, j: int) -> reduction.SuffixSet:
    suffixes = [_ints(token, "suffix set", text, digits=True) for token in text.split("|")]
    return reduction.suffix_set(j, suffixes)


def _placement_arg(args) -> boards.Placement:
    if args.perm is not None:
        return boards.graph_of(perm_from_text(args.perm))
    return boards.placement_from_text(args.placement)


def _store(args) -> CountStore | None:
    if args.cache == "":  # not read as unset, which would fall back on the environment
        raise InvalidInputError("--cache '' names no file; give a path or leave out --cache")
    path = args.cache or os.environ.get(CACHE_ENV)
    store = CountStore(path) if path else None
    # classify and table count in this process whenever a store is given,
    # whatever --jobs says; a run that asked for workers is told so
    if store is not None and getattr(args, "jobs", 1) > 1:
        note = f"--jobs {args.jobs} is ignored with a count store; counting in one process"
        print(f"note: {note}", file=sys.stderr)
    return store


# -- subcommand handlers -----------------------------------------------------
# Each returns (params, results, text_lines, csv_rows); csv_rows is None for
# the commands whose --format has no csv choice.


def cmd_count(args):
    patterns = parse_patterns(args.patterns)
    value = count_avoiders(args.n, patterns, store=_store(args))
    key = pattern_set_key(frozenset(patterns))
    params = {"n": args.n, "patterns": key}
    results = [{"n": args.n, "patterns": key, "count": value}]
    return params, results, [str(value)], [(key, args.n, value)]


def cmd_shapes(args):
    shapes = sorted(boards.enumerate_self_conjugate_shapes(args.max_side))
    params = {"max_side": args.max_side}
    results = [{"shape": boards.shape_to_text(s), "boxes": sum(s)} for s in shapes]
    lines = [boards.shape_to_text(s) for s in shapes]
    return params, results, lines, None


def cmd_placements(args):
    shape = boards.shape_from_text(args.shape)
    if args.all:
        pool = boards.enumerate_full_placements(shape)
    else:
        pool = boards.enumerate_symmetric_full_placements(shape)
    avoid = parse_patterns(args.avoid) if args.avoid is not None else []
    found = boards.avoiding(pool, avoid)
    found.sort(key=lambda p: p.dots)
    params = {
        "shape": boards.shape_to_text(shape),
        "symmetric": not args.all,
        "avoid": [perm_to_text(s) for s in avoid],
    }
    results = [{"placement": boards.placement_to_text(p)} for p in found]
    results.append({"count": len(found)})
    if args.count_only:
        return params, [{"count": len(found)}], [str(len(found))], None
    lines = [boards.placement_to_text(p) for p in found] + [f"count: {len(found)}"]
    return params, results, lines, None


def cmd_rsk(args):
    if (args.p is None) != (args.q is None) or (args.perm is None) == (args.p is None):
        raise InvalidInputError("provide --perm, or --p with --q, but not both")
    if args.p is not None:
        p = tableaux.tableau_from_text(args.p)
        q = tableaux.tableau_from_text(args.q)
        word = tableaux.rsk_inverse(p, q)
        params = {"p": args.p, "q": args.q}
        results = [{"word": perm_to_text(word)}]
        return params, results, [perm_to_text(word)], None
    w = perm_from_text(args.perm)
    p, q = tableaux.rsk(w)
    ev = tableaux.evacuation(q)
    params = {"perm": args.perm}
    results = [
        {
            "insertion": tableaux.tableau_to_text(p),
            "recording": tableaux.tableau_to_text(q),
            "evacuation": tableaux.tableau_to_text(ev),
            "reversal_property": tableaux.check_reversal_property(w),
        }
    ]
    lines = [
        f"insertion: {tableaux.tableau_to_text(p)}",
        f"recording: {tableaux.tableau_to_text(q)}",
        f"evacuation: {tableaux.tableau_to_text(ev)}",
    ]
    return params, results, lines, None


def cmd_reduce(args):
    p = _placement_arg(args)
    t = _parse_suffixes(args.suffixes, args.prefix_length)
    rb = reduction.suffix_reduction(p.shape, p, t)
    params = {
        "placement": boards.placement_to_text(p),
        "prefix_length": args.prefix_length,
        "suffixes": sorted(perm_to_text(s) for s in t.suffixes),
    }
    result = {
        "shape": boards.shape_to_text(rb.shape),
        "induced": boards.placement_to_text(rb.induced),
        "kept_columns": list(rb.kept_columns),
        "kept_rows": list(rb.kept_rows),
    }
    lines = [
        f"shape: {result['shape']}",
        f"induced: {result['induced']}",
        f"kept columns: {','.join(str(c) for c in rb.kept_columns) or '-'}",
        f"kept rows: {','.join(str(r) for r in rb.kept_rows) or '-'}",
    ]
    if args.prefix is not None:
        sigma = perm_from_text(args.prefix)
        patterns = t.patterns_with_prefix(sigma)
        ok = reduction.verify_reduction_equivalence(p, rb, sigma, patterns)
        result["prefix"] = args.prefix
        result["equivalent"] = ok
        lines.append(f"equivalent for prefix {args.prefix}: {ok}")
    return params, [result], lines, None


def cmd_slide(args):
    p = _placement_arg(args)
    params = {
        "placement": boards.placement_to_text(p),
        "i": args.i,
        "j": args.j,
        "inverse": args.inverse,
    }
    if args.inverse:
        out, moves = slide.slide_inverse_with_trace(p, args.i, args.j)
        case = None
    else:
        ctx = slide.slide_context(p, args.i, args.j)
        case = slide.classify_slide_case(ctx)
        out, moves = slide.slide_transform_with_trace(p, args.i, args.j)
    result = {"placement": boards.placement_to_text(out)}
    lines = [result["placement"]]
    if case is not None:
        result["case"] = case
        lines.append(f"case: {case}")
    if args.trace:
        result["moves"] = [
            {"from": list(src), "to": list(dst), "label": label}
            for src, dst, label in sorted(moves)
        ]
        for src, dst, label in sorted(moves):
            lines.append(f"{label}: {src[0]},{src[1]} -> {dst[0]},{dst[1]}")
    return params, [result], lines, None


def cmd_classify(args):
    report = classify.classify_sk(args.k, args.n_max, jobs=args.jobs, store=_store(args))
    params = {"k": args.k, "n_max": args.n_max}
    results = []
    lines = [f"n = {report.ns[0]}..{report.ns[-1]}"]
    csv_rows = []
    for counts, classes in report.groups:
        results.append(
            {
                "counts": list(counts),
                "classes": [list(cls) for cls in classes],
            }
        )
        label = " ".join("|".join(cls) for cls in classes)
        lines.append(f"{label}: {','.join(str(c) for c in counts)}")
        for cls in classes:
            for n, c in zip(report.ns, counts):
                csv_rows.append(("|".join(cls), n, c))
    return params, results, lines, csv_rows


def cmd_table(args):
    table = classify.reproduce_table(args.id, jobs=args.jobs, store=_store(args))
    params = {"id": args.id, "check": True}
    results = table["rows"]
    ns = table["ns"]
    lines = [table["title"], "n = " + ",".join(str(n) for n in ns)]
    csv_rows = []
    for row in table["rows"]:
        label = "|".join(row["class"])
        lines.append(f"{label}: {','.join(str(c) for c in row['counts'])}")
        for n, c in zip(ns, row["counts"]):
            csv_rows.append((label, n, c))
    lines.append("all cells match the stored table")
    return params, results, lines, csv_rows


def cmd_verify(args):
    names = args.check.split(",") if args.check is not None else None
    records = checks.run_checks(
        names, max_side=args.max_side, n_max=args.n_max, k_max=args.k_max
    )
    params = {"check": names or sorted(checks.ALL_CHECKS)}
    lines = []
    for rec in records:
        status = "PASS" if rec["pass"] else "FAIL"
        lines.append(
            f"{status} {rec['check']} {rec['params']}: {rec['lhs']} vs {rec['rhs']}"
        )
    failures = sum(1 for rec in records if not rec["pass"])
    lines.append(f"{len(records) - failures}/{len(records)} checks passed")
    ok = failures == 0
    return params, records, lines, None, ok


def cmd_scan(args):
    records = classify.scan_conjectures(
        args.n_max, shape_side=args.shape_side, k_max=args.k_max
    )
    params = {"n_max": args.n_max, "shape_side": args.shape_side, "k_max": args.k_max}
    lines = []
    for rec in records:
        tag = "equal" if rec["equal"] else "UNEQUAL"
        lines.append(f"{rec['kind']} {rec['pattern_a']} vs {rec['pattern_b']}: {tag}")
    return params, records, lines, None


def _worker_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invpat",
        description="Exact enumeration of pattern-avoiding involutions and "
        "symmetric rook placements on Ferrers boards.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the options its handler reads: csv and the
    # count store for the commands that print count cells, workers for the
    # two that count many cells.
    plain = argparse.ArgumentParser(add_help=False)
    tabular = argparse.ArgumentParser(add_help=False)
    for parent, formats in (
        (plain, ("text", "json")),
        (tabular, ("text", "json", "csv")),
    ):
        parent.add_argument("--format", choices=formats, default="text")
        parent.add_argument(
            "--no-timing", action="store_true", help="suppress timing output"
        )
    tabular.add_argument("--cache", help=f"memo store path (or ${CACHE_ENV})")
    pooled = argparse.ArgumentParser(add_help=False, parents=[tabular])
    placed = argparse.ArgumentParser(add_help=False, parents=[plain])
    source = placed.add_mutually_exclusive_group(required=True)
    source.add_argument("--perm", help="involution whose graph is the placement")
    source.add_argument("--placement", help="textual placement: shape;x,y x,y")
    pooled.add_argument(
        "--jobs", type=_worker_count, default=1, help="worker count (>= 1)"
    )

    s = subs.add_parser(
        "count", parents=[tabular], help="count involutions avoiding a pattern set"
    )
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--patterns", required=True)
    s.set_defaults(handler=cmd_count)

    s = subs.add_parser("shapes", parents=[plain], help="list self-conjugate shapes")
    s.add_argument("--max-side", type=int, required=True)
    s.set_defaults(handler=cmd_shapes)

    s = subs.add_parser(
        "placements", parents=[plain], help="enumerate full placements on a shape"
    )
    s.add_argument("--shape", required=True, help="parts, largest first: 3,3,2")
    s.add_argument("--all", action="store_true", help="all full, not just symmetric")
    s.add_argument("--avoid", help="patterns the placements must avoid")
    s.add_argument("--count-only", action="store_true")
    s.set_defaults(handler=cmd_placements)

    s = subs.add_parser(
        "rsk", parents=[plain], help="row insertion, its inverse, and evacuation"
    )
    s.add_argument("--perm", help="word to insert")
    s.add_argument("--p", help="insertion tableau, rows joined by '/'")
    s.add_argument("--q", help="recording tableau")
    s.set_defaults(handler=cmd_rsk)

    s = subs.add_parser(
        "reduce", parents=[placed], help="reduce a placement by a suffix set"
    )
    s.add_argument("--prefix-length", type=int, required=True)
    s.add_argument("--suffixes", required=True, help="orderings joined by '|': 45|54")
    s.add_argument("--prefix", help="also test prefix containment equivalence")
    s.set_defaults(handler=cmd_reduce)

    s = subs.add_parser(
        "slide", parents=[placed], help="shift a descent-free column window by one"
    )
    s.add_argument("--i", type=int, required=True)
    s.add_argument("--j", type=int, required=True)
    s.add_argument("--inverse", action="store_true")
    s.add_argument("--trace", action="store_true", help="list the dot moves")
    s.set_defaults(handler=cmd_slide)

    s = subs.add_parser(
        "classify", parents=[pooled], help="group S_k patterns by count vectors"
    )
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--n-max", type=int, required=True)
    s.set_defaults(handler=cmd_classify)

    s = subs.add_parser(
        "table", parents=[pooled], help="recompute a stored count table and compare"
    )
    s.add_argument("--id", required=True, choices=classify.TABLE_IDS)
    s.set_defaults(handler=cmd_table)

    s = subs.add_parser(
        "verify", parents=[plain], help="run exhaustive verification sweeps"
    )
    s.add_argument("--check", help="comma-separated sweep names; default all")
    s.add_argument("--max-side", type=int)
    s.add_argument("--n-max", type=int)
    s.add_argument("--k-max", type=int)
    s.set_defaults(handler=cmd_verify)

    s = subs.add_parser(
        "scan", parents=[plain], help="report (never assert) open equalities"
    )
    s.add_argument("--n-max", type=int, default=9)
    s.add_argument("--shape-side", type=int, default=5)
    s.add_argument("--k-max", type=int, default=4)
    s.set_defaults(handler=cmd_scan)

    # run() refuses an option the chosen subcommand lacks through its parser
    for sub in subs.choices.values():
        sub.set_defaults(parser=sub)
    parser.commands = subs.choices
    return parser


def run(argv) -> int:
    """Parse argv, execute, and print; returns the process exit code."""
    parser = build_parser()
    argv = list(argv)
    try:
        # the top-level parser takes only -h and --version (or a prefix of
        # them), and would read any other option's value as the subcommand
        option = argv[0].partition("=")[0] if argv else ""
        top = ("-h", "--help", "--version")
        if option.startswith("-") and not any(name.startswith(option) for name in top):
            command = next((arg for arg in argv if arg in parser.commands), None)
            where = f" {command}" if command else ""
            parser.error(f"{option} is placed before the subcommand{where}; options go after it")
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # reported with the subcommand's usage line, not the top one
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    start = time.perf_counter()
    try:
        outcome = args.handler(args)
    except TableMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    params, results, lines, csv_rows = outcome[:4]
    ok = outcome[4] if len(outcome) > 4 else True

    if args.format == "json":
        payload = {
            "command": args.command,
            "params": params,
            "results": results,
            "version": __version__,
        }
        if not args.no_timing:
            payload["seconds"] = round(elapsed, 3)
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("class,n,count")
        for label, n, count in csv_rows:
            print(f"{label},{n},{count}")
    else:
        for line in lines:
            print(line)
        if not args.no_timing:
            print(f"time: {elapsed:.3f}s", file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    # a closed stdout (invpat ... | head) ends the run quietly, not in a traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
