"""Command-line surface.

Subcommands:

* ``enumerate``  -- enumerate a ball, stream it as JSON lines or summarize it,
* ``series``     -- print the enumerated generating series (counting character
                    by default, or a sign character at a given q_o),
* ``expand``     -- print the truncated expansion of the closed product formula,
* ``check``      -- compare the enumerated series against the formula expansion,
* ``classify``   -- print distinction verdicts for the discrete-series
                    characters of a type (or of every supported type),
* ``tables``     -- dump the static tables for a type as versioned JSON.

Exit codes form a contract: 0 success, 1 usage or bad input, 2 resource cap
exceeded, 3 series identity mismatch, 4 verdict deviation under
``--expect-paper``.  All output is deterministic: rationals print exactly
(never as decimals) and orderings are fixed by the library's canonical
conventions.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from typing import IO

from . import __version__
from .cartan import (
    CartanType,
    build_affine_system,
    parse_cartan_type,
    tables_document,
)
from .closed_forms import calibrate_indexing, growth_closed_form
from .distinction import (
    classify,
    expected_distinguished,
    render_markdown_table,
    verdict_json_dict,
    VERDICT_SCHEMA_VERSION,
)
from .limits import ResourceLimitExceeded, element_cap
from .series import TruncatedSeries, term_order

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCES = 2
EXIT_MISMATCH = 3
EXIT_DEVIATION = 4

ALL_TYPES = [
    "A1", "A2", "A3", "B3", "B4", "C2", "C3", "C4", "D4", "E6", "E7", "E8", "F4", "G2",
]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _parse_type(label: str) -> CartanType:
    try:
        return parse_cartan_type(label)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_qo_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise _UsageError(f"cannot parse q_o list {text!r}") from exc
    if not values or any(q < 2 for q in values):
        raise _UsageError("q_o values must be integers >= 2")
    return values


def _check_sink(path: str | None) -> None:
    """Reject an output path that cannot be opened, without creating or truncating it."""
    if path is None or path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        return
    raise _UsageError(f"cannot open output {path!r}: {os.strerror(code)}")


@contextmanager
def _open_sink(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        try:
            fp = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot open output {path!r}: {exc.strerror}") from exc
        with fp:
            yield fp


def _series_json(series: TruncatedSeries) -> list:
    terms = sorted(series.coeffs, key=term_order)
    return [{"exponent": list(e), "coefficient": str(series.coeffs[e])} for e in terms]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .weyl import enumerate_ball

    ctype = _parse_type(args.type)
    system = build_affine_system(ctype)
    try:
        ball = enumerate_ball(system, args.degree, max_elements=args.cap)
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    with _open_sink(args.output) as fp:
        if args.format == "jsonl":
            ball.export_jsonl(fp)
            summary = {
                "summary": {
                    "type": ctype.label,
                    "radius": ball.radius,
                    "total": ball.total,
                    "counts_by_length": list(ball.counts),
                }
            }
            fp.write(json.dumps(summary, separators=(",", ":")) + "\n")
        else:
            fp.write(f"type: {ctype.label}  radius: {ball.radius}  elements: {ball.total}\n")
            fp.write("counts by length: " + ", ".join(str(c) for c in ball.counts) + "\n")
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    from .hecke import COUNTING, character_series, parse_sign_vector
    from .weyl import count_multilengths

    ctype = _parse_type(args.type)
    system = build_affine_system(ctype)
    if args.character.strip().lower() == "counting":
        rep, q_o = COUNTING, None
    else:
        try:
            rep = parse_sign_vector(args.character)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        if args.qo is None:
            raise _UsageError("a sign character needs --qo")
        q_o = _parse_qo_list(args.qo)[0]
    try:
        counts = count_multilengths(system, args.degree, max_elements=args.cap)
        series = character_series(counts, rep, system.m, args.degree, q_o)
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    with _open_sink(args.output) as fp:
        if args.format == "json":
            json.dump({"type": ctype.label, "degree": args.degree, "terms": _series_json(series)}, fp, indent=2)
            fp.write("\n")
        else:
            fp.write(str(series) + "\n")
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    ctype = _parse_type(args.type)
    form = growth_closed_form(ctype)
    try:
        series = form.expand(args.degree, max_terms=args.cap)
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    with _open_sink(args.output) as fp:
        if args.format == "json":
            json.dump(
                {
                    "type": ctype.label,
                    "degree": args.degree,
                    "closed_form": str(form),
                    "terms": _series_json(series),
                },
                fp,
                indent=2,
            )
            fp.write("\n")
        else:
            if args.show_form:
                fp.write(str(form) + "\n")
            fp.write(str(series) + "\n")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from .weyl import count_multilengths

    ctype = _parse_type(args.type)
    system = build_affine_system(ctype)
    try:
        counts = count_multilengths(system, args.degree, max_elements=args.cap)
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    enumerated = TruncatedSeries(system.m, args.degree, counts)
    calibration = calibrate_indexing(ctype, min(args.degree, 6))
    expanded = growth_closed_form(ctype).expand(args.degree).permute_variables(calibration.binding)
    if system.m == 1:
        binding_text = "single class; identity binding"
    else:
        binding_text = " ".join(f"t{j + 1}<-S{c + 1}" for j, c in enumerate(calibration.binding))
    with _open_sink(args.output) as fp:
        fp.write(f"type: {ctype.label}  degree: {args.degree}\n")
        fp.write(f"calibration: {binding_text}\n")
        diff = expanded.first_difference(enumerated)
        if diff is None:
            fp.write(f"identical: formula expansion matches enumeration up to total degree {args.degree}\n")
            return EXIT_OK
        fp.write(
            f"MISMATCH at exponent {diff}: formula={expanded.coefficient(diff)} "
            f"enumerated={enumerated.coefficient(diff)}\n"
        )
        return EXIT_MISMATCH


def _classify_rows(types: list[CartanType], q_o_values: list[int]):
    for ctype in types:
        for q_o in q_o_values:
            for verdict in classify(ctype, q_o):
                yield verdict


def _write_classify_text(fp: IO[str], rows) -> None:
    header = ["type", "epsilon", "q_o", "value", "distinguished", "multiplicity", "zero_witness"]
    table = [header]
    for v in rows:
        table.append(
            [
                v.ctype.label,
                "(" + ",".join(f"{s:+d}" for s in v.epsilon.signs) + ")",
                str(v.q_o),
                str(v.value),
                "yes" if v.distinguished else "no",
                f"[{v.multiplicity_lower},{v.multiplicity_upper}]",
                v.zero_witness or "",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        fp.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")


def cmd_classify(args: argparse.Namespace) -> int:
    if args.all_types:
        types = [parse_cartan_type(lbl) for lbl in ALL_TYPES]
    elif args.type:
        types = [_parse_type(args.type)]
    else:
        raise _UsageError("give --type LABEL or --all-types")
    q_o_values = _parse_qo_list(args.qo)
    rows = list(_classify_rows(types, q_o_values))
    with _open_sink(args.output) as fp:
        if args.format == "json":
            doc = {
                "schema": "gyoja-verdicts",
                "schema_version": VERDICT_SCHEMA_VERSION,
                "verdicts": [verdict_json_dict(v) for v in rows],
            }
            json.dump(doc, fp, indent=2)
            fp.write("\n")
        elif args.format == "csv":
            fp.write("type,epsilon,q_o,value,distinguished,multiplicity_lower,multiplicity_upper,zero_witness\n")
            for v in rows:
                eps = "(" + " ".join(f"{s:+d}" for s in v.epsilon.signs) + ")"
                fp.write(
                    f"{v.ctype.label},{eps},{v.q_o},{v.value},"
                    f"{'yes' if v.distinguished else 'no'},"
                    f"{v.multiplicity_lower},{v.multiplicity_upper},{v.zero_witness or ''}\n"
                )
        elif args.format == "markdown":
            fp.write(render_markdown_table(rows) + "\n")
        else:
            _write_classify_text(fp, rows)
        if args.expect_paper:
            deviations = [
                v for v in rows if v.distinguished != expected_distinguished(v.ctype, v.epsilon)
            ]
            if deviations:
                for v in deviations:
                    print(
                        f"DEVIATION: {v.ctype.label} {v.epsilon} q_o={v.q_o} -> "
                        f"distinguished={v.distinguished}, expected {expected_distinguished(v.ctype, v.epsilon)}",
                        file=sys.stderr,
                    )
                return EXIT_DEVIATION
    return EXIT_OK


def cmd_tables(args: argparse.Namespace) -> int:
    ctype = _parse_type(args.type)
    with _open_sink(args.output) as fp:
        json.dump(tables_document(ctype), fp, indent=2)
        fp.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gyoja", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"gyoja {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, degree: bool = True) -> None:
        p.add_argument("--type", required=False, help="Cartan type label, e.g. G2, C3")
        if degree:
            p.add_argument("--degree", type=int, required=True, help="total-degree / radius bound")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        if degree:  # the commands with a radius are the ones that take a cap
            p.add_argument(
                "--cap",
                type=int,
                default=None,
                help="element cap override (see GYOJA_MAX_ELEMENTS); for expand, a cap on stored terms",
            )

    p = sub.add_parser("enumerate", help="enumerate a ball and stream or summarize it")
    common(p)
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    p.set_defaults(func=cmd_enumerate, requires_type=True)

    p = sub.add_parser("series", help="print the enumerated generating series")
    common(p)
    p.add_argument("--character", default="counting", help='"counting" or a sign vector like "[-1,1]"')
    p.add_argument("--qo", default=None, help="q_o (needed for a sign character)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_series, requires_type=True)

    p = sub.add_parser("expand", help="print the closed-form expansion")
    common(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--show-form", action="store_true", help="also print the factor list")
    p.set_defaults(func=cmd_expand, requires_type=True)

    p = sub.add_parser("check", help="compare enumeration against the closed form")
    common(p)
    p.set_defaults(func=cmd_check, requires_type=True)

    p = sub.add_parser("classify", help="distinction verdicts for discrete-series characters")
    common(p, degree=False)
    p.add_argument("--all-types", action="store_true", help=f"sweep {', '.join(ALL_TYPES)}")
    p.add_argument("--qo", required=True, help="comma-separated q_o values, e.g. 2,3,5")
    p.add_argument("--format", choices=["text", "json", "csv", "markdown"], default="text")
    p.add_argument(
        "--expect-paper",
        action="store_true",
        help="exit 4 unless verdicts match the published classification "
        "(Steinberg everywhere; additionally (-1,1) in type G2)",
    )
    p.set_defaults(func=cmd_classify, requires_type=False)

    p = sub.add_parser("tables", help="dump the static tables for a type as JSON")
    common(p, degree=False)
    p.set_defaults(func=cmd_tables, requires_type=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "requires_type", False) and not args.type:
            raise _UsageError(f"{args.command} requires --type")
        if getattr(args, "degree", 0) is not None and getattr(args, "degree", 0) < 0:
            raise _UsageError("--degree must be >= 0")
        if hasattr(args, "cap"):
            try:
                args.cap = element_cap(args.cap)
            except ValueError as exc:
                raise _UsageError(str(exc)) from exc
        _check_sink(args.output)  # before the work, not after it
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone away shows here, not at exit
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away (e.g. `| head`): not an error of ours.  Point
        # stdout at devnull so the interpreter's flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
