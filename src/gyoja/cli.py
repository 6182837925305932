"""Command-line surface.

Subcommands:

* ``enumerate``  -- enumerate a ball, stream it as JSON lines level by level,
                    or summarize it,
* ``series``     -- print the enumerated generating series (counting character
                    by default, or a sign character at a given q_o),
* ``expand``     -- print the truncated expansion of the closed product formula,
* ``check``      -- compare the enumerated series against the formula expansion,
* ``classify``   -- print distinction verdicts for the discrete-series
                    characters of a type (or of every supported type),
* ``tables``     -- dump the static tables for a type as versioned JSON.

Exit codes form a contract: 0 success, 1 usage or bad input, 2 resource cap
exceeded or output that cannot be written (a full disk), 3 series identity
mismatch, 4 verdict deviation under ``--expect-paper``.  Every integer read
(``--degree``, ``--cap``, ``--qo`` fields, signs, ``GYOJA_MAX_ELEMENTS``) is
ASCII digits after an optional sign, and a type label is the type's own
(``G2``, or ``g2``).  All output is deterministic: rationals print exactly
(never as decimals) and orderings are fixed by the library's canonical
conventions.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
from contextlib import contextmanager, redirect_stdout
from typing import TYPE_CHECKING

from . import __version__
from .limits import ResourceLimitExceeded, element_cap, is_integer_text

# Each command imports the library modules it runs, so `--version`, `--help`
# and the usage errors caught before dispatch load none of them.
if TYPE_CHECKING:
    from typing import IO

    from .cartan import CartanType
    from .distinction import DistinctionVerdict
    from .series import TruncatedSeries

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


def _joined_character(argv: list[str]) -> list[str]:
    """``--character -1,1`` as ``--character=-1,1``: argparse reads a lone value that starts with ``-`` as an option.

    argparse's abbreviations from ``--ch`` on are joined too (``--c`` and ``--ca`` could be ``--cap``).
    """
    out: list[str] = []
    for token in argv:
        option = out[-1] if out else ""
        if len(option) >= 4 and "--character".startswith(option) and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_type(label: str) -> CartanType:
    from .cartan import parse_cartan_type

    try:
        return parse_cartan_type(label)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _integer(text: str) -> int:
    if not is_integer_text(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_qo_list(text: str) -> list[int]:
    fields = text.split(",")
    if not all(map(is_integer_text, fields)):
        raise _UsageError(f"cannot parse q_o list {text!r}")
    values = [int(f) for f in fields]
    if any(q < 2 for q in values):
        raise _UsageError("q_o values must be integers >= 2")
    if len(set(values)) < len(values):
        raise _UsageError(f"q_o values repeat in {text!r}")
    return values


def _check_sink(path: str | None) -> None:
    """Reject an output path that cannot be opened, without creating or truncating it."""
    if path is None or path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.exists(parent):
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


def _write_json(fp: IO[str], doc: object) -> None:
    import json

    json.dump(doc, fp, indent=2)
    fp.write("\n")


def _series_json(series: TruncatedSeries) -> list:
    return [{"exponent": list(e), "coefficient": str(c)} for e, c in series.terms()]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .cartan import build_affine_system

    ctype = _parse_type(args.type)
    system = build_affine_system(ctype)
    if args.format == "text":
        from .counting import count_multilengths

        growth = count_multilengths(system, args.degree, max_elements=args.cap)
        by_length = [sum(growth.levels[d].values()) for d in range(args.degree + 1)]
        with _open_sink(args.output) as fp:
            fp.write(f"type: {ctype.label}  radius: {args.degree}  elements: {sum(by_length)}\n")
            fp.write("counts by length: " + ", ".join(str(c) for c in by_length) + "\n")
        return EXIT_OK
    import json

    from .weyl import enumerate_levels, write_jsonl

    # Each level is written as soon as it is built: when the cap fires, the
    # sink holds the complete levels before it and no summary line.
    with _open_sink(args.output) as fp:
        by_length = write_jsonl(system, enumerate_levels(system, args.degree, max_elements=args.cap), fp)
        summary = {
            "summary": {
                "type": ctype.label,
                "radius": args.degree,
                "total": sum(by_length),
                "counts_by_length": by_length,
            }
        }
        fp.write(json.dumps(summary, separators=(",", ":")) + "\n")
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    from .cartan import build_affine_system
    from .counting import character_series, count_multilengths, parse_sign_vector

    ctype = _parse_type(args.type)
    system = build_affine_system(ctype)
    if args.character == "counting":
        if args.qo is not None:
            raise _UsageError("--qo applies only to a sign character")
        eps = None
    else:
        try:
            eps = parse_sign_vector(args.character)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        if args.qo is None:
            raise _UsageError("a sign character needs --qo")
        q_o_values = _parse_qo_list(args.qo)
        if len(q_o_values) > 1:
            raise _UsageError(f"series takes one q_o value, got {args.qo!r}")
        q_o = q_o_values[0]
        if len(eps.signs) != system.m:
            raise _UsageError("multilength / sign vector dimension mismatch")
    series = count_multilengths(system, args.degree, max_elements=args.cap)
    if eps is not None:
        series = character_series(series, eps, q_o)
    with _open_sink(args.output) as fp:
        if args.format == "json":
            _write_json(fp, {"type": ctype.label, "degree": args.degree, "terms": _series_json(series)})
        else:
            fp.write(str(series) + "\n")
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    from .closed_forms import growth_closed_form

    ctype = _parse_type(args.type)
    form = growth_closed_form(ctype)
    series = form.expand(args.degree, max_terms=args.cap)
    with _open_sink(args.output) as fp:
        if args.format == "json":
            terms = _series_json(series)
            _write_json(fp, {"type": ctype.label, "degree": args.degree, "closed_form": str(form), "terms": terms})
        else:
            if args.show_form:
                fp.write(str(form) + "\n")
            fp.write(str(series) + "\n")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from .cartan import build_affine_system
    from .closed_forms import calibrate_indexing, growth_closed_form
    from .counting import count_multilengths

    ctype = _parse_type(args.type)
    system = build_affine_system(ctype)
    enumerated = count_multilengths(system, args.degree, max_elements=args.cap)
    calibration = calibrate_indexing(ctype)
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


def _write_classify_text(fp: IO[str], verdicts: list[DistinctionVerdict]) -> None:
    header = ["type", "epsilon", "q_o", "value", "distinguished", "multiplicity", "zero_witness"]
    table = [header]
    for v in verdicts:
        lo, hi = v.multiplicity_interval
        table.append(
            [
                v.ctype.label,
                str(v.epsilon),
                str(v.q_o),
                str(v.value),
                "yes" if v.distinguished else "no",
                f"[{lo},{hi}]",
                v.zero_witness or "",
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        fp.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")


VERDICT_SCHEMA_VERSION = 1


def _write_classify_json(fp: IO[str], verdicts: list[DistinctionVerdict]) -> None:
    docs = []
    for v in verdicts:
        doc = {
            "type": v.ctype.label,
            "rank": v.ctype.rank,
            "epsilon": list(v.epsilon.signs),
            "q_o": v.q_o,
            "value": str(v.value),
            "distinguished": v.distinguished,
            "multiplicity": list(v.multiplicity_interval),
            "is_steinberg": v.is_steinberg,
        }
        if v.zero_witness is not None:
            doc["zero_witness"] = v.zero_witness
        docs.append(doc)
    _write_json(fp, {"schema": "gyoja-verdicts", "schema_version": VERDICT_SCHEMA_VERSION, "verdicts": docs})


def _write_classify_csv(fp: IO[str], verdicts: list[DistinctionVerdict]) -> None:
    fp.write("type,epsilon,q_o,value,distinguished,multiplicity_lower,multiplicity_upper,zero_witness\n")
    for v in verdicts:
        eps = "(" + " ".join(f"{s:+d}" for s in v.epsilon.signs) + ")"
        lo, hi = v.multiplicity_interval
        fp.write(
            f"{v.ctype.label},{eps},{v.q_o},{v.value},"
            f"{'yes' if v.distinguished else 'no'},{lo},{hi},{v.zero_witness or ''}\n"
        )


def _write_classify_markdown(fp: IO[str], verdicts: list[DistinctionVerdict]) -> None:
    fp.write("| type | epsilon | q_o | value | distinguished | multiplicity | zero witness |\n")
    fp.write("|------|---------|-----|-------|---------------|--------------|--------------|\n")
    for v in verdicts:
        eps = "(" + ", ".join(f"{s:+d}" for s in v.epsilon.signs) + ")"
        lo, hi = v.multiplicity_interval
        fp.write(
            f"| {v.ctype.label} | {'Steinberg' if v.is_steinberg else eps} | {v.q_o} | {v.value} | "
            f"{'yes' if v.distinguished else 'no'} | [{lo}, {hi}] | {v.zero_witness or ''} |\n"
        )


_CLASSIFY_WRITERS = {
    "text": _write_classify_text,
    "json": _write_classify_json,
    "csv": _write_classify_csv,
    "markdown": _write_classify_markdown,
}


def cmd_classify(args: argparse.Namespace) -> int:
    from .cartan import parse_cartan_type
    from .distinction import classify, expected_distinguished

    if args.all_types and args.type:
        raise _UsageError("give --type LABEL or --all-types, not both")
    if args.all_types:
        types = [parse_cartan_type(lbl) for lbl in ALL_TYPES]
    elif args.type:
        types = [_parse_type(args.type)]
    else:
        raise _UsageError("give --type LABEL or --all-types")
    q_o_values = _parse_qo_list(args.qo)
    verdicts = [v for ctype in types for q_o in q_o_values for v in classify(ctype, q_o)]
    with _open_sink(args.output) as fp:
        _CLASSIFY_WRITERS[args.format](fp, verdicts)
        if args.expect_paper:
            deviations = [
                v for v in verdicts if v.distinguished != expected_distinguished(v.ctype, v.epsilon)
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
    from .cartan import tables_document

    ctype = _parse_type(args.type)
    with _open_sink(args.output) as fp:
        _write_json(fp, tables_document(ctype))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gyoja", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"gyoja {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, degree: bool = True, type_required: bool = True) -> None:
        p.add_argument("--type", required=type_required, help="Cartan type label, e.g. G2, C3")
        if degree:
            p.add_argument("--degree", type=_integer, required=True, help="total-degree / radius bound")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        if degree:  # the commands with a radius are the ones that take a cap
            p.add_argument(
                "--cap",
                type=_integer,
                help="element cap override (see GYOJA_MAX_ELEMENTS); for expand, a cap on stored terms",
            )

    p = sub.add_parser("enumerate", help="enumerate a ball and stream or summarize it")
    common(p)
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("series", help="print the enumerated generating series")
    common(p)
    p.add_argument("--character", default="counting", help='"counting" or a sign vector like "[-1,1]"')
    p.add_argument("--qo", default=None, help="one q_o value (needed for a sign character, rejected otherwise)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("expand", help="print the closed-form expansion")
    common(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--show-form", action="store_true", help="also print the factor list")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("check", help="compare enumeration against the closed form")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="distinction verdicts for discrete-series characters")
    common(p, degree=False, type_required=False)
    p.add_argument("--all-types", action="store_true", help=f"sweep {', '.join(ALL_TYPES)}")
    p.add_argument("--qo", required=True, help="comma-separated q_o values, e.g. 2,3,5")
    p.add_argument("--format", choices=list(_CLASSIFY_WRITERS), default="text")
    p.add_argument(
        "--expect-paper",
        action="store_true",
        help="exit 4 unless verdicts match the published classification "
        "(Steinberg everywhere; additionally (-1,1) in type G2)",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tables", help="dump the static tables for a type as JSON")
    common(p, degree=False)
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser, args = build_parser(), None
    try:
        printed = io.StringIO()  # argparse drops a failed write of --help or --version; main's write does not
        try:
            with redirect_stdout(printed):
                args = parser.parse_args(_joined_character(sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:
            sys.stdout.write(printed.getvalue())
            sys.stdout.flush()
            return exc.code
        if getattr(args, "degree", 0) is not None and getattr(args, "degree", 0) < 0:
            raise _UsageError("--degree must be >= 0")
        if hasattr(args, "cap"):
            try:
                args.cap = element_cap(args.cap)
            except ValueError as exc:
                raise _UsageError(str(exc)) from exc
        _check_sink(args.output)  # before the work, not after it
        try:
            code = args.func(args)
        except ResourceLimitExceeded as exc:
            # what a command wrote before the cap (complete jsonl levels) is flushed below
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_RESOURCES
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
    except OSError as exc:  # writing or flushing the sink failed (a full disk); quiet stdout as above
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        if getattr(args, "output", None) in (None, "-"):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RESOURCES


if __name__ == "__main__":
    sys.exit(main())
