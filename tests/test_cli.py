import ast
import dataclasses
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gyoja.cli as cli
import gyoja.closed_forms as closed_forms
import gyoja.counting as counting
import gyoja.distinction as distinction
import gyoja.weyl as weyl
from gyoja.limits import element_cap
from gyoja.closed_forms import bott_closed_form
from gyoja.cartan import parse_cartan_type
from conftest import system_of


def run_cli(*argv, capsys):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text_summary(capsys):
    code, out, err = run_cli("enumerate", "--type", "A1", "--degree", "3", capsys=capsys)
    assert code == 0
    assert out == "type: A1  radius: 3  elements: 7\ncounts by length: 1, 2, 2, 2\n"


def test_enumerate_degree_zero(capsys):
    code, out, _ = run_cli("enumerate", "--type", "A2", "--degree", "0", capsys=capsys)
    assert code == 0
    assert "elements: 1" in out


def test_enumerate_f4_matches_golden(capsys, golden_counts):
    code, out, _ = run_cli("enumerate", "--type", "F4", "--degree", "8", capsys=capsys)
    assert code == 0
    expected = ", ".join(str(c) for c in golden_counts["F4"]["counts"])
    assert f"counts by length: {expected}" in out


def test_enumerate_jsonl(capsys):
    code, out, _ = run_cli(
        "enumerate", "--type", "C2", "--degree", "2", "--format", "jsonl", capsys=capsys
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 1 + 3 + 5 + 1  # elements plus the summary line
    assert lines[-1]["summary"]["counts_by_length"] == [1, 3, 5]
    assert lines[0]["length"] == 0


@pytest.mark.parametrize("label, radius", [("G2", 12), ("C3", 10), ("E8", 6), ("A1", 0)])
def test_enumerate_text_summary_matches_ball_counts(label, radius, capsys):
    ball = weyl.enumerate_ball(system_of(label), radius)
    code, out, _ = run_cli("enumerate", "--type", label, "--degree", str(radius), capsys=capsys)
    assert code == 0
    assert out == (
        f"type: {label}  radius: {radius}  elements: {ball.total}\n"
        f"counts by length: {', '.join(map(str, ball.counts))}\n"
    )


@pytest.mark.parametrize("label, radius", [("A1", 0), ("G2", 30), ("C3", 26), ("E8", 6), ("B12", 4)])
def test_enumerate_jsonl_stream_is_ball_export_plus_summary(label, radius, capsys):
    ball = weyl.enumerate_ball(system_of(label), radius)
    if label == "C3":
        assert len(ball.levels[-1]) > weyl._EXPORT_CHUNK_ROWS  # the top level takes two chunks
    buf = io.StringIO()
    weyl.write_jsonl(ball.system, ball.levels, buf)
    summary = {"type": label, "radius": radius, "total": ball.total, "counts_by_length": list(ball.counts)}
    code, out, err = run_cli(
        "enumerate", "--type", label, "--degree", str(radius), "--format", "jsonl", capsys=capsys
    )
    assert (code, err) == (0, "")
    assert out == buf.getvalue() + json.dumps({"summary": summary}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("sink", ["stdout", "output"])
def test_enumerate_jsonl_cap_leaves_the_completed_levels(sink, tmp_path, capsys):
    # A2 has 1, 3, 6, 9, 12, ... elements by length: radius 4 would pass 20.
    completed = io.StringIO()
    weyl.write_jsonl(system_of("A2"), weyl.enumerate_ball(system_of("A2"), 3).levels, completed)
    target = tmp_path / "out.jsonl"
    argv = ["enumerate", "--type", "A2", "--degree", "10", "--cap", "20", "--format", "jsonl"]
    if sink == "output":
        target.write_text("old\n")
        argv += ["--output", str(target)]
    code, out, err = run_cli(*argv, capsys=capsys)
    if sink == "output":
        assert out == ""
        out = target.read_text()
    assert code == 2
    assert err == "error: element cap 20 exceeded after completing radius 3\n"
    assert out == completed.getvalue()
    assert len(out.splitlines()) == 1 + 3 + 6 + 9 and '"summary"' not in out


def test_enumerate_jsonl_streams_in_two_levels_of_memory():
    # The level arrays of the whole C3/60 ball (118,241 elements) against the
    # traced peak of the streamed CLI writing them to a null sink.
    ball = weyl.enumerate_ball(system_of("C3"), 60)
    ball_bytes = sum(
        a.nbytes for lv in ball.levels for a in (lv.lin, lv.tr, lv.parent, lv.letter, lv.multilength)
    )
    del ball
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "--type", "C3", "--degree", "60", "--format", "jsonl", "--output", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < ball_bytes / 2, (peak, ball_bytes)


def test_enumerate_cap_exit_2(capsys):
    code, _, err = run_cli(
        "enumerate", "--type", "A2", "--degree", "10", "--cap", "20", capsys=capsys
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("command", ["check", "series", "enumerate"])
def test_check_and_series_cap_exit_2(command, capsys):
    code, out, err = run_cli(command, "--type", "A2", "--degree", "10", "--cap", "20", capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: element cap 20 exceeded after completing radius 3\n"


def test_cap_of_one_is_valid(capsys):
    # a cap of 1 holds the identity alone: radius 0 fits, radius 1 does not
    assert run_cli("enumerate", "--type", "A1", "--degree", "0", "--cap", "1", capsys=capsys)[0] == 0
    code, out, err = run_cli("enumerate", "--type", "A1", "--degree", "1", "--cap", "1", capsys=capsys)
    assert (code, out, err) == (2, "", "error: element cap 1 exceeded after completing radius 0\n")


@pytest.mark.parametrize("env", [None, ""])
def test_default_cap_when_the_variable_is_unset_or_empty(env, monkeypatch):
    monkeypatch.delenv("GYOJA_MAX_ELEMENTS", raising=False)
    if env is not None:
        monkeypatch.setenv("GYOJA_MAX_ELEMENTS", env)
    assert element_cap() == 5_000_000


_WRITE_FAILURES = [
    "classify --type G2 --qo 2 --output /dev/full",
    "tables --type G2 --output /dev/full",
    "enumerate --type C3 --degree 8 --format jsonl --output /dev/full",
    "tables --type G2",  # with stdout on /dev/full
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", _WRITE_FAILURES)
def test_write_failure_exits_2_with_one_line(command):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "gyoja.cli", *command.split()], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["--version", "--help", "series --help"])
@pytest.mark.parametrize("unbuffered", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_version_and_help_on_a_full_disk_exit_2(command, unbuffered):
    # argparse's own printer drops the write error; main reports it as for any command,
    # also when stdout is unbuffered and the error comes at argparse's write, not at a flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, *unbuffered, "-m", "gyoja.cli", *command.split()],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


def test_version_returns_0_from_main(capsys):
    assert run_cli("--version", capsys=capsys) == (0, f"gyoja {cli.__version__}\n", "")


def test_closed_stdout_exits_0_quietly():
    # like `gyoja enumerate ... | head -c 100`: the reader stops after 100 bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "gyoja.cli", "enumerate", "--type", "C3", "--degree", "30",
         "--format", "jsonl"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head.startswith(b'{"length":0,')
    assert err == ""


def test_unopenable_output_exit_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli(
        "enumerate", "--type", "A1", "--degree", "2", "--output", str(target), capsys=capsys
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "error: cannot open output" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--degree", "3", "--cap", "0"],
        ["--degree", "3", "--cap", "-5"],
        ["--degree", "0", "--cap", "0"],
    ],
)
def test_bad_cap_exit_1(argv, capsys):
    code, out, err = run_cli("enumerate", "--type", "A2", *argv, capsys=capsys)
    assert code == 1 and out == ""
    assert err == f"usage error: element cap must be an integer >= 1, got {argv[-1]}\n"
    assert "Traceback" not in err


def test_bad_cap_env_exit_1(monkeypatch, capsys):
    monkeypatch.setenv("GYOJA_MAX_ELEMENTS", "abc")
    code, out, err = run_cli("enumerate", "--type", "A2", "--degree", "3", capsys=capsys)
    assert code == 1 and out == ""
    assert err == "usage error: GYOJA_MAX_ELEMENTS must be an integer >= 1, got 'abc'\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["series", "check", "expand"])
def test_bad_cap_env_exit_1_on_every_cap_command(command, monkeypatch, capsys):
    monkeypatch.setenv("GYOJA_MAX_ELEMENTS", "abc")
    code, out, err = run_cli(command, "--type", "A2", "--degree", "3", capsys=capsys)
    assert code == 1 and out == ""
    assert err == "usage error: GYOJA_MAX_ELEMENTS must be an integer >= 1, got 'abc'\n"


@pytest.mark.parametrize("argv", [("tables", "--type", "G2"), ("classify", "--type", "G2", "--qo", "2")])
def test_commands_without_a_cap_ignore_the_cap_env(argv, monkeypatch, capsys):
    unset = run_cli(*argv, capsys=capsys)
    monkeypatch.setenv("GYOJA_MAX_ELEMENTS", "bogus")
    assert run_cli(*argv, capsys=capsys) == unset
    assert unset[0] == 0 and unset[2] == ""


@pytest.mark.parametrize("argv", [("tables", "--type", "G2"), ("classify", "--type", "G2", "--qo", "2")])
def test_commands_without_a_cap_reject_cap(argv, capsys):
    code, out, err = run_cli(*argv, "--cap", "3", capsys=capsys)
    assert code == 1 and out == ""
    assert err == "usage error: unrecognized arguments: --cap 3\n"


def test_bad_type_exit_1(capsys):
    code, _, err = run_cli("enumerate", "--type", "B2", "--degree", "2", capsys=capsys)
    assert code == 1
    assert "C2" in err
    code, _, _ = run_cli("enumerate", "--type", "Q5", "--degree", "2", capsys=capsys)
    assert code == 1


def test_missing_required_args_exit_1(capsys):
    code, _, _ = run_cli("enumerate", "--degree", "3", capsys=capsys)
    assert code == 1
    code, _, _ = run_cli("series", "--type", "A1", capsys=capsys)
    assert code == 1
    code, _, _ = run_cli("enumerate", "--type", "A1", "--degree", "-2", capsys=capsys)
    assert code == 1


def test_series_counting(capsys):
    code, out, _ = run_cli("series", "--type", "A1", "--degree", "3", capsys=capsys)
    assert code == 0
    assert out.strip() == "1 + t1 + t2 + 2·t1·t2 + t1^2·t2 + t1·t2^2"


def test_series_sign_character(capsys):
    code, out, _ = run_cli(
        "series", "--type", "A1", "--degree", "2", "--character", "[-1,-1]", "--qo", "2",
        capsys=capsys,
    )
    assert code == 0
    assert out.strip() == "1 - t1 - t2 + 2·t1·t2"


def test_sign_vector_starting_with_minus_needs_no_equals(capsys):
    head = ("series", "--type", "C3", "--degree", "4")
    joined = run_cli(*head, "--character=-1,1,1", "--qo", "2", capsys=capsys)
    spaced = run_cli(*head, "--character", "-1,1,1", "--qo", "2", capsys=capsys)
    abbreviated = run_cli(*head, "--char", "-1,1,1", "--qo", "2", capsys=capsys)
    assert spaced == abbreviated == joined and joined[0] == 0 and joined[1].startswith("1 - 2·t1 + 4·t2")
    # an option in the value's place is still a missing value
    code, out, err = run_cli(*head, "--character", "--qo", "2", capsys=capsys)
    assert (code, out, err) == (1, "", "usage error: argument --character: expected one argument\n")


def test_series_character_needs_qo(capsys):
    code, _, err = run_cli(
        "series", "--type", "A1", "--degree", "2", "--character", "[-1,-1]", capsys=capsys
    )
    assert code == 1
    assert "qo" in err


def test_series_takes_one_qo(capsys):
    code, out, err = run_cli(
        "series", "--type", "A1", "--degree", "2", "--character", "[1,-1]", "--qo", "2,3", capsys=capsys
    )
    assert (code, out) == (1, "")
    assert err == "usage error: series takes one q_o value, got '2,3'\n"


def test_series_sign_vector_mismatch_exit_1_before_counting(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("counting called")

    monkeypatch.setattr(counting, "count_multilengths", refuse)
    code, out, err = run_cli(
        "series", "--type", "G2", "--degree", "10", "--cap", "3", "--character", "[-1,1,1]", "--qo", "2",
        capsys=capsys,
    )
    assert (code, out) == (1, "")
    assert err == "usage error: multilength / sign vector dimension mismatch\n"


def test_series_rejects_a_sign_vector_with_an_empty_field(capsys):
    code, out, err = run_cli(
        "series", "--type", "G2", "--degree", "2", "--character", "[-1,,1]", "--qo", "2", capsys=capsys
    )
    assert (code, out) == (1, "")
    assert err == "usage error: cannot parse sign vector '[-1,,1]'\n"


def test_series_counting_rejects_qo(capsys):
    code, out, err = run_cli("series", "--type", "A1", "--degree", "2", "--qo", "5", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "usage error: --qo applies only to a sign character\n"


def test_series_json_format(capsys):
    code, out, _ = run_cli(
        "series", "--type", "A2", "--degree", "2", "--format", "json", capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"][0] == {"exponent": [0], "coefficient": "1"}
    assert doc["terms"][2] == {"exponent": [2], "coefficient": "6"}


def test_expand_a1_example(capsys):
    code, out, _ = run_cli("expand", "--type", "A1", "--degree", "2", capsys=capsys)
    assert code == 0
    assert out == "1 + t1 + t2 + 2·t1·t2\n"


def test_expand_show_form(capsys):
    code, out, _ = run_cli(
        "expand", "--type", "A1", "--degree", "2", "--show-form", capsys=capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "(1 + t1)·(1 + t2) / (1 - t1·t2)"


def test_expand_cap_exit_2(capsys):
    code, out, err = run_cli(
        "expand", "--type", "C3", "--degree", "40", "--cap", "100", capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_expand_without_cap_exit_0(capsys):
    code, out, _ = run_cli("expand", "--type", "C3", "--degree", "40", capsys=capsys)
    assert code == 0
    assert out.startswith("1 + ")


@pytest.mark.parametrize(
    "argv,digest",
    [
        ("expand --type C4 --degree 60", "6850e3238061d8ad3c901eee3329ef30b171ddb5e500495423b007085a1c2ceb"),
        ("expand --type C3 --degree 90", "d5da1e4a2d8e16614bc03916f54669884ad011e5ed4e7e0bc2f7db49ccb27538"),
        ("expand --type F4 --degree 80", "af4bd82c1d0980ec15483dff38b87c007bb4739c6fec2a253680daab62d13ecd"),
        (
            "expand --type G2 --degree 40 --format json --show-form",
            "89a9aeb4c43abba7938619bb710d2e2c10af388821fde25cc16d6ef61f9492ff",
        ),
    ],
)
def test_expand_output_bytes_pinned(argv, digest, capsys):
    code, out, _ = run_cli(*argv.split(), capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PERFBENCH_DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize("command", sorted(PERFBENCH_DIGESTS))
def test_benchmark_outputs_match_their_digests(command, capsys):
    # the benchmark counts an operation whose stdout misses its pinned sha256
    # as failed; checking the same digests here shows a changed byte at once
    code, out, _ = run_cli(*command.split(), capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PERFBENCH_DIGESTS[command]


@pytest.mark.parametrize(
    "label,digest",
    [
        ("A1", "24d1aabdd03fa3f74ebf42b3dbba0ef06329ab2e9814cd147cd5093cabc53137"),
        ("B3", "e83c983bfc64fad0335262307087d460b831fc616cac03f6075711e34645ab54"),
        ("C2", "f31a1173728fe243f607cb897b0c294e17eafedd7016cf8d24d7be6b0b3e980b"),
        ("C3", "ef54415b24aee27e71c3b1f4186774a1f0c212be6dafd9060051cc3dcf833d03"),
        ("C4", "c08a64cbc510fd014c188a279f2cb27133842251de25c4723e239f201fbeac31"),
        ("G2", "a3fd5738ce5b224b723e59a92a82b1ce57dbc635a70d69bb11ce642293344ae3"),
        ("F4", "f263a85c9467251907e75c098f4bc2414150eb732687633f736fa0cb818736fd"),
        ("E8", "712f93cf33be7c9173755cecc9b17466a58cfa2926bd361436f33361aaeaa792"),
    ],
)
def test_tables_output_bytes_pinned(label, digest, capsys):
    code, out, _ = run_cli("tables", "--type", label, capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("label", ["G2", "C2", "A2"])
def test_check_identity_exit_0(label, capsys):
    code, out, _ = run_cli("check", "--type", label, "--degree", "6", capsys=capsys)
    assert code == 0
    assert "identical" in out


def test_check_c2_reports_calibration(capsys):
    # the binding is the calibrated one at every degree, also where the
    # enumeration is too short to tell the bindings apart
    for degree in (0, 1, 6):
        code, out, _ = run_cli("check", "--type", "C2", "--degree", str(degree), capsys=capsys)
        assert code == 0
        assert out.splitlines()[1] == "calibration: t1<-S2 t2<-S1 t3<-S3"


def test_check_mismatch_exit_3(monkeypatch, capsys):
    # a deliberately wrong formula must be caught and reported with the
    # first differing exponent vector
    wrong = bott_closed_form(parse_cartan_type("A3"))
    monkeypatch.setattr(closed_forms, "growth_closed_form", lambda ctype: wrong)
    code, out, _ = run_cli("check", "--type", "A2", "--degree", "4", capsys=capsys)
    assert code == 3
    assert "MISMATCH at exponent" in out


def test_check_mismatch_line_names_the_first_differing_term(monkeypatch, capsys):
    # C3's Macdonald form without its last numerator factor (1 + t1^2·t3)
    # first differs at t1^2·t3; the line is pinned byte for byte
    form = closed_forms.macdonald_closed_form(parse_cartan_type("C3"))
    assert str(form.numerator[-1]) == "(1 + t1^2·t3)"
    wrong = dataclasses.replace(form, numerator=form.numerator[:-1])
    monkeypatch.setattr(closed_forms, "growth_closed_form", lambda ctype: wrong)
    code, out, _ = run_cli("check", "--type", "C3", "--degree", "6", capsys=capsys)
    assert code == 3
    assert out == (
        "type: C3  degree: 6\n"
        "calibration: t1<-S1 t2<-S2 t3<-S3\n"
        "MISMATCH at exponent (2, 0, 1): formula=4 enumerated=5\n"
    )


def test_classify_text(capsys):
    code, out, _ = run_cli("classify", "--type", "G2", "--qo", "2", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "type", "epsilon", "q_o", "value", "distinguished", "multiplicity", "zero_witness"
    ]
    assert "G2" in lines[1] and "yes" in lines[1]
    assert len(lines) == 3


def test_classify_expect_matches_published_table(capsys):
    for args in (
        ["classify", "--type", "G2", "--qo", "2", "--expect-paper"],
        ["classify", "--type", "B3", "--qo", "2,3,5", "--expect-paper"],
        ["classify", "--all-types", "--qo", "2,3", "--expect-paper"],
    ):
        code, _, err = run_cli(*args, capsys=capsys)
        assert code == 0, (args, err)


def test_classify_e7_single_row(capsys):
    code, out, _ = run_cli("classify", "--type", "E7", "--qo", "2", capsys=capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 2
    assert "yes" in rows[1]


def test_classify_deviation_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(distinction, "expected_distinguished", lambda ctype, eps: False)
    code, _, err = run_cli(
        "classify", "--type", "G2", "--qo", "2", "--expect-paper", capsys=capsys
    )
    assert code == 4
    assert "DEVIATION" in err


def test_classify_json(capsys):
    code, out, _ = run_cli(
        "classify", "--type", "C4", "--qo", "5", "--format", "json", capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "gyoja-verdicts"
    assert len(doc["verdicts"]) == 4
    assert doc["verdicts"][1]["zero_witness"] == "(1 + t1·t3)"


def test_classify_csv_and_markdown(capsys):
    code, out, _ = run_cli(
        "classify", "--type", "B3", "--qo", "2", "--format", "csv", capsys=capsys
    )
    assert code == 0
    assert out.splitlines()[0].startswith("type,epsilon,q_o,value")
    assert len(out.splitlines()) == 3
    code, out, _ = run_cli(
        "classify", "--type", "B3", "--qo", "2", "--format", "markdown", capsys=capsys
    )
    assert code == 0
    assert out.splitlines()[0].startswith("| type |")


def test_classify_qo_validation(capsys):
    code, _, _ = run_cli("classify", "--type", "G2", "--qo", "1", capsys=capsys)
    assert code == 1
    code, _, _ = run_cli("classify", "--type", "G2", "--qo", "x", capsys=capsys)
    assert code == 1
    code, _, _ = run_cli("classify", "--qo", "2", capsys=capsys)
    assert code == 1


def test_classify_rejects_type_with_all_types(capsys):
    code, out, err = run_cli("classify", "--all-types", "--type", "G2", "--qo", "2", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "usage error: give --type LABEL or --all-types, not both\n"


def test_tables_json(capsys):
    code, out, _ = run_cli("tables", "--type", "C3", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "gyoja-cartan-tables"
    assert doc["class_partition"] == [[1, 2], [0], [3]]
    assert doc["coxeter_matrix"][0][1] == 4


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        "enumerate", "--type", "A1", "--degree", "2", "--output", str(target), capsys=capsys
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("type: A1")


@pytest.mark.parametrize("command", ["enumerate", "series", "check"])
@pytest.mark.parametrize("where", ["missing_dir", "directory", "empty"])
def test_unusable_output_fails_before_the_work(monkeypatch, tmp_path, capsys, command, where):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration called")

    monkeypatch.setattr(counting, "count_multilengths", refuse)
    target = {"missing_dir": tmp_path / "missing" / "x.txt", "directory": tmp_path, "empty": ""}[where]
    code, out, err = run_cli(
        command, "--type", "E8", "--degree", "10", "--output", str(target), capsys=capsys
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: cannot open output")


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unusable_output_fails_before_the_jsonl_stream(monkeypatch, tmp_path, capsys, where):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration called")

    monkeypatch.setattr(weyl, "enumerate_levels", refuse)
    target = tmp_path / "missing" / "x.jsonl" if where == "missing_dir" else tmp_path
    code, out, err = run_cli(
        "enumerate", "--type", "E8", "--degree", "10", "--format", "jsonl", "--output", str(target),
        capsys=capsys,
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: cannot open output")


def test_cap_error_leaves_existing_output_untouched(tmp_path, capsys):
    target = tmp_path / "out.txt"
    target.write_text("keep\n")
    code, _, err = run_cli(
        "enumerate", "--type", "A2", "--degree", "10", "--cap", "20", "--output", str(target),
        capsys=capsys,
    )
    assert code == 2 and "cap" in err
    assert target.read_text() == "keep\n"


def test_byte_identical_reruns(capsys):
    args = ["classify", "--all-types", "--qo", "2,3"]
    code1, out1, _ = run_cli(*args, capsys=capsys)
    code2, out2, _ = run_cli(*args, capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2


# sha256 of the stdout of `classify --all-types --qo 2,3,4,5,7 --expect-paper`
# in each format, so every byte of every verdict table is pinned
_CLASSIFY_DIGESTS = {
    "text": "2f98d6ee9b5b1c534f592d78acdc90c7e67a37e0be2c72de7f379b67813a33bc",
    "json": "6ff4f155bed8f0eaecf76cc14574f670e3c5dc68036d96df89d648100c35a208",
    "csv": "f32e4c333c29aa81587d740a9fc3b46484b542f489e9dee06b663196251c964e",
    "markdown": "1d63ce76d32aad8c2e2da25e5b5e0a929071a854e5891a85cb5241cb11b6e292",
}


@pytest.mark.parametrize("fmt", list(_CLASSIFY_DIGESTS))
def test_classify_all_types_output_digest(fmt, capsys):
    code, out, err = run_cli(
        "classify", "--all-types", "--qo", "2,3,4,5,7", "--expect-paper", "--format", fmt, capsys=capsys
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _CLASSIFY_DIGESTS[fmt]


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gyoja.cli", "expand", "--type", "A1", "--degree", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + t1 + t2 + 2·t1·t2\n"


# Runs the CLI with numpy unimportable: any `import numpy` raises ImportError.
_WITHOUT_NUMPY = "import sys\nsys.modules['numpy'] = None\nfrom gyoja.cli import main\nsys.exit(main())"


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["expand", "--type", "C4", "--degree", "10"],
        ["expand", "--type", "C4", "--degree", "10", "--format", "json", "--show-form"],
        ["tables", "--type", "E8"],
    ]
    + [
        ["classify", "--all-types", "--qo", "2,3,4,5,7", "--expect-paper", "--format", fmt]
        for fmt in ("text", "json", "csv", "markdown")
    ]
    + [
        ["check", "--type", "E8", "--degree", "10"],
        ["check", "--type", "C2", "--degree", "7"],
        ["enumerate", "--type", "E8", "--degree", "12"],
        ["series", "--type", "C2", "--degree", "10"],
        ["series", "--type", "G2", "--degree", "8", "--character", "[-1,1]", "--qo", "3", "--format", "json"],
    ],
)
def test_version_expand_and_tables_run_without_numpy(argv):
    blocked = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True)
    normal = subprocess.run([sys.executable, "-m", "gyoja.cli", *argv], capture_output=True, text=True)
    assert blocked.returncode == normal.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout != ""


def test_import_gyoja_without_numpy():
    # every public name resolves on first access, so the package alone loads no submodule
    code = (
        "import sys\nsys.modules['numpy'] = None\nimport gyoja\n"
        "print(gyoja.__version__, sorted(m for m in sys.modules if m.startswith('gyoja.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{cli.__version__} []\n"


# Runs main(argv), then prints to stderr the gyoja modules it loaded and
# whether numpy is loaded; argparse leaves through SystemExit on --version and --help.
_IMPORTS_OF = (
    "import sys\nfrom gyoja.cli import main\n"
    "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
    "print(sorted(m for m in sys.modules if m.startswith('gyoja.')), 'numpy' in sys.modules, file=sys.stderr)"
)
_BEFORE_DISPATCH = ["cli", "limits"]
_COUNTED = ["cartan", "cli", "counting", "limits", "series"]
_IMPORT_CASES = [
    ("--version", _BEFORE_DISPATCH, False),
    ("--help", _BEFORE_DISPATCH, False),
    ("expand --type C3 --degree -1", _BEFORE_DISPATCH, False),
    ("expand --type C3 --degree 3 --cap 0", _BEFORE_DISPATCH, False),
    ("tables --type G2", ["cartan", "cli", "limits"], False),
    ("expand --type C3 --degree 3", ["cartan", "cli", "closed_forms", "limits", "series"], False),
    ("series --type C3 --degree 3", _COUNTED, False),
    ("enumerate --type C3 --degree 3", _COUNTED, False),
    ("check --type C3 --degree 3", sorted(_COUNTED + ["closed_forms"]), False),
    ("classify --type G2 --qo 2", ["cartan", "cli", "closed_forms", "distinction", "limits", "series"], False),
    ("enumerate --type C3 --degree 3 --format jsonl", ["cartan", "cli", "limits", "weyl"], True),
]


@pytest.mark.parametrize("command, modules, numpy", _IMPORT_CASES, ids=[case[0] for case in _IMPORT_CASES])
def test_each_command_imports_only_its_modules(command, modules, numpy):
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_OF, *command.split()], capture_output=True, text=True)
    loaded = proc.stderr.splitlines()[-1]
    assert loaded == f"{sorted('gyoja.' + m for m in modules)} {numpy}"


def test_array_names_import_numpy_on_first_access():
    code = (
        "import sys, gyoja\n"
        "before = 'numpy' in sys.modules\n"
        "gyoja.enumerate_ball\n"
        "print(before, 'numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"


def test_counter_leaves_numpy_unimported():
    code = (
        "import sys, gyoja\n"
        "from gyoja.cartan import build_affine_system, parse_cartan_type\n"
        "counts = gyoja.count_multilengths(build_affine_system(parse_cartan_type('C3')), 6)\n"
        "c2 = build_affine_system(parse_cartan_type('C2'))\n"
        "sums = gyoja.partial_sums_at_point(c2, gyoja.steinberg_character(c2.ctype), 2, radius=6)\n"
        "print(sum(counts.coeffs.values()), len(sums), 'numpy' in sys.modules, 'gyoja.weyl' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "161 7 False False\n"


def test_hecke_leaves_weyl_unimported():
    code = "import sys, gyoja.hecke\nprint('gyoja.weyl' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_readme_quick_start_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(-1,-1) 7/33 True\n(-1,+1) 3/2 True\n"


def test_readme_command_lines_run(capsys):
    # every `gyoja ...` line of the README's command-line block exits 0 and
    # prints something; the `# ...` lines under one are the start of its output
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples: list[tuple[list[str], str]] = []
    for line in block.splitlines():
        if line.startswith("gyoja "):
            examples.append((shlex.split(line, comments=True)[1:], ""))
        elif line.startswith("# "):
            argv, shown = examples[-1]
            examples[-1] = (argv, shown + line[2:] + "\n")
    assert len(examples) == 10
    for argv, shown in examples:
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, err) == (0, ""), argv
        assert out and out.startswith(shown), argv


def test_only_the_array_modules_import_numpy():
    # weyl (enumeration) and hecke (MatrixRep) walk arrays; every other
    # module works in plain ints, so an import of numpy anywhere else,
    # even inside a function, is a regression
    importers = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == {"weyl", "hecke"}
