import hashlib
import json
import subprocess
import sys

import pytest

import gyoja.cli as cli
import gyoja.weyl as weyl
from gyoja.closed_forms import bott_closed_form
from gyoja.cartan import parse_cartan_type


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


def test_enumerate_cap_exit_2(capsys):
    code, _, err = run_cli(
        "enumerate", "--type", "A2", "--degree", "10", "--cap", "20", capsys=capsys
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("command", ["check", "series"])
def test_check_and_series_cap_exit_2(command, capsys):
    code, out, err = run_cli(command, "--type", "A2", "--degree", "10", "--cap", "20", capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: element cap 20 exceeded after completing radius 3\n"


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


def test_series_character_needs_qo(capsys):
    code, _, err = run_cli(
        "series", "--type", "A1", "--degree", "2", "--character", "[-1,-1]", capsys=capsys
    )
    assert code == 1
    assert "qo" in err


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


@pytest.mark.parametrize(
    "label,digest",
    [
        ("C2", "f31a1173728fe243f607cb897b0c294e17eafedd7016cf8d24d7be6b0b3e980b"),
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
    code, out, _ = run_cli("check", "--type", "C2", "--degree", "6", capsys=capsys)
    assert code == 0
    assert "calibration: t1<-S2 t2<-S1 t3<-S3" in out


def test_check_mismatch_exit_3(monkeypatch, capsys):
    # a deliberately wrong formula must be caught and reported with the
    # first differing exponent vector
    wrong = bott_closed_form(parse_cartan_type("A3"))
    monkeypatch.setattr(cli, "growth_closed_form", lambda ctype: wrong)
    code, out, _ = run_cli("check", "--type", "A2", "--degree", "4", capsys=capsys)
    assert code == 3
    assert "MISMATCH at exponent" in out


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
    monkeypatch.setattr(cli, "expected_distinguished", lambda ctype, eps: False)
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
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unusable_output_fails_before_the_work(monkeypatch, tmp_path, capsys, command, where):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration called")

    # cli imports these from gyoja.weyl when a command runs, so patch them there.
    monkeypatch.setattr(weyl, "enumerate_ball", refuse)
    monkeypatch.setattr(weyl, "count_multilengths", refuse)
    target = tmp_path / "missing" / "x.txt" if where == "missing_dir" else tmp_path
    code, out, err = run_cli(
        command, "--type", "E8", "--degree", "10", "--output", str(target), capsys=capsys
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
    ],
)
def test_version_expand_and_tables_run_without_numpy(argv):
    blocked = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True)
    normal = subprocess.run([sys.executable, "-m", "gyoja.cli", *argv], capture_output=True, text=True)
    assert blocked.returncode == normal.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout != ""


def test_import_gyoja_without_numpy():
    code = "import sys\nsys.modules['numpy'] = None\nimport gyoja\nprint(gyoja.__version__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{cli.__version__}\n"


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
