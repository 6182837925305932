"""The CLI's input grammar and its exit-code contract, over a seeded draw of argv.

A draw is a valid command built from per-option vocabularies; in about 40% of
draws one value is swapped for a malformed one, or a required option dropped.
A valid draw exits 0 (or 2, when its ``--cap`` is too small), a malformed one
exits 1, and every run keeps the contract on stdout and stderr.
"""

import random
import shlex

import pytest

import gyoja.cli as cli
from gyoja.limits import is_integer_text

_DRAWS = 2000
_SEED = 7

_TYPES = {"A1": 2, "a2": 1, "C2": 3, "G2": 2, "g2": 2, "c3": 3, "B3": 2}  # label -> number of classes
_DEGREES = ["0", "1", "3", "4", "+2"]
_CAPS = ["1", "5", "40", "+30", "1000"]
_QO = ["2", "3", "+2", "7"]
_QO_LISTS = _QO + ["2,3", "5,2,3", "+2,3"]

_MALFORMED = {
    "--type": ["C_3", "C03", "B٣", " G2", "G2 ", "g_2", "B2", "X9", "C0", ""],
    "--degree": ["1_0", " 2 ", "٣", "-1", "x", "", "2.0", "+-1", "３"],
    "--cap": ["0", "-3", "1_000", "abc", " 5", "٣", ""],
    "--qo": ["2,,3", "2,", "3,3", "1_0", "1", " 2 ", "", ",2", "2,2,3", "٣"],
    "--character": [" Counting ", "Counting", "COUNTING", "[-1,,1]", "[0,1]", "[-1,1", "[1_0]", "[-1,١]"],
}

# The inputs this grammar turned from exit 0 (or 2) into exit 1, with the line each prints.
_BAD = [
    ("classify --type G2 --qo 2,,3", "cannot parse q_o list '2,,3'"),
    ("classify --type G2 --qo 2,", "cannot parse q_o list '2,'"),
    ("classify --type G2 --qo 3,3", "q_o values repeat in '3,3'"),
    ("classify --type G2 --qo 1_0", "cannot parse q_o list '1_0'"),
    ("series --type G2 --degree 3 --character [-1,1] --qo 2,", "cannot parse q_o list '2,'"),
    ("series --type G2 --degree 3 --character [-1,1] --qo 3,3", "q_o values repeat in '3,3'"),
    ("enumerate --type C_3 --degree 2", "cannot parse Cartan type label 'C_3'"),
    ("enumerate --type C03 --degree 2", "cannot parse Cartan type label 'C03'"),
    ("enumerate --type B٣ --degree 2", "cannot parse Cartan type label 'B٣'"),
    ("enumerate --type ' G2' --degree 2", "cannot parse Cartan type label ' G2'"),
    ("tables --type C_3", "cannot parse Cartan type label 'C_3'"),
    ("enumerate --type C3 --degree 1_0", "argument --degree: invalid int value: '1_0'"),
    ("enumerate --type C3 --degree ' 2 '", "argument --degree: invalid int value: ' 2 '"),
    ("enumerate --type C3 --degree ٣", "argument --degree: invalid int value: '٣'"),
    ("enumerate --type C3 --degree 2 --cap 1_000", "argument --cap: invalid int value: '1_000'"),
    ("series --type C3 --degree 2 --character ' Counting '", "cannot parse sign vector ' Counting '"),
    ("enumerate --degree 2", "the following arguments are required: --type"),
    ("tables", "the following arguments are required: --type"),
]


def _sign_vector(rng: random.Random, m: int) -> str:
    signs = [rng.choice(["-1", "1", "+1"]) for _ in range(m)]
    return rng.choice(["[{}]", "{}"]).format(rng.choice([",", ", "]).join(signs))


def _draw(rng: random.Random) -> tuple[list[tuple[str, str | None]], bool]:
    """One command as (option, value) pairs, and whether it is malformed."""
    command = rng.choice(["enumerate", "series", "expand", "check", "classify", "tables"])
    label = rng.choice(list(_TYPES))
    opts: list[tuple[str, str | None]] = [(command, None)]
    if command == "classify" and rng.random() < 0.1:
        opts.append(("--all-types", None))
    else:
        opts.append(("--type", label))
    if command not in ("classify", "tables"):
        opts.append(("--degree", rng.choice(_DEGREES)))
        if rng.random() < 0.3:
            opts.append(("--cap", rng.choice(_CAPS)))
    if command == "series" and rng.random() < 0.5:
        opts += [("--character", _sign_vector(rng, _TYPES[label])), ("--qo", rng.choice(_QO))]
    elif command == "series" and rng.random() < 0.5:
        opts.append(("--character", "counting"))
    if command == "classify":
        opts.append(("--qo", rng.choice(_QO_LISTS)))
        opts.append(("--format", rng.choice(["text", "json", "csv", "markdown"])))
    if command in ("enumerate", "series", "expand") and rng.random() < 0.5:
        opts.append(("--format", {"enumerate": "jsonl"}.get(command, "json")))
    if rng.random() < 0.1:
        opts.append(("--output", "-"))
    if rng.random() >= 0.4:
        return opts, False
    swappable = [i for i, (opt, _) in enumerate(opts) if opt in _MALFORMED]
    i = rng.choice(swappable)
    if rng.random() < 0.1 and opts[i][0] in ("--type", "--degree", "--qo"):
        del opts[i]  # a required option left out
    else:
        opts[i] = (opts[i][0], rng.choice(_MALFORMED[opts[i][0]]))
    return opts, True


def _argv(rng: random.Random, opts: list[tuple[str, str | None]]) -> list[str]:
    argv = []
    for opt, value in opts:
        if value is None:
            argv.append(opt)
        elif value.startswith("-") or rng.random() < 0.5:  # argparse reads "-1,1" as an option
            argv.append(f"{opt}={value}")
        else:
            argv += [opt, value]
    return argv


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seeded_argv_keep_the_exit_code_contract(monkeypatch, capsys):
    monkeypatch.delenv("GYOJA_MAX_ELEMENTS", raising=False)
    rng = random.Random(_SEED)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(_DRAWS):
        opts, malformed = _draw(rng)
        argv = _argv(rng, opts)
        code, out, err = _run(argv, capsys)
        assert code in range(5), argv
        if code == 0:
            assert err == "", argv
        if code == 1:
            assert out == "" and err.count("\n") == 1 and err.startswith("usage error: "), (argv, err)
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
        if malformed:
            assert code == 1, (argv, out, err)
        else:
            assert code == 0 or (code == 2 and "--cap" in dict(opts)), (argv, err)
        codes[code] += 1
    assert min(codes.values()) > 0 and 0.5 < codes[0] / _DRAWS < 0.7, codes


@pytest.mark.parametrize("command, message", _BAD, ids=[command for command, _ in _BAD])
def test_malformed_input_exits_1(command, message, monkeypatch, capsys):
    monkeypatch.delenv("GYOJA_MAX_ELEMENTS", raising=False)
    assert _run(shlex.split(command), capsys) == (1, "", f"usage error: {message}\n")


@pytest.mark.parametrize("value", [" 5 ", "1_0"])
def test_cap_variable_is_read_as_written(value, monkeypatch, capsys):
    monkeypatch.setenv("GYOJA_MAX_ELEMENTS", value)
    code, out, err = _run(["enumerate", "--type", "A2", "--degree", "3"], capsys)
    assert (code, out) == (1, "")
    assert err == f"usage error: GYOJA_MAX_ELEMENTS must be an integer >= 1, got {value!r}\n"


def test_is_integer_text():
    for text in ("0", "7", "+2", "-15", "007"):
        assert is_integer_text(text), text
    for text in ("", "+", "-", " 1", "1 ", "1_0", "٣", "３", "²", "1.0", "+-1", "--1", "0x1"):
        assert not is_integer_text(text), text
