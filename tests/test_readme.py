"""The README states the contract: it names every command and option of the
CLI, every exit code, public name and report field, and each builtin map and
rhs kind with its parameters and defaults; its CLI examples run; it stays
short enough to read."""

import argparse
import inspect
import json
import math
import re
import shlex
from pathlib import Path

import svfrac
from svfrac import CaputoProblem, GridMap, cli, inclusion, run_verification, verify
from svfrac.cli import main
from svfrac.gridmap import _BUILTIN_KINDS
from svfrac.regularity import RegularityReport

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MAX_LINES = 300

# Each builtin map kind's parameters: their defaults as the README writes them,
# and as values on [0, 1].
BUILTIN_PARAMS = {
    "constant": {"lo": ("-1", -1.0), "hi": ("1", 1.0)},
    "sym_linear": {"slope": ("1", 1.0)},
    "affine": {"c_lo": ("0", 0.0), "s_lo": ("0.5", 0.5), "c_hi": ("1", 1.0), "s_hi": ("1", 1.0)},
    "abs_envelope": {"center": ("mid", 0.5)},
    "sin_envelope": {"amp": ("1", 1.0), "off": ("0.3", 0.3), "freq": ("2π", 2.0 * math.pi)},
    "hat": {"height": ("1", 1.0)},
}
# Each rhs kind's parameters and their defaults as the README writes them.
RHS_PARAMS = {
    "constant": {"lo": "1", "hi": "lo"},
    "symmetric": {"k": "1"},
    "time_identity": {"width": "0"},
    "affine": {"p": "0", "q_lo": "0", "q_hi": "0"},
}
PROBLEM = {"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 0.0, "u1": 0.0}


def section(title: str) -> str:
    """The README's text under the heading `title`, up to the next heading of
    the same or a higher level; lines in code fences are not headings."""
    lines, fenced, start, level = TEXT.splitlines(), False, None, 0
    for i, line in enumerate(lines):
        fenced ^= line.startswith("```")
        heading = re.match(r"(#+) (.*)", line) if not fenced else None
        if heading and start is not None and len(heading[1]) <= level:
            return "\n".join(lines[start:i])
        if heading and heading[2] == title:
            start, level = i + 1, len(heading[1])
    assert start is not None, f"no heading {title!r}"
    return "\n".join(lines[start:])


def row(text: str, key: str) -> str:
    """The table row of `text` whose first cell is `key` in backticks."""
    rows = [line for line in text.splitlines() if line.startswith(f"| `{key}` |")]
    assert len(rows) == 1, (key, rows)
    return rows[0]


def code_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def test_at_most_300_lines():
    assert len(TEXT.splitlines()) <= MAX_LINES


def test_every_command_and_option():
    """Each subcommand has a row in the CLI table that names each of its --options."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    table = section("CLI")
    for name, sub in commands.choices.items():
        cells = row(table, name)
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert f"`{option}`" in cells, (name, option)


def test_exit_codes():
    assert (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL, cli.EXIT_INPUT, cli.EXIT_PARAM) == (0, 1, 2, 3)
    table = section("Exit codes")
    for code in range(4):
        row(table, str(code))


def test_every_public_name():
    for name in svfrac.__all__:
        assert re.search(rf"`{name}\b", TEXT), name


def test_every_report_field_theorem_and_check():
    """The report fields, every theorem label and status of a run, and every
    check function of verify."""
    fields = RegularityReport("3.4", "f", 1.0, 0.0, 0.0, True, details={"x": 1.0}).to_json()
    outputs = section("Outputs")
    for key in fields:
        assert f"`{key}`" in outputs, key
    reports = run_verification(rhos=(0.5, 1.5), n_segments=4)
    for theorem in {r.theorem for r in reports}:
        assert re.search(rf"^\| `?{re.escape(theorem)}[` ]", TEXT, flags=re.M), theorem
    for status in {r.status for r in reports}:
        assert f"`{status}`" in TEXT, status
    for name in dir(verify):
        if name.startswith("check_"):
            assert f"`{name}`" in TEXT, name


def test_builtin_maps_and_their_parameters():
    """Each kind's row names each parameter with its default; the list is the
    code's: from_builtin takes each parameter, its default value gives the
    default map, and no parameter of from_builtin is missing from the list."""
    assert set(BUILTIN_PARAMS) == set(_BUILTIN_KINDS)
    popped = re.findall(r'params\.pop\("(\w+)"', inspect.getsource(GridMap.from_builtin))
    assert sorted(popped) == sorted(p for params in BUILTIN_PARAMS.values() for p in params)
    table = section("Builtin maps")
    for kind, params in BUILTIN_PARAMS.items():
        default = GridMap.from_builtin(kind, 0.0, 1.0, 8)
        for param, (text, value) in params.items():
            assert f"`{param}={text}`" in row(table, kind), (kind, param)
            given = GridMap.from_builtin(kind, 0.0, 1.0, 8, **{param: value})
            assert (given.rows == default.rows).all(), (kind, param)


def test_rhs_kinds_and_their_parameters():
    """Each rhs kind's row names each parameter with its default; a problem
    file takes each parameter, and the defaults give the field of no params."""
    assert set(RHS_PARAMS) == set(inclusion._RHS_BUILTINS)
    table = section("Problem spec")
    for kind, params in RHS_PARAMS.items():
        values = {}
        for param, text in params.items():
            assert f"`{param}={text}`" in row(table, kind), (kind, param)
            values[param] = values[text] if text in values else float(text)
        given = CaputoProblem.from_json({**PROBLEM, "rhs": {"kind": kind, "params": values}})
        default = CaputoProblem.from_json({**PROBLEM, "rhs": {"kind": kind}})
        assert given.rhs == default.rhs, kind


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Each `svfrac` line of the CLI block exits 0, in order, in a directory
    that holds the problem spec example as problem.json."""
    (problem,) = code_blocks(section("Problem spec"), "json")
    json.loads(problem)
    (tmp_path / "problem.json").write_text(problem)
    monkeypatch.chdir(tmp_path)
    (block,) = code_blocks(section("CLI"), "sh")
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("svfrac ")]
    assert len(commands) == len(block.splitlines())
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
