"""The command line's failure contract.  Every subcommand meets every
failure class that applies to it with exit status 2 and exactly one
`epk: error:` line; a closed standard output ends a command with status
141, and Ctrl-C with status 130, both with nothing on standard error."""

import argparse
import contextlib
import io
import os
import subprocess
import sys

import pytest

from epk import KripkeModel, cli
from helpers import fixture_path

# Each subcommand's arguments after the model path, on figure2.  "{tmp}"
# stands for a scratch directory.
COMMANDS = {
    "validate": ["validate"],
    "check": ["check", "--state", "1", "p"],
    "update offline": ["update", "offline", "g"],
    "update online": ["update", "online", "z", "--locals", "3"],
    "update lie-offline": ["update", "lie-offline", "--liar", "f", "--target", "g"],
    "update lie-online": ["update", "lie-online", "--liar", "m", "--new", "z", "--locals", "3"],
    "export-dot": ["export-dot", "-o", "{tmp}/out.dot"],
    "show": ["show"],
}
WRITERS = [c for c in COMMANDS if c.startswith("update") or c == "export-dot"]

# Failures of the model file: (file name in {tmp}, its content or None, message).
FILE_FAULTS = {
    "missing file": ("missing.json", None, "{model}: No such file or directory"),
    "directory": ("adir", None, "{model}: Is a directory"),
    "bad JSON": ("bad.json", '{"states": [', "{model}: line 1, column 13: Expecting value"),
    "bad document": ("doc.json", '{"states": []}', "{model}: model document is missing 'agents'"),
}

# Failures of an argument: (arguments after the model path, message).
ARGUMENT_FAULTS = {
    ("unknown state", "check"): (["check", "--state", "9", "p"], "unknown state: 9"),
    ("unknown state", "update online"): (["update", "online", "z", "--locals", "9"],
                                         "unknown state: 9"),
    ("unknown state", "update lie-online"): (
        ["update", "lie-online", "--liar", "m", "--new", "z", "--locals", "9"],
        "unknown state: 9"),
    ("unknown agent", "check"): (["check", "--agent", "zz", "p"], "unknown agent: zz"),
    ("unknown agent", "update offline"): (["update", "offline", "zz"], "unknown agent: zz"),
    ("unknown agent", "update lie-offline"): (
        ["update", "lie-offline", "--liar", "zz", "--target", "g"], "unknown agent: zz"),
    ("unknown agent", "update lie-online"): (
        ["update", "lie-online", "--liar", "zz", "--new", "z", "--locals", "3"],
        "unknown agent: zz"),
    ("hostile formula", "check"): (["check", "--global", "(" * 5000 + "p" + ")" * 5000],
                                   "parentheses nested more than 100 deep (at position 100)"),
}

# Failures of the output path: (output path, message).
OUTPUT_FAULTS = {
    "unwritable output": ("{tmp}/afile/out", "{out}: Not a directory"),
    "output is a directory": ("{tmp}/adir", "{out}: Is a directory"),
}


def with_output(argv, out):
    """`argv` writing to `out`: its -o replaced, or one added."""
    if "-o" in argv:
        k = argv.index("-o")
        return argv[:k + 1] + [out] + argv[k + 2:]
    return argv + ["-o", out]


CASES = (
    [pytest.param(fault, cmd, id=f"{fault}-{cmd}") for fault in FILE_FAULTS for cmd in COMMANDS]
    + [pytest.param(fault, cmd, id=f"{fault}-{cmd}") for fault, cmd in ARGUMENT_FAULTS]
    + [pytest.param(fault, cmd, id=f"{fault}-{cmd}") for fault in OUTPUT_FAULTS for cmd in WRITERS]
    + [pytest.param("out of memory", cmd, id=f"out of memory-{cmd}") for cmd in COMMANDS]
)


def out_of_memory(cls, *args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("fault, command", CASES)
def test_every_failure_is_one_error_line_and_exit_2(tmp_path, monkeypatch, fault, command):
    tmp = str(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    model = fixture_path("figure2")
    argv = [a.format(tmp=tmp) for a in COMMANDS[command]]
    if fault in FILE_FAULTS:
        name, content, message = FILE_FAULTS[fault]
        model = os.path.join(tmp, name)
        if content is not None:
            (tmp_path / name).write_text(content)
        message = message.format(model=model)
    elif fault in OUTPUT_FAULTS:
        out, message = OUTPUT_FAULTS[fault]
        out = out.format(tmp=tmp)
        argv, message = with_output(argv, out), message.format(out=out)
    elif fault == "out of memory":
        monkeypatch.setattr(KripkeModel, "build", classmethod(out_of_memory))
        message = "out of memory"
    else:
        argv, message = ARGUMENT_FAULTS[fault, command]
    out, err = io.StringIO(), io.StringIO()
    code = cli.main([model, *argv], out=out, err=err)
    assert (code, err.getvalue()) == (2, f"epk: error: {message}\n")


def subcommands(parser):
    """The subcommands `parser` takes, named as "update lie-online"."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                inner = list(subcommands(sub))
                yield from (f"{name} {x}" for x in inner) if inner else [name]


def test_the_table_has_every_subcommand():
    assert sorted(COMMANDS) == sorted(subcommands(cli.build_parser()))


@pytest.mark.parametrize("command, buffered", [
    *((cmd, True) for cmd in COMMANDS), ("show", False), ("update lie-online", False),
    ("--help", True), ("--help", False)])
def test_closed_stdout_exits_141_and_writes_nothing_to_stderr(tmp_path, command, buffered):
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [a.format(tmp=str(tmp_path)) for a in COMMANDS.get(command, [command])]
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the child writes
    try:
        done = subprocess.run([sys.executable, "-m", "epk", fixture_path("figure2"), *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


def test_main_writes_to_the_streams_of_the_moment():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main([fixture_path("figure2"), "check", "--global", "p"]) == 0
        assert cli.main([fixture_path("figure2"), "check", "--agent", "zz", "p"]) == 2
    assert (out.getvalue(), err.getvalue()) == ("false\n", "epk: error: unknown agent: zz\n")


def interrupted(cls, *args, **kwargs):
    raise KeyboardInterrupt


def test_ctrl_c_exits_130_and_writes_nothing_to_stderr(monkeypatch):
    monkeypatch.setattr(KripkeModel, "build", classmethod(interrupted))
    out, err = io.StringIO(), io.StringIO()
    assert cli.main([fixture_path("figure2"), "show"], out=out, err=err) == 130
    assert err.getvalue() == ""


@pytest.mark.filterwarnings("default::UserWarning")
def test_a_library_warning_is_one_line_on_stderr():
    out, err = io.StringIO(), io.StringIO()
    code = cli.main([fixture_path("figure2"), "update", "lie-offline", "--liar", "m",
                     "--target", "g"], out=out, err=err)
    assert (code, err.getvalue()) == (
        0, "epk: warning: lie_offline: C[m,g] does not hold before the lie; the informed "
           "agents' certainty of the target is not preserved\n")
