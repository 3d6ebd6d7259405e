"""The process entry point ``cli.run`` and the per-command parser.

``run`` ends the process with ``os._exit`` once the report is flushed, so
these tests start fresh processes and check that every report, message
and exit code still arrives.  The processes run with block-buffered
stdout (PYTHONUNBUFFERED unset), as a redirected ``ffc`` does: a dropped
flush then loses the whole report.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ffcn import __version__, cli

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(cli.__file__).resolve().parent.parent
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(SRC)
TOP_USAGE = "usage: ffc [-h] [--version] {verify,table64,zeta,places,selftest} ...\n"


def ffc(*args, **kw):
    """``python -m ffcn.cli ARGS``; stdout and stderr are captured unless
    given."""
    kw.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "ffcn.cli", *args], env=ENV,
                          stderr=subprocess.PIPE, text=True, **kw)


def in_process(capsys, *args):
    """The exit code and stdout of ``cli.main(ARGS)`` in this process."""
    code = cli.main(list(args))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("args", [("verify", "--format", "json"),
                                  ("table64", "--format", "csv")])
def test_report_redirected_to_a_file_is_complete(tmp_path, capsys, args):
    path = tmp_path / "report"
    with open(path, "w") as fh:
        proc = ffc(*args, stdout=fh)
    assert (proc.returncode, path.read_text()) == in_process(capsys, *args)
    assert proc.stderr == ""


def test_out_file_is_complete(tmp_path, capsys):
    path = tmp_path / "report.json"
    proc = ffc("verify", "--format", "json", "--out", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert path.read_text() == in_process(capsys, "verify", "--format", "json")[1]


def test_version_exits_zero():
    proc = ffc("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, __version__ + "\n", "")


def test_usage_error_exits_two_with_argparse_message():
    proc = ffc("verify", "--bogus")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == TOP_USAGE + "ffc: error: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("args", [("--version",), ("selftest",), ("table64",)])
def test_report_that_cannot_be_written_exits_120(args):
    # a closed pipe: the interpreter's flush at exit would print this and
    # exit 120.  The CSV of table64 (4.6 KB) is larger than a pipe's
    # buffer, so a failed flush drops it and nothing is left to fail later
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = ffc(*args, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert re.fullmatch(r"Exception ignored in: <_io\.TextIOWrapper name='<stdout>'"
                        r"[^\n]*>\nBrokenPipeError: \[Errno 32\] Broken pipe\n",
                        proc.stderr)


def test_main_in_process_returns_an_int(capsys):
    code = cli.main(["verify", "--curve", "i"])
    assert type(code) is int and code == 0
    assert capsys.readouterr().out.endswith("\noverall: pass\n")


def test_script_entry_is_run():
    # the text of pyproject.toml: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^ffc\s*=\s*"([^"]*)"', scripts, re.M) == ["ffcn.cli:run"]
    assert callable(cli.run)
    # the way an installed console script calls it
    code = "import sys; from ffcn.cli import run; sys.argv[1:] = ['--version']; sys.exit(run())"
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, __version__ + "\n", "")


def _parse(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["table64", "--help"],
                                  ["bogus"], ["verify", "--bogus"], [], ["--version"]])
def test_parser_for_one_command_answers_like_the_full_parser(capsys, argv):
    partial = cli.build_parser(argv[0] if argv else None)
    assert _parse(partial, argv, capsys) == _parse(cli.build_parser(), argv, capsys)


def test_parser_for_one_command_builds_only_its_subparser():
    (sub,) = cli.build_parser("zeta")._subparsers._group_actions
    assert list(sub.choices) == ["zeta"]
    (sub,) = cli.build_parser("bogus")._subparsers._group_actions
    assert list(sub.choices) == list(cli.COMMANDS)
    args = ["places", "--curve", "vii", "--max-place-degree", "3"]
    assert cli.build_parser("places").parse_args(args) == cli.build_parser().parse_args(args)
