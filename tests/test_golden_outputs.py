"""Passing runs keep their bytes.

``golden_outputs.json`` lists 36 ``ffc`` runs that ``perfbench/expected.json``
does not gate: ``zeta`` (text and json), ``places`` and ``verify`` on each
catalog curve, plus ``verify``, ``table64`` in two forms and
``selftest``.  Each entry holds the run's arguments, its exit code and the
sha256 of its stdout.  A change meant to alter a report rewrites the
entry from the new output and says why.

The two runs the benchmark gates, ``verify`` and ``table64`` with
``--format json``, are checked as the benchmark checks them: each in a
fresh ``python -W error -m ffcn.cli`` process, written to stdout and to
``--out``, parsed and digested by ``perfbench/gate.py`` and compared with
``perfbench/expected.json``.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffcn import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# workload in perfbench/expected.json -> the run it digests
GATED = {"catalog_verify": ["verify", "--format", "json"],
         "table64_search": ["table64", "--format", "json"]}
# every child imports ffcn from this checkout, whatever PYTHONPATH says
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_passing_run_keeps_its_bytes(capsys, case):
    assert cli.main(list(case["argv"])) == case["exit"]
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def _gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", PERFBENCH / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


@pytest.mark.parametrize("sink", ["stdout", "out"])
@pytest.mark.parametrize("workload", sorted(GATED))
def test_gated_report_matches_the_benchmark_digest(tmp_path, workload, sink):
    path = tmp_path / "report.json"
    args = GATED[workload] + (["--out", str(path)] if sink == "out" else [])
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ffcn.cli", *args],
                          capture_output=True, timeout=120, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if sink == "out":
        assert proc.stdout == b""
    gate = _gate()
    report, problems = gate.parse_report(path.read_bytes() if sink == "out" else proc.stdout)
    assert problems == []
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert gate.report_digest(report) == expected[workload]
