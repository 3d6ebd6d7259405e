"""Passing runs keep their bytes.

``golden_outputs.json`` lists 36 ``ffc`` runs that ``perfbench/expected.json``
does not gate: ``zeta`` (text and json), ``places`` and ``verify`` on each
catalog curve, plus ``verify``, ``table64`` in two forms and
``selftest``.  Each entry holds the run's arguments, its exit code and the
sha256 of its stdout.  A change meant to alter a report rewrites the
entry from the new output and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ffcn import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_passing_run_keeps_its_bytes(capsys, case):
    assert cli.main(list(case["argv"])) == case["exit"]
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]

