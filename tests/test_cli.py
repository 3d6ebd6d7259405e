import hashlib
import json
import os
import random
import subprocess
import sys
import types

import pytest

from ffcn import cli, covers, table64, varieties, zeta
from ffcn.catalog import (DEFAULT_CATALOG, build_model, count_depth, dump_catalog,
                          get_entry)
from ffcn.gf import GF, make_field

CMD = [sys.executable, "-m", "ffcn.cli"]
# every child imports ffcn from this checkout, whatever PYTHONPATH says
SRC = os.path.dirname(os.path.dirname(cli.__file__))
ENV = dict(os.environ, PYTHONPATH=SRC)


def run_cli(*args, check=False, timeout=None):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True,
                          timeout=timeout, env=ENV)
    if check and proc.returncode != 0:
        raise AssertionError(proc.stderr or proc.stdout)
    return proc


@pytest.mark.parametrize("command", ["verify", "zeta", "places"])
def test_unknown_curve_exits_two_with_the_plain_message(command):
    proc = run_cli(command, "--curve", "ix")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: no curve 'ix' in the catalog\n"


def test_cli_loads_only_the_standard_library():
    # no runtime math dependencies: with site-packages switched off (-S),
    # importing the CLI loads ffcn and standard-library modules only
    code = "import sys, ffcn.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=ENV, check=True)
    roots = {name.partition(".")[0] for name in proc.stdout.split()}
    assert roots - sys.stdlib_module_names - {"__main__"} == {"ffcn"}


def test_cli_import_stays_light():
    # the records are plain classes: importing the CLI must not pull in
    # dataclasses (and with it inspect, ast and dis) or typing
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis")
    code = f"import sys, ffcn.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=ENV, check=True)
    assert proc.stdout.split() == []


def test_verify_single_curve():
    proc = run_cli("verify", "--curve", "i", "--format", "json", check=True)
    report = json.loads(proc.stdout)
    (record,) = report["curves"]
    assert record["genus_computed"] == 1
    assert record["h_computed"] == 1
    assert record["l_coeffs"] == [1, -2, 2]
    assert report["status"] == "pass"


def test_verify_all_curves_exit_zero():
    proc = run_cli("verify", "--format", "json", check=True)
    report = json.loads(proc.stdout)
    assert [r["id"] for r in report["curves"]] == [
        "i", "ii", "iii", "iv", "v", "vi", "vii", "viii"]
    assert all(r["status"] == "pass" for r in report["curves"])


def test_verify_viii_census():
    proc = run_cli("verify", "--curve", "viii", "--format", "json", check=True)
    (record,) = json.loads(proc.stdout)["curves"]
    assert record["genus_computed"] == 4
    assert record["census"] == [0, 0, 0, 1, 3]


def test_tampered_catalog_exits_one(tmp_path):
    items = json.loads(dump_catalog())
    items[0]["genus"] = 7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(items))
    proc = run_cli("verify", "--catalog", str(path), "--curve", "i")
    assert proc.returncode == 1
    assert proc.stdout.endswith("\noverall: fail\n")


@pytest.mark.parametrize("data", [{}, {"f": "x^4+q"}])
def test_malformed_catalog_entry_exits_two(tmp_path, data):
    items = json.loads(dump_catalog())
    items[0]["data"] = data
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(items))
    proc = run_cli("verify", "--catalog", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error: ")
    assert "Traceback" not in proc.stderr


ZERO_DENOMINATORS = ["x^3+x+1/0", "x^3+x+1/(x+x)"]


@pytest.mark.parametrize("f", ZERO_DENOMINATORS)
@pytest.mark.parametrize("command", ["zeta", "places"])
def test_zero_denominator_in_model_exits_two(tmp_path, command, f):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "artin_schreier", "p": 2, "k": 1, "f": f}))
    proc = run_cli(command, "--model", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"input error: zero denominator in rational function {f!r}\n"


@pytest.mark.parametrize("f", ZERO_DENOMINATORS)
def test_zero_denominator_in_catalog_exits_two(tmp_path, f):
    items = json.loads(dump_catalog())
    items[0]["data"] = {"f": f}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(items))
    proc = run_cli("verify", "--catalog", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"input error: zero denominator in rational function {f!r}\n"


# covers outside the handled standard form are unusable input (exit 2)
NONSTANDARD_COVERS = [
    ({"kind": "artin_schreier", "p": 2, "k": 1, "f": "x^2"},
     "even pole order 2 at Place(infinity): not in standard form"),
    ({"kind": "kummer", "p": 3, "k": 1, "f": "0"}, "right-hand side is identically zero"),
    ({"kind": "artin_schreier", "p": 3, "k": 1, "f": "x^3+x"},
     "Artin-Schreier covers need characteristic 2"),
]


@pytest.mark.parametrize("spec,message", NONSTANDARD_COVERS,
                         ids=["even-pole", "zero", "characteristic"])
@pytest.mark.parametrize("command", ["zeta", "places", "verify"])
def test_nonstandard_cover_exits_two(tmp_path, capsys, command, spec, message):
    path = tmp_path / "input.json"
    if command == "verify":
        item = json.loads(dump_catalog())[5]  # curve vi, a Kummer cover over GF(3)
        item.update(kind=spec["kind"], p=spec["p"], k=spec["k"], data={"f": spec["f"]})
        path.write_text(json.dumps([item]))
        args = ["verify", "--catalog", str(path)]
    else:
        path.write_text(json.dumps(spec))
        args = [command, "--model", str(path)]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


# y^2 = x^5 is rational: v = 5 at x and v = -5 at infinity are odd, and
# ramify as v = 1 and v = -1 do
QUINTIC_KUMMER = {"curve_id": "quintic", "p": 3, "k": 1, "genus": 0, "class_number": 1,
                  "kind": "kummer", "data": {"f": "x^5"}, "equation": "y^2=x^5"}


def test_kummer_cover_with_valuations_beyond_three(tmp_path, capsys):
    model, catalog = tmp_path / "model.json", tmp_path / "catalog.json"
    model.write_text(json.dumps({"kind": "kummer", "p": 3, "k": 1, "f": "x^5"}))
    catalog.write_text(json.dumps([QUINTIC_KUMMER]))

    def report(*args):
        assert cli.main(list(args) + ["--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return json.loads(out)

    zeta = report("zeta", "--model", str(model))
    assert (zeta["genus"], zeta["h"], zeta["l_coeffs"], zeta["counts"]) == (
        0, 1, [1], [4, 10, 28, 82, 244])
    places = report("places", "--model", str(model))
    assert places["census"] == {"1": 4, "2": 3, "3": 8, "4": 18, "5": 48}
    (curve,) = report("verify", "--catalog", str(catalog))["curves"]
    assert (curve["genus_computed"], curve["h_computed"], curve["l_coeffs"],
            curve["census"], curve["status"]) == (0, 1, [1], [4, 3, 8, 18, 48], "pass")


@pytest.mark.parametrize("command,label", [
    ("zeta", "model error"), ("places", "model error"), ("verify", "verification error")])
@pytest.mark.parametrize("target,message", [
    ("cover_genus", "Hurwitz formula gives non-genus 2g = -3"),
    ("place_census", "N_1 = 9 violates the Weil bound: constant field extension?")],
    ids=["hurwitz", "weil"])
def test_cover_failing_a_theorem_exits_one(monkeypatch, capsys, command, label,
                                           target, message):
    def fail(*args):
        raise covers.InvalidCoverError(message)

    monkeypatch.setattr(covers, target, fail)
    assert cli.main([command, "--curve", "i"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    if target == "place_census":  # met while counting, after the genus
        label = {"zeta": "zeta pipeline error", "places": "census error"}.get(command, label)
    assert err == f"{label}: {message}\n"


@pytest.mark.parametrize("drop,add,message", [
    (("genus", "data"), {}, "catalog entry 'i' lacks the keys 'genus', 'data'"),
    ((), {"colour": "blue", "age": 3},
     "catalog entry 'i' has the unknown keys 'age', 'colour'"),
    (("kind",), {"kinds": "kummer"},
     "catalog entry 'i' lacks the keys 'kind' and has the unknown keys 'kinds'"),
], ids=["missing", "unknown", "both"])
def test_catalog_entry_keys_are_named(tmp_path, drop, add, message):
    items = json.loads(dump_catalog())
    items[0] = {key: value for key, value in items[0].items() if key not in drop}
    items[0].update(add)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(items))
    proc = run_cli("verify", "--catalog", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {message}\n"


def test_missing_catalog_exits_two():
    proc = run_cli("verify", "--catalog", "/nonexistent/catalog.json")
    assert proc.returncode == 2


def test_table64_csv_contract():
    proc = run_cli("table64", check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == ("family,mask,quadric,paper_witness,paper_degree,"
                        "witness_on_curve,computed_min_degree,"
                        "computed_witness,status")
    assert len(lines) == 65
    assert all(line.endswith(",pass") for line in lines[1:])
    assert "\r" not in proc.stdout  # LF line endings


def test_table64_survivor_summary():
    proc = run_cli("table64", "--format", "json", check=True)
    summary = json.loads(proc.stdout)["summary"]
    assert summary["survivors"] == [{"family": 2, "mask": "1011"}]
    analysis = summary["survivor_analysis"]
    assert analysis["h"] == 1
    assert analysis["census"] == [0, 0, 0, 1, 3]


def test_table64_survivor_mismatch_exits_one(monkeypatch, capsys):
    real = zeta.extend_counts

    def wrong_n5(L, up_to):
        counts = list(real(L, up_to).counts)
        counts[4] += 1
        return types.SimpleNamespace(counts=tuple(counts))

    monkeypatch.setattr(zeta, "extend_counts", wrong_n5)
    assert cli.main(["table64", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "survivor analysis error: N_5: enumeration 15 vs L-extension 16\n"


def _viii_counts_changed(monkeypatch, n, delta):
    """Add delta to N_n of every space curve counted in this process (viii's)."""
    real = varieties.SpaceCurve.counts

    def counts(model, *args):
        N = list(real(model, *args))
        N[n - 1] += delta
        return N

    monkeypatch.setattr(varieties.SpaceCurve, "counts", counts)


def test_verify_miscount_is_a_problem_line_in_a_full_report(monkeypatch, capsys):
    # N_1 + 1 leaves Newton's e_2 non-integral: a failing record, not a bare exit
    _viii_counts_changed(monkeypatch, 1, 1)
    assert cli.main(["verify", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    records = {r["id"]: r for r in report["curves"]}
    assert list(records) == [e.curve_id for e in DEFAULT_CATALOG]
    assert [r["status"] for r in records.values()].count("pass") == 7
    assert records["viii"]["status"] == "fail"
    assert "Newton identity gives non-integer e_2 = -1/2" in records["viii"]["problems"]
    assert report["status"] == "fail"


def test_zeta_cross_check_mismatch_exits_one(monkeypatch, capsys):
    # N_5 + 5 keeps the census integral (one more place of degree 5), but
    # the L of N_1..N_4 extends to N_5 = 15
    _viii_counts_changed(monkeypatch, 5, 5)
    assert cli.main(["zeta", "--curve", "viii"]) == 1
    assert capsys.readouterr() == (
        "", "zeta pipeline error: N_5: enumeration 20 vs L-extension 15\n")


def test_table64_witness_mismatch_exits_one(monkeypatch, capsys):
    # the pencil reports no point for family 3 mask 1100, which has one
    # of degree 1: the survivor confirmation must catch it
    row = table64.build_family()[32 + 12]
    real = table64.pencil_witness
    monkeypatch.setattr(table64, "pencil_witness",
                        lambda model, d_max: (None if model == row.model and d_max == 3
                                              else real(model, d_max)))
    assert cli.main(["table64", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("survivor search error: family 3 mask 1100: the pencil found "
                   "no point of degree <= 3, the curve has (0:1:1:0) of degree 1\n")


# sha256 of reports the benchmark's digests do not cover, at the commit
# before the pencil search gave every witness
TABLE64_DIGESTS = {
    ("--format", "csv"): "110df98d6785e83355f2a39dd94f32f317383bebb4d0a7b6f759c838c1d5dbd0",
    ("--format", "text"): "f5d8fe7774112a2ede2f45ccdfde70b9cf3851a3f0632cfaa9a4dec1eb2372b3",
    ("--format", "json", "--dmax", "1"):
        "5569843e466340ca7ad44c6c377226310b37be1f1689834889d0fedb407e249f",
    ("--format", "json", "--dmax", "2"):
        "3a9a6d0d110edad2ba5294e22ab73a25fe2d736053b7e7b522188686aca9e8f7",
    ("--format", "json", "--dmax", "3"):
        "f02aa5c2c7f3e5b2f43e61ee3dec1c72617c99e6c55214718febdef84261c7c1",
}


@pytest.mark.parametrize("args", list(TABLE64_DIGESTS), ids=" ".join)
def test_table64_reports_are_pinned(args):
    proc = subprocess.run(CMD + ["table64", *args], capture_output=True, timeout=60,
                          env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == TABLE64_DIGESTS[args]


def test_table64_truncated_dmax():
    proc = run_cli("table64", "--dmax", "1", "--format", "json", check=True)
    summary = json.loads(proc.stdout)["summary"]
    assert summary["survivor_undetermined"] is True
    assert "survivors" not in summary


def test_reports_identical_run_to_run():
    first = run_cli("table64", check=True)
    second = run_cli("table64", check=True)
    assert first.stdout == second.stdout
    v1 = run_cli("verify", "--format", "json", check=True)
    v2 = run_cli("verify", "--format", "json", check=True)
    assert v1.stdout == v2.stdout


def test_zeta_catalog_curve():
    proc = run_cli("zeta", "--curve", "i", "--format", "json", check=True)
    report = json.loads(proc.stdout)
    assert report["l_coeffs"] == [1, -2, 2]
    assert report["h"] == 1


def test_zeta_rational_stub(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"kind": "rational", "p": 2, "k": 1}))
    proc = run_cli("zeta", "--model", str(path), "--format", "json", check=True)
    report = json.loads(proc.stdout)
    assert report["l_coeffs"] == [1]
    assert report["h"] == 1
    assert report["counts"] == [3, 5, 9, 17, 33]


def test_zeta_singular_model_exits_one(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps({"kind": "plane_quartic", "p": 2, "k": 1,
                                "poly": "y^2z^2+x^4", "vars": ["x", "y", "z"]}))
    proc = run_cli("zeta", "--model", str(path))
    assert proc.returncode == 1


def test_zeta_requires_exactly_one_source(tmp_path):
    assert run_cli("zeta").returncode == 2
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"kind": "rational", "p": 2, "k": 1}))
    assert run_cli("zeta", "--curve", "i", "--model", str(path)).returncode == 2


@pytest.mark.parametrize("command", ["zeta", "places"])
@pytest.mark.parametrize("spec", [
    {"kind": "hyperelliptic", "p": 2, "k": 1, "f": "x^3+x+1"},
    {"kind": "artin_schreier", "p": 2, "k": 1},
    {"kind": "space_curve", "p": 2, "k": 1, "cubic": "x1^3",
     "vars": ["x1", "x2", "x3", "x4"]},
    {"p": 2, "k": 1, "f": "x^3+x+1"},
    [{"kind": "rational", "p": 2, "k": 1}],
], ids=["unknown-kind", "no-f", "no-quadric", "no-kind", "list"])
def test_bad_model_spec_exits_two(tmp_path, capsys, command, spec):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert cli.main([command, "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


# y^2 + y = x over GF(2^11): its degree-2 places need GF(2^22), beyond the
# budget and the field limit, so the run is refused before any field is built
WIDE_MODEL = {"kind": "artin_schreier", "p": 2, "k": 11, "f": "x"}


def _beyond_budget(size):
    return (f"input error: the run would enumerate {size} candidates in one field, "
            f"beyond the budget of {varieties.ENUMERATION_BUDGET}\n")


@pytest.mark.parametrize("command,degree", [
    (["places", "--max-place-degree", "2"], 2), (["zeta"], 5)], ids=["places", "zeta"])
def test_residue_field_out_of_range_exits_two(tmp_path, capsys, command, degree):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(WIDE_MODEL))
    assert cli.main(command + ["--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _beyond_budget(2 ** (11 * degree))


@pytest.mark.parametrize("select", [[], ["--curve", "i"]], ids=["catalog", "curve-i"])
def test_catalog_field_out_of_range_exits_two(tmp_path, select):
    items = json.loads(dump_catalog())
    items[0].update(k=11, data={"f": "x"})
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(items))
    proc = run_cli("verify", "--catalog", str(path), *select)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == _beyond_budget(2 ** 55)  # GF(2^55) at the default degree 5


BAD_TERM = "input error: bad term 'q' in polynomial 'x^4+q': "


def test_parse_error_names_the_polynomial_and_term(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "artin_schreier", "p": 2, "k": 1, "f": "x^4+q"}))
    assert cli.main(["zeta", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(BAD_TERM)
    items = json.loads(dump_catalog())
    items[0]["data"] = {"f": "x^4+q"}
    items[7]["data"] = dict(items[7]["data"], quadric="x1^2+q*x2")
    for bad, message in ((0, BAD_TERM),
                         (7, "input error: bad term 'qx2' in polynomial 'x1^2+q*x2': ")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([items[bad]]))
        assert cli.main(["verify", "--catalog", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(message)


@pytest.mark.parametrize("curve_id", [e.curve_id for e in DEFAULT_CATALOG])
def test_places_and_zeta_agree_with_verify(capsys, curve_id):
    def report(*args):
        assert cli.main(list(args) + ["--curve", curve_id, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    (record,) = report("verify")["curves"]
    zeta = report("zeta")
    places = report("places")
    census = {str(d): b for d, b in enumerate(record["census"], start=1)}
    assert places["census"] == census
    assert zeta["census"] == census
    assert zeta["l_coeffs"] == record["l_coeffs"]
    assert zeta["genus"] == places["genus"] == record["genus_computed"]


def test_places_output():
    proc = run_cli("places", "--curve", "viii", "--format", "json", check=True)
    report = json.loads(proc.stdout)
    assert report["census"] == {"1": 0, "2": 0, "3": 0, "4": 1, "5": 3}


def test_selftest_passes():
    proc = run_cli("selftest", check=True)
    assert "selftest: pass" in proc.stdout


def test_selftest_fails_under_optimize_when_a_check_breaks():
    # python -O strips assert statements; the checks must still run
    code = ("import sys, ffcn.polyring as pr; real = pr.irreducible_count; "
            "pr.irreducible_count = lambda q, d: real(q, d) + 1; "
            "from ffcn.cli import main; sys.exit(main(['selftest']))")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 1
    assert "[FAIL] irreducible counts match the divisor-sum formula" in proc.stdout
    assert proc.stdout.endswith("selftest: fail\n")
    assert "Traceback" not in proc.stderr


def test_selftest_fails_when_trace_is_wrong(monkeypatch, capsys):
    # the splitting check counts y-roots itself, so a wrong trace shows
    monkeypatch.setattr(GF, "trace", lambda self, a: 0)
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] splitting types match y-root counts" in out
    assert out.endswith("selftest: fail\n")


def test_selftest_fails_when_a_listed_polynomial_is_reducible(monkeypatch, capsys):
    # the count stays right; only the per-polynomial checks can see it
    real = cli.monic_irreducibles
    F4 = make_field(2, 2)
    quadratics = real(F4, 2)
    reducible = quadratics[0] * quadratics[1]

    def swapped(field, d):
        polys = real(field, d)
        return (reducible,) + polys[1:] if (field, d) == (F4, 4) else polys

    monkeypatch.setattr(cli, "monic_irreducibles", swapped)
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert (f"[FAIL] irreducible counts match the divisor-sum formula: "
            f"{reducible} over GF(2^2) is reducible") in out
    assert out.endswith("selftest: fail\n")


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "report.csv"
    proc = run_cli("table64", "--out", str(path), check=True)
    assert proc.stdout == ""
    assert path.read_text().splitlines()[0].startswith("family,")


def test_unwritable_out_exits_two():
    proc = run_cli("selftest", "--out", "/nonexistent/dir/report.txt")
    assert proc.returncode == 2


# covers whose support walk alone visits GF(2^19) or GF(3^11): reading
# their genus takes about a minute, so the check must come before it
COSTLY_COVERS = {
    "as-x19": {"kind": "artin_schreier", "p": 2, "k": 1, "f": "x^19+x+1"},
    "kummer-x11": {"kind": "kummer", "p": 3, "k": 1, "f": "x/(x^11+x+2)"},
}


def _write_costly_covers(tmp_path) -> dict:
    """{file name: path} of a model file and a one-entry catalog per cover."""
    files = {}
    for name, spec in COSTLY_COVERS.items():
        entry = {"curve_id": name, "p": spec["p"], "k": spec["k"], "genus": 1,
                 "class_number": 1, "kind": spec["kind"], "data": {"f": spec["f"]},
                 "equation": ""}
        for suffix, content in (("model", spec), ("catalog", [entry])):
            path = tmp_path / f"{name}.{suffix}.json"
            path.write_text(json.dumps(content))
            files[path.name] = str(path)
    return files


# each would run for minutes or hours: refused at once, or the test times out
@pytest.mark.parametrize("args", [
    ["zeta", "--curve", "viii", "--probe-depth", "20"],
    ["zeta", "--curve", "iv", "--counts-up-to", "14"],
    ["places", "--curve", "vii", "--max-place-degree", "10"],
    ["places", "--curve", "i", "--max-place-degree", "30"],
    ["verify", "--max-place-degree", "17"],
    ["verify", "--curve", "viii", "--probe-depth", "10"],
    # the size of a huge degree is computed at the cap, not as a power
    ["places", "--curve", "i", "--max-place-degree", "1000000000"],
    ["zeta", "--curve", "vii", "--counts-up-to", "1000000000"],
] + [[command, option, f"{name}.{suffix}.json"]
     for name in COSTLY_COVERS
     for command, option, suffix in (("zeta", "--model", "model"),
                                     ("places", "--model", "model"),
                                     ("verify", "--catalog", "catalog"))],
    ids=lambda args: "-".join(a.lstrip("-") for a in args))
def test_costly_runs_are_refused_before_any_work(tmp_path, args):
    files = _write_costly_covers(tmp_path)
    proc = run_cli(*[files.get(a, a) for a in args], timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error: the run would enumerate ")
    assert proc.stderr.endswith(f"beyond the budget of {varieties.ENUMERATION_BUDGET}\n")


def _run_capped(*args):
    """run_cli with the child's address space capped at 512 MB and a
    timeout: a malformed input that the program lays out densely fails
    fast instead of loading the machine."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          timeout=20, preexec_fn=cap, env=ENV)


def _as_catalog(spec) -> list:
    return [{"curve_id": "bad", "p": spec["p"], "k": spec["k"], "genus": 1,
             "class_number": 1, "kind": spec["kind"],
             "data": {key: spec[key] for key in spec if key not in ("p", "k", "kind")},
             "equation": ""}]


HUGE_DEGREE = "the run would enumerate 262144 candidates in one field, beyond the budget of 131072"
# an exponent past int()'s 4300 digits, and one that int() still reads
LONG, READABLE = "9" * 5000, "9" * 4000
TOO_LONG = "exponent of 5000 digits is too long to read"
MALFORMED = {
    # a cover's f of huge degree, or a huge power on either side of its /,
    # must be refused before its coefficients are laid out densely
    "as-x1e7": ({"kind": "artin_schreier", "p": 2, "k": 1, "f": "x^10000000+x+1"}, HUGE_DEGREE),
    "as-x1e8": ({"kind": "artin_schreier", "p": 2, "k": 1, "f": "x^100000000+x+1"}, HUGE_DEGREE),
    "kummer-den-power": ({"kind": "kummer", "p": 3, "k": 1, "f": "x/(x^2+1)^100000000"},
                         "the run would enumerate 387420489 candidates in one field, "
                         "beyond the budget of 131072"),
    "kummer-num-power": ({"kind": "kummer", "p": 3, "k": 1, "f": "(x^2+1)^100000000/x"},
                         "the run would enumerate 387420489 candidates in one field, "
                         "beyond the budget of 131072"),
    # a plane quartic of any other degree
    "quartic-x1e7": ({"kind": "plane_quartic", "p": 2, "k": 1,
                      "poly": "x^10000000+y^10000000+z^10000000", "vars": ["x", "y", "z"]},
                     "a plane quartic needs a form of degree 4, not of degree 10000000"),
    "quartic-cubic": ({"kind": "plane_quartic", "p": 2, "k": 1, "poly": "x^3+y^3+z^3",
                       "vars": ["x", "y", "z"]},
                      "a plane quartic needs a form of degree 4, not of degree 3"),
    # p and k must be ints, and a bool is not one
    "k-true": ({"kind": "artin_schreier", "p": 2, "k": True, "f": "x^3+x+1"},
               "model spec key 'k' must be an integer, not True"),
    "p-string": ({"kind": "artin_schreier", "p": "2", "k": 1, "f": "x^3+x+1"},
                 "model spec key 'p' must be an integer, not '2'"),
    "k-float": ({"kind": "rational", "p": 2, "k": 1.0},
                "model spec key 'k' must be an integer, not 1.0"),
    # an exponent too long to read is named with its term or power
    "as-x-5000-digits": ({"kind": "artin_schreier", "p": 2, "k": 1, "f": f"x^{LONG}"},
                         f"bad term 'x^{LONG}' in polynomial 'x^{LONG}': {TOO_LONG}"),
    "as-power-5000-digits": ({"kind": "artin_schreier", "p": 2, "k": 1, "f": f"x/(x+1)^{LONG}"},
                             f"bad power '(x+1)^{LONG}': {TOO_LONG}"),
    "quartic-5000-digits": ({"kind": "plane_quartic", "p": 2, "k": 1,
                             "poly": f"x^4+y^4+z^4+x^{LONG}y", "vars": ["x", "y", "z"]},
                            f"bad term 'x^{LONG}y' in polynomial 'x^4+y^4+z^4+x^{LONG}y': "
                            f"{TOO_LONG}"),
    "as-x-4000-digits": ({"kind": "artin_schreier", "p": 2, "k": 1, "f": f"x^{READABLE}"},
                         HUGE_DEGREE),
    "as-power-4000-digits": ({"kind": "artin_schreier", "p": 2, "k": 1,
                              "f": f"x/(x+1)^{READABLE}"}, HUGE_DEGREE),
}


@pytest.mark.parametrize("name", list(MALFORMED))
@pytest.mark.parametrize("args", [
    ["zeta", "--model"], ["places", "--max-place-degree", "1", "--probe-depth", "1", "--model"],
    ["verify", "--catalog"]], ids=["zeta", "places", "verify"])
def test_malformed_model_exits_two_before_any_work(tmp_path, name, args):
    spec, message = MALFORMED[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_as_catalog(spec) if args[0] == "verify" else spec))
    proc = _run_capped(*args, str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("args", [
    ["verify", "--probe-depth", "0"],
    ["table64", "--probe-depth", "0"],
    ["zeta", "--curve", "i", "--probe-depth", "0"],
    ["places", "--curve", "i", "--probe-depth", "0"],
    ["table64", "--dmax", "0"],
    ["verify", "--max-place-degree", "0"],
    ["places", "--curve", "i", "--max-place-degree", "0"],
    ["zeta", "--curve", "i", "--counts-up-to", "0"],
], ids=lambda args: "-".join(a.lstrip("-") for a in args))
def test_a_bound_below_one_exits_two(capsys, args):
    option = args[-2]
    assert cli.main(args) == 2
    assert tuple(capsys.readouterr()) == ("", f"{option} must be >= 1\n")


def test_costly_table64_is_refused(capsys):
    assert cli.main(["table64", "--probe-depth", "9"]) == 2
    assert cli.main(["table64", "--dmax", "9"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("input error: the run would enumerate 262657 candidates") == 2


def test_table64_pencil_walks_no_surface_beyond_the_budget(monkeypatch, capsys):
    # family 4 closes at degree 3, where its surface is scanned in x4:
    # 73 prefixes of P^2(GF(8)) times 8; the rows' own curves need 73
    monkeypatch.setattr(varieties, "ENUMERATION_BUDGET", 583)
    table64._pencil.cache_clear()
    assert cli.main(["table64", "--dmax", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("input error: the run would enumerate 584 candidates in one "
                   "field, beyond the budget of 583\n")
    monkeypatch.setattr(varieties, "ENUMERATION_BUDGET", 584)
    assert cli.main(["table64", "--dmax", "3"]) == 0
    table64._pencil.cache_clear()


def test_budget_admits_the_largest_runs_in_use():
    # verify --max-place-degree 7 (the deepest verify that tests and the
    # report checks run) with probe depth 8, on every catalog curve
    for entry in DEFAULT_CATALOG:
        model = build_model(entry)
        cli._check_cost(model, count_depth(model, 7), 8)
    sizes = {e.curve_id: build_model(e).enumeration_size(8, 8) for e in DEFAULT_CATALOG}
    assert sizes == {"i": 2 ** 8, "ii": 2 ** 8, "iii": 2 ** 8, "iv": 257 * 256,
                     "v": 257 * 256, "vi": 3 ** 8, "vii": 4 ** 8,
                     "viii": 2 ** 16 + 2 ** 8 + 1}
    assert max(sizes.values()) <= varieties.ENUMERATION_BUDGET


def test_budget_admits_curve_i_to_degree_17_only():
    # a census of a cover over GF(2) to degree d walks GF(2^d): GF(2^17),
    # the largest binary field, is admitted; GF(2^18) is refused
    model = build_model(get_entry("i"))
    cli._check_cost(model, 17, 6)
    with pytest.raises(ValueError, match="enumerate 262144 candidates"):
        cli._check_cost(model, 18, 6)


# ---------------------------------------------------------------------------
# wrong-typed, stray and misspelt input: each exits 2 with one input error

BAD_JSON_VALUES = [None, True, 3.5, [], {}]
TEXT_KEYS = ("curve_id", "kind", "equation", "f", "poly", "cubic", "quadric")


def _wrong_typed_inputs():
    """pytest params (command, input file content) with one key of a
    catalog entry or of a model spec replaced by a wrong-typed JSON value;
    the entry, the spec of each kind and the command are drawn by a
    seeded generator."""
    rng = random.Random(20261019)
    items = json.loads(dump_catalog())
    cases = []
    for key in items[0]:
        for value in BAD_JSON_VALUES + [5] * (key in TEXT_KEYS):
            catalog = [dict(item) for item in items]
            entry = rng.choice(catalog)
            entry[key] = value
            cases.append(pytest.param(["verify", "--catalog"], catalog,
                                      id=f"verify-{key}-{json.dumps(value)}"))
    specs = [{"kind": "rational", "p": 2, "k": 1}]
    for kind in sorted({item["kind"] for item in items}):
        item = rng.choice([item for item in items if item["kind"] == kind])
        specs.append({"kind": kind, "p": item["p"], "k": item["k"], **item["data"]})
    for spec in specs:
        for key in spec:
            for value in BAD_JSON_VALUES + [5] * (key in TEXT_KEYS):
                command = rng.choice(["zeta", "places"])
                cases.append(pytest.param([command, "--model"], dict(spec, **{key: value}),
                                          id=f"{command}-{spec['kind']}-{key}-{json.dumps(value)}"))
    return cases


@pytest.mark.parametrize("args,content", _wrong_typed_inputs())
def test_wrong_typed_input_exits_two(tmp_path, capsys, args, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert cli.main(args + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value,message", [
    ("genus", True, "catalog entry 'i' key 'genus' must be an integer, not True"),
    ("class_number", 1.0, "catalog entry 'i' key 'class_number' must be an integer, not 1.0"),
    ("curve_id", 3, "catalog entry 3 key 'curve_id' must be text, not 3"),
    ("equation", None, "catalog entry 'i' key 'equation' must be text, not None"),
    ("data", [], "catalog entry 'i' key 'data' must be a JSON object, not []"),
    ("data", {"f": "x^3+x+1", "extra": 1}, "catalog entry 'i' data has the unknown keys 'extra'"),
    ("data", {"f": "x^3+x+1", "p": 3}, "catalog entry 'i' data has the unknown keys 'p'"),
    ("data", {"f": 5}, "a polynomial must be text, not 5"),
], ids=["genus", "class_number", "curve_id", "equation", "data", "data-extra", "data-p", "data-f"])
def test_catalog_entry_values_are_checked(tmp_path, capsys, key, value, message):
    items = json.loads(dump_catalog())
    items[0][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(items))
    assert cli.main(["verify", "--catalog", str(path)]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


@pytest.mark.parametrize("select", [[], ["--curve", "i"]], ids=["catalog", "curve-i"])
def test_duplicate_catalog_ids_exit_two(tmp_path, capsys, select):
    items = json.loads(dump_catalog())
    items.append(dict(items[0], genus=7))
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(items))
    assert cli.main(["verify", "--catalog", str(path), *select]) == 2
    assert capsys.readouterr() == ("", "input error: the catalog has two entries with the id 'i'\n")


@pytest.mark.parametrize("command", ["zeta", "places"])
def test_model_spec_with_an_unknown_key_exits_two(tmp_path, capsys, command):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "artin_schreier", "p": 2, "k": 1, "f": "x^3",
                                "extra": 1}))
    assert cli.main([command, "--model", str(path)]) == 2
    assert capsys.readouterr() == ("", "input error: model spec has the unknown keys 'extra'\n")


# curve iv's quartic with its last term z^4 misspelt: over GF(2), z4 once
# read as 4z^0 = 0 and the run failed the smoothness probe; over GF(4),
# z^4a once read as a*z^4
@pytest.mark.parametrize("k,typo,message", [
    (1, "z4", "unexpected '4' after 'z'"), (2, "z^4a", "unexpected 'a' after 'z^4'")],
    ids=["z4", "z^4a"])
@pytest.mark.parametrize("command", ["zeta", "places"])
def test_misspelt_quartic_term_exits_two(tmp_path, capsys, command, k, typo, message):
    poly = get_entry("iv").data["poly"]
    assert poly.endswith("+z^4")
    poly = poly[:-len("z^4")] + typo
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "plane_quartic", "p": 2, "k": k, "poly": poly,
                                "vars": ["x", "y", "z"]}))
    assert cli.main([command, "--model", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"input error: bad term {typo!r} in polynomial {poly!r}: {message}\n")


@pytest.mark.parametrize("flag", [["--format", "json"], ["--probe-depth", "3"]],
                         ids=["format", "probe-depth"])
def test_selftest_takes_only_out(capsys, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(["selftest", *flag])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {' '.join(flag)}" in err


# ---------------------------------------------------------------------------
# element text: coefficients and catalogs that do not read exit 2

@pytest.mark.parametrize("value", [[], {}, {"a": 1}, 5, "i", None],
                         ids=["empty", "object", "object-a", "number", "text", "null"])
def test_catalog_that_is_not_a_nonempty_list_exits_two(tmp_path, capsys, value):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(value))
    assert cli.main(["verify", "--catalog", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"input error: a catalog must be a non-empty JSON list of entries, not {value!r}\n")


def test_catalog_entry_that_is_not_an_object_exits_two(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text("[5]")
    assert cli.main(["verify", "--catalog", str(path)]) == 2
    assert capsys.readouterr() == ("", "input error: catalog entry 5 is not a JSON object\n")


@pytest.mark.parametrize("f,coefficient,message", [
    ("x^3+(a++1)", "(a++1)", "empty term"),
    ("x^3+(a+)", "(a+)", "empty term")],
    ids=["a++1", "a+"])
def test_catalog_coefficient_with_an_empty_term_exits_two(tmp_path, capsys, f, coefficient,
                                                          message):
    # once read as a+1 and a, and the catalog passed with exit 0
    items = json.loads(dump_catalog())
    (vii,) = [item for item in items if item["curve_id"] == "vii"]
    vii["data"] = {"f": f}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(items))
    assert cli.main(["verify", "--catalog", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"input error: bad term {coefficient!r} in polynomial {f!r}: {message}\n")


@pytest.mark.parametrize("spec,term,message", [
    ({"kind": "artin_schreier", "p": 2, "k": 2, "f": "x^3+a^"}, "a^",
     "unexpected '^' after 'a'"),
    ({"kind": "plane_quartic", "p": 2, "k": 1, "poly": get_entry("iv").data["poly"],
      "vars": ["x", "w", "z"]}, "y^4", "'y^4' is not an integer")],
    ids=["a^", "y-not-a-var"])
@pytest.mark.parametrize("command", ["zeta", "places"])
def test_model_term_that_does_not_read_is_named(tmp_path, capsys, command, spec, term,
                                                message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert cli.main([command, "--model", str(path)]) == 2
    text = spec.get("f") or spec["poly"]
    assert capsys.readouterr() == (
        "", f"input error: bad term {term!r} in polynomial {text!r}: {message}\n")


SWEEP_CHARS = "+-^()a2"


def _mistyped_texts():
    """pytest params (curve id, data key, text): vii's f with each of
    SWEEP_CHARS inserted at every position and each one it holds deleted,
    and viii's quadric and iv's quartic with each of SWEEP_CHARS inserted
    at three seeded positions and four seeded characters of SWEEP_CHARS
    deleted."""
    rng = random.Random(20261019)
    cases = []
    for curve, key in (("vii", "f"), ("viii", "quadric"), ("iv", "poly")):
        text = get_entry(curve).data[key]
        spots = range(len(text) + 1)
        deletable = [i for i, ch in enumerate(text) if ch in SWEEP_CHARS]
        if curve != "vii":
            deletable = rng.sample(deletable, 4)
        for ch in SWEEP_CHARS:
            for i in (spots if curve == "vii" else rng.sample(spots, 3)):
                cases.append(pytest.param(curve, key, text[:i] + ch + text[i:],
                                          id=f"{curve}-insert-{ch}-at-{i}"))
        for i in deletable:
            cases.append(pytest.param(curve, key, text[:i] + text[i + 1:],
                                      id=f"{curve}-delete-{text[i]}-at-{i}"))
    return cases


@pytest.mark.parametrize("curve,key,text", _mistyped_texts())
def test_mistyped_catalog_text_exits_with_a_plain_message(tmp_path, capsys, curve, key, text):
    # a seeded sweep of one-character typos through cli.main: none raises,
    # and every refusal is one input error line; x^3+a^ once answered with
    # int()'s own message
    items = json.loads(dump_catalog())
    (entry,) = [item for item in items if item["curve_id"] == curve]
    entry["data"][key] = text
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(items))
    code = cli.main(["verify", "--catalog", str(path), "--curve", curve])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "invalid literal for int()" not in err
    if code == 2:
        assert out == "" and err.startswith("input error: ") and err.count("\n") == 1
