"""Command-line entry point.

Subcommands: ``verify`` (catalog verification), ``table64`` (the 64-row
cubic-quadric search), ``zeta`` (L-polynomial pipeline on one model),
``places`` (place-degree census printout), ``selftest`` (embedded
invariant suite).

Exit codes: 0 = everything verified, 1 = a mathematical mismatch,
2 = usage or input error.  Reports are deterministic: byte-identical
across runs.  ``_stage`` maps a failure to its exit, and ``_finish``
emits a report and chooses 0 or 1.

``main`` parses and runs one command and returns its exit code; ``run``,
the ``ffc`` script and ``python -m ffcn.cli``, calls it, flushes the
report and ends the process with ``os._exit``.  Every run is a fresh
process, and the interpreter's teardown (final collections, module
clean-up) took about 10 ms of a 0.1 s ``ffc verify`` while deciding
nothing.  ``gc.freeze()`` before the exit saved about as much, but the
clean-up still allocates while the frozen heap is kept, which raised the
peak RSS of ``ffc table64``; ``os._exit`` hands the heap back whole.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from .catalog import (DEFAULT_CATALOG, build_model, count_depth, get_entry,
                      load_catalog, model_from_spec, section_facts,
                      verify_curve)
from .covers import InvalidCoverError, NonStandardCoverError, splitting_type
from .gf import FieldError, make_field
from .polyring import (irreducible_count, is_irreducible, monic_irreducibles,
                       place_valuation, places_of_degree, residue, residue_field,
                       unit_residue)
from .table64 import (SURVIVOR_FAMILY, SURVIVOR_MASK, SurvivorMismatchError,
                      WitnessMismatchError, build_family, find_survivors,
                      survivor_analysis, verify_row)
from .varieties import (PROBE_DEPTH, BudgetError, SingularModelError,
                        check_budget, format_multipoly)
from .zeta import (CountInconsistencyError, LPoly, PlaceCensus, analyse_counts,
                   census_from_counts, census_to_counts, class_number,
                   extend_counts)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_FLUSH_FAILED = 120  # the interpreter's status when its flush at exit fails

# RecursionError: JSON nested deeper than the decoder's recursion limit
PARSE_ERRORS = (ValueError, KeyError, TypeError, OSError, RecursionError,
                json.JSONDecodeError, FieldError)
# input met while counting: a field beyond gf.FIELD_MAX (the budget refuses
# it first) or a pencil walk beyond the budget; anything else is a fault
COUNT_ERRORS = (FieldError, BudgetError)
MATH_ERRORS = (CountInconsistencyError, SingularModelError, InvalidCoverError,
               WitnessMismatchError, SurvivorMismatchError)


class _Exit(Exception):
    """(exit code, stderr line): ``main`` writes the line, returns the code."""


def _stage(label: str, input_errors, fn, *args):
    """``fn(*args)``, with a failure mapped to its exit.  A cover outside
    the handled standard form is unusable input (matched first, since
    ``NonStandardCoverError`` subclasses ``InvalidCoverError``), a
    mathematical failure exits 1 under ``label``, and ``input_errors``
    exit 2: ``PARSE_ERRORS`` while loading a catalog or a model,
    ``COUNT_ERRORS`` while counting."""
    try:
        return fn(*args)
    except NonStandardCoverError as exc:
        raise _Exit(EXIT_USAGE, f"input error: {exc}") from None
    except MATH_ERRORS as exc:
        raise _Exit(EXIT_MISMATCH, f"{label}: {exc}") from None
    except input_errors as exc:
        raise _Exit(EXIT_USAGE, f"input error: {exc}") from None


def _check_cost(model, n: int):
    """Refuse counting N_1..N_n beyond ENUMERATION_BUDGET.  n may depend on
    the genus: reading a cover's genus walks only f's support, which
    ``model_from_spec`` has already kept within the budget."""
    check_budget(model.enumeration_size(n))


def _finish(ns, report, text, ok: bool = True) -> int:
    """Render ``report`` as JSON if ``--format json`` asks, else as
    ``text()``; write it to stdout or ``--out``; and exit 0 if ``ok``,
    else 1."""
    out = (json.dumps(report, indent=2, sort_keys=True) + "\n" if ns.format == "json"
           else text())
    if ns.out is None:
        sys.stdout.write(out)
    else:
        try:
            with open(ns.out, "w", newline="") as fh:
                fh.write(out)
        except OSError as exc:
            raise _Exit(EXIT_USAGE, f"cannot write {ns.out}: {exc}") from None
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# verify

def _verify_one(entry, max_place_degree: int):
    report = verify_curve(entry, max_place_degree)
    return {
        "id": entry.curve_id,
        "equation": entry.equation,
        "genus_expected": entry.genus,
        "genus_computed": report.genus,
        "h_expected": entry.class_number,
        "h_computed": report.h,
        "l_coeffs": list(report.l_coeffs),
        "counts": list(report.counts),
        "census": list(report.census),
        "cross_checked_degrees": list(report.cross_checked),
        "problems": list(report.problems),
        "status": report.status,
    }


def _verify_entries(ns):
    """The entries to verify, once each one's counts are within the budget."""
    catalog = DEFAULT_CATALOG
    if ns.catalog:
        with open(ns.catalog) as fh:
            catalog = load_catalog(fh.read())
    entries = [get_entry(ns.curve, catalog)] if ns.curve else list(catalog)
    for model in map(build_model, entries):
        _check_cost(model, count_depth(model, ns.max_place_degree))
    return entries


def cmd_verify(ns) -> int:
    entries = _stage("verification error", PARSE_ERRORS, _verify_entries, ns)
    records = _stage("verification error", COUNT_ERRORS, lambda: [
        _verify_one(e, ns.max_place_degree) for e in entries])
    overall = "pass" if all(r["status"] == "pass" for r in records) else "fail"
    report = {
        "tool_version": __version__,
        "config": {"max_place_degree": ns.max_place_degree,
                   "probe_depth": PROBE_DEPTH,
                   "catalog": ns.catalog or "embedded"},
        "curves": records,
        "auxiliary_facts": section_facts(),
        "status": overall,
    }

    def text():
        lines = [f"verification report (tool {__version__})"]
        for r in records:
            lines.append(
                f"  curve {r['id']:>4}: genus {r['genus_computed']} "
                f"(expected {r['genus_expected']}), h = {r['h_computed']}, "
                f"L = {r['l_coeffs']}, census B_1.. = {r['census']} "
                f"[{r['status']}]")
            for p in r["problems"]:
                lines.append(f"      problem: {p}")
        lines.append(f"overall: {overall}")
        return "\n".join(lines) + "\n"

    return _finish(ns, report, text, overall == "pass")


# ---------------------------------------------------------------------------
# table64

def _table_one(row):
    res = verify_row(row)
    return {
        "family": row.family,
        "mask": row.mask_str,
        "quadric": format_multipoly(row.quadric),
        "paper_witness": row.paper_witness or "",
        "paper_degree": res.claimed_degree,
        "witness_on_curve": ("" if res.witness_on_curve is None
                             else str(res.witness_on_curve).lower()),
        "computed_min_degree": ("" if res.computed_min_degree is None
                                else res.computed_min_degree),
        "computed_witness": res.computed_witness or "",
        "status": res.status,
        "problems": list(res.problems),
    }


CSV_COLUMNS = ("family", "mask", "quadric", "paper_witness", "paper_degree",
               "witness_on_curve", "computed_min_degree", "computed_witness",
               "status")


def cmd_table64(ns) -> int:
    """Verify the 64 published rows, each searched to degree 4, the
    largest degree the table claims; then find the survivor and run the
    zeta pipeline on it.  ``survivor_undetermined`` stays in the summary,
    always false, so the report keeps its keys."""
    rows = build_family()
    records = _stage("survivor search error", COUNT_ERRORS,
                     lambda: [_table_one(row) for row in rows])
    all_pass = all(r["status"] == "pass" for r in records)
    survivors = _stage("survivor search error", COUNT_ERRORS, find_survivors, rows)
    summary = {"rows": 64,
               "rows_passing": sum(r["status"] == "pass" for r in records),
               "survivor_undetermined": False,
               "survivors": [{"family": r.family, "mask": r.mask_str} for r in survivors]}
    survivor_ok = (len(survivors) == 1
                   and survivors[0].family == SURVIVOR_FAMILY
                   and survivors[0].mask == SURVIVOR_MASK)
    if survivor_ok:
        rep = _stage("survivor analysis error", COUNT_ERRORS,
                     survivor_analysis, survivors[0])
        summary["survivor_analysis"] = {
            "counts": list(rep.counts),
            "l_coeffs": list(rep.l_coeffs),
            "h": rep.h,
            "census": list(rep.census),
            "different_degree": rep.different_degree,
            "cyclic_extension_count": rep.cyclic_count,
        }
    ok = all_pass and survivor_ok

    def text():
        if ns.format == "csv":
            # imported here: csv costs every other run about 65 KB of memory
            import csv
            import io

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow([r[c] for c in CSV_COLUMNS])
            return buf.getvalue()
        lines = []
        for r in records:
            lines.append(
                f"family {r['family']} mask {r['mask']}: "
                f"witness {r['paper_witness'] or '(degree 4)'} "
                f"min degree {r['computed_min_degree']} [{r['status']}]")
        lines.append(f"summary: {summary}")
        lines.append(f"overall: {'pass' if ok else 'fail'}")
        return "\n".join(lines) + "\n"

    return _finish(ns, {"rows": records, "summary": summary,
                        "status": "pass" if ok else "fail"}, text, ok)


# ---------------------------------------------------------------------------
# zeta / places: one model from the catalog or a JSON model file

def _open_model(ns):
    """The model of --curve or of the --model file, and its genus."""
    if ns.curve:
        model = build_model(get_entry(ns.curve))
    else:
        with open(ns.model) as fh:
            model = model_from_spec(json.load(fh))
    return model, model.genus


def cmd_zeta(ns) -> int:
    model, g = _stage("model error", PARSE_ERRORS, _open_model, ns)
    n = max(ns.counts_up_to, g)
    _stage("model error", PARSE_ERRORS, _check_cost, model, n)
    q = model.field.order

    def pipeline():
        counts = tuple(model.counts(n))
        l_coeffs, h, census, _, problems = analyse_counts(q, g, counts, n)
        if problems:
            raise CountInconsistencyError(problems[0])
        return counts, l_coeffs, h, dict(enumerate(census, start=1))

    counts, l_coeffs, h, census = _stage("zeta pipeline error", COUNT_ERRORS, pipeline)
    report = {"q": q, "genus": g, "counts": list(counts),
              "l_coeffs": list(l_coeffs), "h": h, "census": census}
    return _finish(ns, report, lambda: (f"q = {q}, genus = {g}\n"
                                        f"N = {list(counts)}\n"
                                        f"L = {list(l_coeffs)}\n"
                                        f"h = L(1) = {h}\n"
                                        f"census B_d = {census}\n"))


def cmd_places(ns) -> int:
    d = ns.max_place_degree
    model, g = _stage("model error", PARSE_ERRORS, _open_model, ns)
    _stage("model error", PARSE_ERRORS, _check_cost, model, d)
    census = _stage("census error", COUNT_ERRORS,
                    lambda: census_from_counts(model.counts(d)))
    q = model.field.order
    report = {"q": q, "genus": g, "max_degree": d, "census": census.as_dict()}
    return _finish(ns, report, lambda: "\n".join(
        [f"q = {q}, genus = {g}"]
        + [f"  B_{deg} = {b}" for deg, b in census.as_dict().items()]) + "\n")


# ---------------------------------------------------------------------------
# selftest

def _require(ok: bool, what: str):
    """An explicit check: unlike ``assert``, it still runs under python -O."""
    if not ok:
        raise AssertionError(what)


def _selftest_checks():
    results = []

    def check(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            results.append((name, False, str(exc)))

    def field_axioms():
        for p, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            F = make_field(p, k)
            elems = list(F.elements())
            for a in elems:
                if a:
                    _require(F.mul(a, F.inv(a)) == 1, f"{F}: a * a^-1 != 1 for a = {a}")
                for b in elems:
                    for c in elems:
                        lhs = F.mul(a, F.add(b, c))
                        rhs = F.add(F.mul(a, b), F.mul(a, c))
                        _require(lhs == rhs, f"{F}: a(b + c) != ab + ac for {(a, b, c)}")

    def irreducible_counts():
        for p, k in ((2, 1), (3, 1), (2, 2)):
            F = make_field(p, k)
            for d in range(1, 7):
                polys = monic_irreducibles(F, d)
                expected = irreducible_count(F.order, d)
                _require(len(polys) == expected,
                         f"{F}, degree {d}: {len(polys)} monic irreducibles, "
                         f"formula {expected}")
                R = make_field(p, k * d)
                for f, root in polys.items():
                    _require(is_irreducible(f), f"{f} over {F} is reducible")
                    _require(f.eval_in(root, R) == 0,
                             f"{f} over {F} does not vanish at its residue root")

    def census_round_trip():
        rng = random.Random(20260823)
        for _ in range(200):
            m = rng.randint(1, 8)
            B = [rng.randint(0, 50) for _ in range(m)]
            N = census_to_counts(census_from_counts(
                census_to_counts(_census(B), m)), m)
            _require(N == census_to_counts(_census(B), m), f"round trip changed B = {B}")

    def _census(B):
        return PlaceCensus(tuple(B))

    def cover_splitting_types():
        # y^2 + y = c over curve i, y^2 = c over curve vi: off the ramified
        # places, the fiber splits iff y has a root in the residue field
        for cid, ramified, value, lhs in (
                ("i", lambda v: v < 0, residue, lambda R, y: R.add(R.mul(y, y), y)),
                ("vi", lambda v: v % 2, unit_residue, lambda R, y: R.mul(y, y))):
            cover = build_model(get_entry(cid))
            for d in range(1, 4):
                for place in places_of_degree(cover.field, d):
                    if ramified(place_valuation(cover.f, place)):
                        expected = "ramified"
                    else:
                        R, c = residue_field(place)[0], value(cover.f, place)
                        roots = sum(lhs(R, y) == c for y in R.elements())
                        expected = {0: "inert", 2: "split"}.get(roots, f"{roots} roots")
                    kind = splitting_type(cover, place)
                    _require(kind == expected,
                             f"curve {cid}: {place} is {kind}, the y-roots say {expected}")

    def zeta_invariants():
        report = verify_curve(get_entry("i"))
        _require(report.status == "pass", f"curve i: {report.problems}")
        L = LPoly(2, 1, report.l_coeffs)
        _require(class_number(L) == 1, "curve i: h != 1")
        _require(extend_counts(L, 3).counts[0] == report.counts[0],
                 "curve i: N_1 from L differs from the census")

    check("field axioms (distributivity, inverses)", field_axioms)
    check("irreducible counts match the divisor-sum formula", irreducible_counts)
    check("census/counts round trip", census_round_trip)
    check("splitting types match y-root counts above every base place "
          "(degree <= 3)", cover_splitting_types)
    check("zeta pipeline invariants on a known elliptic model", zeta_invariants)
    return results


def cmd_selftest(ns) -> int:
    results = _selftest_checks()
    ok_all = all(ok for _, ok, _ in results)
    lines = [f"[{'pass' if ok else 'FAIL'}] {name}" + (f": {msg}" if msg else "")
             for name, ok, msg in results]
    lines.append(f"selftest: {'pass' if ok_all else 'fail'}")
    return _finish(ns, None, lambda: "\n".join(lines) + "\n", ok_all)


# ---------------------------------------------------------------------------

COMMANDS = ("verify", "table64", "zeta", "places", "selftest")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``ffc`` parser.  If ``command`` is one of COMMANDS, only its
    subparser is built (the other four cost about 0.7 ms of a fresh
    process); otherwise all are, so that help and errors without a known
    command list them all."""
    top = argparse.ArgumentParser(
        prog="ffc", description="Function-field class-number verification toolkit")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    names = COMMANDS
    if command in COMMANDS:
        names = (command,)
        # the usage line of ``ffc verify --bogus`` still names every command
        sub.metavar = "{" + ",".join(COMMANDS) + "}"

    def common(p, fmt_default="text", fmt_choices=("json", "text")):
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)

    if "verify" in names:
        p = sub.add_parser("verify", help="verify the curve catalog")
        p.add_argument("--catalog", default=None, help="external catalog JSON")
        p.add_argument("--curve", default=None, help="verify a single curve id")
        p.add_argument("--max-place-degree", type=int, default=5)
        common(p)
        p.set_defaults(func=cmd_verify)

    if "table64" in names:
        p = sub.add_parser("table64", help="run the 64-case cubic-quadric search")
        common(p, fmt_default="csv", fmt_choices=("csv", "json", "text"))
        p.set_defaults(func=cmd_table64)

    if "zeta" in names:
        p = sub.add_parser("zeta", help="L-polynomial pipeline for one model")
        p.add_argument("--curve", default=None, help="catalog curve id")
        p.add_argument("--model", default=None, help="model JSON file")
        p.add_argument("--counts-up-to", type=int, default=5)
        common(p)
        p.set_defaults(func=cmd_zeta)

    if "places" in names:
        p = sub.add_parser("places", help="place-degree census printout")
        p.add_argument("--curve", default=None, help="catalog curve id")
        p.add_argument("--model", default=None, help="model JSON file")
        p.add_argument("--max-place-degree", type=int, default=5)
        common(p)
        p.set_defaults(func=cmd_places)

    if "selftest" in names:
        p = sub.add_parser("selftest", help="run the embedded invariant suite")
        p.add_argument("--out", default=None, help="write the report here")
        p.set_defaults(func=cmd_selftest, format="text")
    return top


def main(argv=None) -> int:
    """Run one ``ffc`` command and return its exit code.  argparse raises
    SystemExit for ``--help``, ``--version`` and usage errors."""
    if argv is None:
        argv = sys.argv[1:]
    ns = build_parser(argv[0] if argv else None).parse_args(argv)
    if ns.command in ("zeta", "places") and bool(ns.curve) == bool(ns.model):
        sys.stderr.write("exactly one of --curve or --model is required\n")
        return EXIT_USAGE
    for bound in ("max_place_degree", "counts_up_to"):
        if getattr(ns, bound, 1) < 1:
            sys.stderr.write(f"--{bound.replace('_', '-')} must be >= 1\n")
            return EXIT_USAGE
    try:
        return ns.func(ns)
    except _Exit as exc:
        code, line = exc.args
        sys.stderr.write(line + "\n")
        return code


def run():
    """The process entry point: run ``main``, flush the report, and end
    the process with ``os._exit``, which skips the interpreter's teardown
    (see the module docstring for why not ``gc.freeze``).  An exception
    that escapes ``main`` propagates as usual: a traceback and exit 1.

    If flushing stdout fails (a closed pipe, a full disk), the error is
    reported as the interpreter's own flush at exit reports it, with its
    exit status 120.  It cannot be left to that flush: a failed flush
    drops a pending write larger than the stream's buffer (4 KB on a
    pipe), so the interpreter would find nothing left and exit 0."""
    try:
        code = main()
    except SystemExit as exc:  # argparse exits with an int code
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        sys.stderr.write(f"Exception ignored in: {sys.stdout!r}\n"
                         f"{type(exc).__name__}: {exc}\n")
        code = EXIT_FLUSH_FAILED
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
