"""Command-line entry point.

Subcommands: ``verify`` (catalog verification), ``table64`` (the 64-row
cubic-quadric search), ``zeta`` (L-polynomial pipeline on one model),
``places`` (place-degree census printout), ``selftest`` (embedded
invariant suite).

Exit codes: 0 = everything verified, 1 = a mathematical mismatch,
2 = usage or input error.  Reports are deterministic: byte-identical
across runs and across FFC_THREADS worker counts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from multiprocessing import Pool

from . import __version__
from .catalog import (DEFAULT_CATALOG, build_model, get_entry, load_catalog,
                      section_facts, verify_curve)
from .covers import (CoverKind, CoverModel, InvalidCoverError, cover_genus,
                     place_census)
from .gf import FieldError, make_field
from .polyring import parse_rational
from .varieties import SingularModelError, curve_point_counts, parse_multipoly
from .zeta import (CountInconsistencyError, LPoly, PointCounts,
                   census_from_counts, census_to_counts, class_number,
                   extend_counts, l_polynomial)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

PARSE_ERRORS = (ValueError, KeyError, TypeError, OSError,
                json.JSONDecodeError, FieldError)
MATH_ERRORS = (CountInconsistencyError, SingularModelError, InvalidCoverError)


def _worker_count() -> int:
    raw = os.environ.get("FFC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _map(func, items):
    """Order-preserving map, parallel when FFC_THREADS > 1."""
    n = _worker_count()
    if n == 1 or len(items) <= 1:
        return [func(item) for item in items]
    with Pool(min(n, len(items))) as pool:
        return pool.map(func, items)


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"cannot write {out_path}: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK


def _render_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# verify

def _verify_one(args):
    entry, max_place_degree, probe_depth = args
    report = verify_curve(entry, max_place_degree, probe_depth)
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


def cmd_verify(ns) -> int:
    try:
        catalog = DEFAULT_CATALOG
        if ns.catalog:
            with open(ns.catalog) as fh:
                catalog = load_catalog(fh.read())
        entries = [get_entry(ns.curve, catalog)] if ns.curve else list(catalog)
    except PARSE_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE
    try:
        records = _map(_verify_one,
                       [(e, ns.max_place_degree, ns.probe_depth) for e in entries])
    except MATH_ERRORS as exc:
        sys.stderr.write(f"verification error: {exc}\n")
        return EXIT_MISMATCH
    overall = "pass" if all(r["status"] == "pass" for r in records) else "fail"
    report = {
        "tool_version": __version__,
        "config": {"max_place_degree": ns.max_place_degree,
                   "probe_depth": ns.probe_depth,
                   "catalog": ns.catalog or "embedded"},
        "curves": records,
        "auxiliary_facts": section_facts(),
        "status": overall,
    }
    if ns.format == "json":
        text = _render_json(report)
    else:
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
        text = "\n".join(lines) + "\n"
    rc = _emit(text, ns.out)
    if rc:
        return rc
    return EXIT_OK if overall == "pass" else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# table64

def _table_one(args):
    index, d_max = args
    from .table64 import build_family, verify_row
    from .varieties import format_multipoly
    row = build_family()[index]
    res = verify_row(row, d_max)
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
    from .table64 import (SURVIVOR_FAMILY, SURVIVOR_MASK, build_family,
                          find_survivors, survivor_analysis)
    records = _map(_table_one, [(i, ns.dmax) for i in range(64)])
    all_pass = all(r["status"] == "pass" for r in records)
    survivor_undetermined = ns.dmax < 4
    summary = {"rows": 64,
               "rows_passing": sum(r["status"] == "pass" for r in records),
               "survivor_undetermined": survivor_undetermined}
    survivor_ok = True
    if not survivor_undetermined:
        rows = build_family()
        survivors = find_survivors(rows)
        summary["survivors"] = [
            {"family": r.family, "mask": r.mask_str} for r in survivors]
        survivor_ok = (len(survivors) == 1
                       and survivors[0].family == SURVIVOR_FAMILY
                       and survivors[0].mask == SURVIVOR_MASK)
        if survivor_ok:
            rep = survivor_analysis(survivors[0], ns.probe_depth)
            summary["survivor_analysis"] = {
                "counts": list(rep.counts),
                "l_coeffs": list(rep.l_coeffs),
                "h": rep.h,
                "census": list(rep.census),
                "different_degree": rep.different_degree,
                "cyclic_extension_count": rep.cyclic_count,
            }
    ok = all_pass and survivor_ok

    if ns.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r[c] for c in CSV_COLUMNS])
        text = buf.getvalue()
    elif ns.format == "json":
        text = _render_json({"rows": records, "summary": summary,
                             "status": "pass" if ok else "fail"})
    else:
        lines = []
        for r in records:
            lines.append(
                f"family {r['family']} mask {r['mask']}: "
                f"witness {r['paper_witness'] or '(degree 4)'} "
                f"min degree {r['computed_min_degree']} [{r['status']}]")
        lines.append(f"summary: {summary}")
        lines.append(f"overall: {'pass' if ok else 'fail'}")
        text = "\n".join(lines) + "\n"
    rc = _emit(text, ns.out)
    if rc:
        return rc
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# zeta / places: one model from the catalog or a JSON model file

def _load_model(ns):
    """Returns (model_or_None, genus, q).  None model means the rational
    function field itself (genus 0)."""
    if ns.curve:
        entry = get_entry(ns.curve)
        model = build_model(entry)
        q = make_field(entry.p, entry.k).order
        g = cover_genus(model) if isinstance(model, CoverModel) else model.genus
        return model, g, q
    with open(ns.model) as fh:
        spec = json.load(fh)
    F = make_field(spec["p"], spec["k"])
    kind = spec["kind"]
    if kind == "rational":
        return None, 0, F.order
    if kind in ("artin_schreier", "kummer"):
        ck = CoverKind.ARTIN_SCHREIER if kind == "artin_schreier" else CoverKind.KUMMER
        model = CoverModel(ck, parse_rational(spec["f"], F))
        return model, cover_genus(model), F.order
    varnames = tuple(spec["vars"])
    if kind == "plane_quartic":
        from .varieties import PlaneCurve
        model = PlaneCurve(parse_multipoly(spec["poly"], F, varnames))
    elif kind == "space_curve":
        from .varieties import SpaceCurve
        model = SpaceCurve(parse_multipoly(spec["cubic"], F, varnames),
                           parse_multipoly(spec["quadric"], F, varnames))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return model, model.genus, F.order


def _model_counts(model, g, q, up_to, probe_depth):
    if model is None:
        return [q ** m + 1 for m in range(1, up_to + 1)]
    if isinstance(model, CoverModel):
        return census_to_counts(place_census(model, up_to), up_to)
    return curve_point_counts(model, up_to, probe_depth)


def cmd_zeta(ns) -> int:
    try:
        model, g, q = _load_model(ns)
    except MATH_ERRORS as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return EXIT_MISMATCH
    except PARSE_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE
    up_to = max(ns.counts_up_to, g)
    try:
        counts = _model_counts(model, g, q, up_to, ns.probe_depth)
        if g == 0:
            L = LPoly(q, 0, (1,))
        else:
            L = l_polynomial(PointCounts(q, g, tuple(counts[:g])))
        h = class_number(L)
        census = census_from_counts(counts)
    except MATH_ERRORS as exc:
        sys.stderr.write(f"zeta pipeline error: {exc}\n")
        return EXIT_MISMATCH
    report = {"q": q, "genus": g, "counts": list(counts),
              "l_coeffs": list(L.coeffs), "h": h,
              "census": census.as_dict()}
    if ns.format == "json":
        text = _render_json(report)
    else:
        text = (f"q = {q}, genus = {g}\n"
                f"N = {list(counts)}\n"
                f"L = {list(L.coeffs)}\n"
                f"h = L(1) = {h}\n"
                f"census B_d = {census.as_dict()}\n")
    return _emit(text, ns.out)


def cmd_places(ns) -> int:
    try:
        model, g, q = _load_model(ns)
    except MATH_ERRORS as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return EXIT_MISMATCH
    except PARSE_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE
    d = ns.max_place_degree
    try:
        counts = _model_counts(model, g, q, d, ns.probe_depth)
        census = (place_census(model, d) if isinstance(model, CoverModel)
                  else census_from_counts(counts))
    except MATH_ERRORS as exc:
        sys.stderr.write(f"census error: {exc}\n")
        return EXIT_MISMATCH
    report = {"q": q, "genus": g, "max_degree": d, "census": census.as_dict()}
    if ns.format == "json":
        text = _render_json(report)
    else:
        lines = [f"q = {q}, genus = {g}"]
        lines += [f"  B_{deg} = {b}" for deg, b in census.as_dict().items()]
        text = "\n".join(lines) + "\n"
    return _emit(text, ns.out)


# ---------------------------------------------------------------------------
# selftest

def _selftest_checks():
    from .polyring import irreducible_count, monic_irreducibles
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
                    assert F.mul(a, F.inv(a)) == 1
                for b in elems:
                    for c in elems:
                        lhs = F.mul(a, F.add(b, c))
                        rhs = F.add(F.mul(a, b), F.mul(a, c))
                        assert lhs == rhs

    def irreducible_counts():
        for p, k in ((2, 1), (3, 1), (2, 2)):
            F = make_field(p, k)
            for d in range(1, 7):
                assert len(monic_irreducibles(F, d)) == irreducible_count(F.order, d)

    def census_round_trip():
        rng = random.Random(20260823)
        for _ in range(200):
            m = rng.randint(1, 8)
            B = [rng.randint(0, 50) for _ in range(m)]
            N = census_to_counts(census_from_counts(
                census_to_counts(_census(B), m)), m)
            assert N == census_to_counts(_census(B), m)

    def _census(B):
        from .zeta import PlaceCensus
        return PlaceCensus(tuple(B))

    def cover_fundamental_identity():
        from .covers import splitting_type
        from .polyring import places_of_degree
        entry = get_entry("i")
        cover = build_model(entry)
        for d in range(1, 4):
            for place in places_of_degree(cover.field, d):
                kind = splitting_type(cover, place)
                ef = {"ramified": 2, "split": 2, "inert": 2}[kind]
                assert ef == 2

    def zeta_invariants():
        report = verify_curve(get_entry("i"))
        assert report.status == "pass"
        L = LPoly(2, 1, report.l_coeffs)
        assert class_number(L) == 1
        assert extend_counts(L, 3).counts[0] == report.counts[0]

    check("field axioms (distributivity, inverses)", field_axioms)
    check("irreducible counts match the divisor-sum formula", irreducible_counts)
    check("census/counts round trip", census_round_trip)
    check("sum e*f = 2 above every base place (degree <= 3)",
          cover_fundamental_identity)
    check("zeta pipeline invariants on a known elliptic model", zeta_invariants)
    return results


def cmd_selftest(ns) -> int:
    results = _selftest_checks()
    lines = []
    for name, ok, msg in results:
        lines.append(f"[{'pass' if ok else 'FAIL'}] {name}" + (f": {msg}" if msg else ""))
    ok_all = all(ok for _, ok, _ in results)
    lines.append(f"selftest: {'pass' if ok_all else 'fail'}")
    rc = _emit("\n".join(lines) + "\n", ns.out)
    if rc:
        return rc
    return EXIT_OK if ok_all else EXIT_MISMATCH


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ffc", description="Function-field class-number verification toolkit")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="text", fmt_choices=("json", "text")):
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)
        p.add_argument("--probe-depth", type=int, default=6,
                       help="smoothness probe depth in extension degrees")

    p = sub.add_parser("verify", help="verify the curve catalog")
    p.add_argument("--catalog", default=None, help="external catalog JSON")
    p.add_argument("--curve", default=None, help="verify a single curve id")
    p.add_argument("--max-place-degree", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table64", help="run the 64-case cubic-quadric search")
    p.add_argument("--dmax", type=int, default=4,
                   help="point-degree search bound per row")
    common(p, fmt_default="csv", fmt_choices=("csv", "json", "text"))
    p.set_defaults(func=cmd_table64)

    p = sub.add_parser("zeta", help="L-polynomial pipeline for one model")
    p.add_argument("--curve", default=None, help="catalog curve id")
    p.add_argument("--model", default=None, help="model JSON file")
    p.add_argument("--counts-up-to", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("places", help="place-degree census printout")
    p.add_argument("--curve", default=None, help="catalog curve id")
    p.add_argument("--model", default=None, help="model JSON file")
    p.add_argument("--max-place-degree", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_places)

    p = sub.add_parser("selftest", help="run the embedded invariant suite")
    common(p)
    p.set_defaults(func=cmd_selftest)
    return top


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    if ns.command in ("zeta", "places") and bool(ns.curve) == bool(ns.model):
        sys.stderr.write("exactly one of --curve or --model is required\n")
        return EXIT_USAGE
    for bound in ("max_place_degree", "dmax", "counts_up_to", "probe_depth"):
        if getattr(ns, bound, 1) < 1:
            sys.stderr.write(f"--{bound.replace('_', '-')} must be >= 1\n")
            return EXIT_USAGE
    return ns.func(ns)


if __name__ == "__main__":
    sys.exit(main())
