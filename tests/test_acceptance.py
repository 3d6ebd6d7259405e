"""Acceptance criteria, one test per criterion.

Each test prints a single machine-greppable pass/fail line of the form
``ACCEPTANCE <n> <name>: PASS`` before asserting, so a failing run still
reports which criteria held.  All checks are integer-exact.
"""

import os
import random
import subprocess
import sys
import time

import ffcn
from ffcn.catalog import DEFAULT_CATALOG, get_entry, verify_curve
from ffcn.covers import CoverKind, place_census, splitting_type
from ffcn.gf import make_field
from ffcn.polyring import (Place, irreducible_count, moebius_transport,
                           monic_irreducibles, parse_poly, place_valuation,
                           places_of_degree, residue, residue_field,
                           unit_residue)
from ffcn.table64 import build_family, find_survivors, survivor_analysis, verify_row
from ffcn.zeta import (LPoly, PlaceCensus, PointCounts, census_from_counts,
                       census_to_counts, class_number,
                       cyclic_extension_count, extend_counts,
                       hurwitz_different_degree, l_polynomial)
from ffcn.catalog import build_model


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_catalog_genus_and_class_number():
    start = time.monotonic()
    expected_genera = (1, 2, 2, 3, 3, 1, 1, 4)
    reports = [verify_curve(e) for e in DEFAULT_CATALOG]
    genera_ok = tuple(r.genus for r in reports) == expected_genera
    h_ok = all(r.h == 1 for r in reports)
    status_ok = all(r.status == "pass" for r in reports)
    elapsed = time.monotonic() - start
    _report(1, "eight curves: genus (1,2,2,3,3,1,1,4) and h = 1",
            genera_ok and h_ok and status_ok and elapsed < 60)


def test_criterion_2_genus4_census():
    (survivor,) = find_survivors(build_family())
    rep = survivor_analysis(survivor)
    census_ok = rep.census == (0, 0, 0, 1, 3)
    n5_ok = rep.counts[4] == 15 and rep.cross_checked == (5,)
    _report(2, "survivor census B = (0,0,0,1,3) with N_5 enumerated = extended",
            census_ok and n5_ok)


def test_criterion_3_table64():
    start = time.monotonic()
    rows = build_family()
    results = [verify_row(r) for r in rows]
    quadrics_ok = all(res.quadric_matches_published for res in results)
    witnesses = [res for res in results if res.row.paper_witness is not None]
    witnesses_ok = (len(witnesses) == 63
                    and all(res.witness_on_curve
                            and res.witness_degree == res.claimed_degree <= 3
                            for res in witnesses))
    deg4_rows = [r for r in rows
                 if verify_row(r).computed_min_degree == 4]
    survivor_ok = (len(deg4_rows) == 1
                   and deg4_rows[0].family == 2
                   and deg4_rows[0].mask == (1, 0, 1, 1))
    elapsed = time.monotonic() - start
    _report(3, "64 quadrics match, 63 witnesses pass, unique degree-4 survivor",
            quadrics_ok and witnesses_ok and survivor_ok and elapsed < 120)


def test_criterion_4_arithmetic_identities():
    F2 = make_field(2, 1)
    start = Place(F2, parse_poly("x^4+x^3+1", F2))
    image = moebius_transport(start, (0, 1, 1, 0))  # x -> 1/x
    transport_ok = image.poly == parse_poly("x^4+x+1", F2)
    _report(4, "different degree 16, five cyclic extensions, place transport",
            hurwitz_different_degree(4, 0, 5) == 16
            and cyclic_extension_count(1, 2, 4, 5) == 5
            and transport_ok)


def test_criterion_5_property_suites():
    counts_ok = all(
        len(monic_irreducibles(make_field(p, k), d)) == irreducible_count(p ** k, d)
        for p, k in ((2, 1), (3, 1), (2, 2)) for d in range(1, 9))

    lpolys = [LPoly(2, 0, (1,))]
    for e in DEFAULT_CATALOG:
        r = verify_curve(e)
        lpolys.append(LPoly(e.p ** e.k, r.genus, r.l_coeffs))
    lpoly_ok = all(
        L.coeffs[0] == 1 and class_number(L) >= 1
        and all(L.coeffs[2 * L.g - i] == L.q ** (L.g - i) * L.coeffs[i]
                for i in range(L.g + 1))
        and all((N - (L.q ** n + 1)) ** 2 <= 4 * L.g ** 2 * L.q ** n
                for n, N in enumerate(extend_counts(L, 2 * L.g + 1).counts, 1))
        for L in lpolys)

    rng = random.Random(5)
    round_trip_ok = True
    for _ in range(1000):
        m = rng.randint(1, 10)
        B = tuple(rng.randint(0, 99) for _ in range(m))
        round_trip_ok &= (census_from_counts(
            census_to_counts(PlaceCensus(B), m)).counts == B)

    # e*f above each base place, from the valuation of f and the y-roots
    # of y^2 + y = c or y^2 = c in the residue field: ramified (e = 2),
    # two roots (two places, f = 1) or none (one place, f = 2)
    ef_ok = True
    for cid in ("i", "ii", "iii", "vi", "vii"):
        cover = build_model(get_entry(cid))
        artin_schreier = cover.kind is CoverKind.ARTIN_SCHREIER
        for d in range(1, 6):
            for place in places_of_degree(cover.field, d):
                v = place_valuation(cover.f, place)
                if v < 0 if artin_schreier else v % 2:
                    expected = "ramified"
                else:
                    R = residue_field(place)[0]
                    if artin_schreier:
                        c = residue(cover.f, place)
                        roots = sum(R.add(R.mul(y, y), y) == c for y in R.elements())
                    else:
                        c = unit_residue(cover.f, place)
                        roots = sum(R.mul(y, y) == c for y in R.elements())
                    expected = {0: "inert", 2: "split"}.get(roots)
                ef_ok &= splitting_type(cover, place) == expected

    out = []
    src = os.path.dirname(os.path.dirname(ffcn.__file__))
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "ffcn.cli", "verify", "--format", "json"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        out.append((proc.returncode, proc.stdout))
    deterministic = out[0] == out[1] and out[0][0] == 0

    _report(5, "irreducible counts, L-poly invariants, 1000 census round "
               "trips, sum e*f = 2, run-to-run determinism",
            counts_ok and lpoly_ok and round_trip_ok and ef_ok and deterministic)


def test_criterion_6_cover_cross_module_consistency():
    ok = True
    for cid in ("i", "ii", "iii", "vi", "vii"):
        entry = get_entry(cid)
        cover = build_model(entry)
        g = entry.genus
        depth = min(2 * g, 6)
        census = place_census(cover, depth)
        counts = census_to_counts(census, depth)
        q = entry.p ** entry.k
        L = l_polynomial(PointCounts(q, g, tuple(counts[:g])))
        extended = extend_counts(L, depth).counts
        for m in range(g + 1, depth + 1):
            ok &= extended[m - 1] == counts[m - 1]
    _report(6, "census-derived N_m equals L-extended N_m for g < m <= min(2g, 6)",
            ok)
