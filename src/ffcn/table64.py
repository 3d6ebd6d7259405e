"""The 64 cubic-quadric pairs in P^3 over GF(2): generation of the full
family, row-by-row verification against the published table (quadric
expansion, witness membership, witness degree), survivor identification,
and the one zeta pipeline, ``zeta.analyse_counts``, on the unique survivor,
whose model must be catalog curve viii's.

The published table is embedded below as ground-truth test data.  In the
witness strings, ``a`` is the GF(4) generator with a^2+a+1 = 0 and ``b``
the GF(8) generator with b^3+b+1 = 0, matching the table's notation.

Each row's least point comes from one walk per family, not one per row.
In characteristic 2 a quadric over GF(2) is its cross terms plus a
square: Q = Q_x + (k.x)^2, with k the mask of its square terms.  The 16
rows of a family share the cubic C and Q_x, so a point P of the surface
C = 0 lies on row k iff k.P = sqrt(Q_x(P)), and one walk of that surface
over GF(2^d) (``varieties._model_points`` of the one form C) decides
every mask at once.  sqrt on GF(2^d) is x -> x^(2^(d-1)), one
``frobenius_table``.  The pencil, ``_pencil``, is a pure function cached
per family: it walks d = 1, 2, ... in turn while any of its 16 masks is
open, and returns each mask's least point in a read-only mapping.  It is
exact:

- a row's points are closed under x -> x^2, so its least point over
  GF(2^d) lies over a prefix that is least in its Frobenius orbit, and
  the walk keeps every point over each such prefix;
- a mask still open at degree d has no point over a smaller field, so
  every point over GF(2^d) on it has degree exactly d.

Every row is searched to degree 4 (MAX_CLAIMED_DEGREE), the largest
degree the table claims, and for the embedded table every mask closes
by then.  The surfaces of families 1, 3 and 4 are scanned in x4 (they
contain x4^3), which costs 2^d times a curve walk, so no surface walk
beyond ENUMERATION_BUDGET starts.  ``find_survivors`` confirms each row
the pencil leaves open below degree 4 with ``min_point_degree`` on the
row's own curve, an independent walk; a disagreement is a mathematical
failure.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .catalog import build_model, get_entry
from .gf import frobenius_table, make_field
from .records import record
from .varieties import (MultiPoly, ProjectiveCurve, _embedded_terms, _model_points,
                        check_budget, curve_point_counts, format_point,
                        min_point_degree, parse_multipoly, parse_point,
                        point_degree, walk_size)
from .zeta import (CountInconsistencyError, analyse_counts, cyclic_extension_count,
                   hurwitz_different_degree)

VARS = ("x1", "x2", "x3", "x4")

CUBICS = {
    1: "x2^3+x1x3^2+x4^3+x1^2x3+x3x4^2",
    2: "x2^3+x1x3^2+x2^2x3+x2^2x4+x1^3+x3^2x4+x1^2x2+x2x4^2",
    3: "x2^2x3+x1x4^2+x3^3+x3^2x4+x1^2x2+x4^3+x1^2x3+x3x4^2",
    4: "x1^3+x1^2x3+x1x4^2+x2^2x4+x2x4^2+x3^3+x3x4^2+x4^3",
}

QUADRICS = {
    1: "x1x2+x3x4",
    2: "x1x2+x1x3+x1x4+x2x4",
    3: "x1x3+x2x3+x2x4+x3x4",
    4: "x1x4+x2x3+x3x4",
}

# (expanded quadric, witness) for each of the 16 masks per family, in mask
# order (k1 k2 k3 k4 read as a 4-bit integer, ascending).  Witness None
# marks the published "Point of degree 4" row.
PUBLISHED_TABLE = {
    1: [
        ("x1x2 + x3x4", "(1:0:0:0)"),
        ("x1x2 + x3x4 + x4^2", "(1:0:0:0)"),
        ("x1x2 + x3^2 + x3x4", "(1:0:0:0)"),
        ("x1x2 + x3^2 + x3x4 + x4^2", "(1:0:0:0)"),
        ("x1x2 + x2^2 + x3x4", "(1:0:0:0)"),
        ("x1x2 + x2^2 + x3x4 + x4^2", "(1:0:0:0)"),
        ("x1x2 + x2^2 + x3^2 + x3x4", "(1:0:0:0)"),
        ("x1x2 + x2^2 + x3^2 + x3x4 + x4^2", "(1:0:0:0)"),
        ("x1^2 + x1x2 + x3x4", "(0:0:1:0)"),
        ("x1^2 + x1x2 + x3x4 + x4^2", "(0:0:1:0)"),
        ("x1^2 + x1x2 + x3^2 + x3x4", "(1:0:1:0)"),
        ("x1^2 + x1x2 + x3^2 + x3x4 + x4^2", "(1:0:1:0)"),
        ("x1^2 + x1x2 + x2^2 + x3x4", "(0:0:1:0)"),
        ("x1^2 + x1x2 + x2^2 + x3x4 + x4^2", "(0:0:1:0)"),
        ("x1^2 + x1x2 + x2^2 + x3^2 + x3x4", "(1:0:1:0)"),
        ("x1^2 + x1x2 + x2^2 + x3^2 + x3x4 + x4^2", "(1:0:1:0)"),
    ],
    2: [
        ("x1x2 + x1x3 + x1x4 + x2x4", "(0:0:1:0)"),
        ("x1x2 + x1x3 + x1x4 + x2x4 + x4^2", "(0:0:1:0)"),
        ("x1x2 + x1x3 + x3^2 + x1x4 + x2x4", "(0:0:0:1)"),
        ("x1x2 + x1x3 + x3^2 + x1x4 + x2x4 + x4^2", "(1:1:1:1)"),
        ("x1x2 + x2^2 + x1x3 + x1x4 + x2x4", "(0:0:1:0)"),
        ("x1x2 + x2^2 + x1x3 + x1x4 + x2x4 + x4^2", "(0:0:1:0)"),
        ("x1x2 + x2^2 + x1x3 + x3^2 + x1x4 + x2x4", "(0:0:0:1)"),
        ("x1x2 + x2^2 + x1x3 + x3^2 + x1x4 + x2x4 + x4^2", "(1:0:1:0)"),
        ("x1^2 + x1x2 + x1x3 + x1x4 + x2x4", "(0:0:1:0)"),
        ("x1^2 + x1x2 + x1x3 + x1x4 + x2x4 + x4^2", "(0:0:1:0)"),
        ("x1^2 + x1x2 + x1x3 + x3^2 + x1x4 + x2x4", "(0:0:0:1)"),
        ("x1^2 + x1x2 + x1x3 + x3^2 + x1x4 + x2x4 + x4^2", None),
        ("x1^2 + x1x2 + x2^2 + x1x3 + x1x4 + x2x4", "(0:0:0:1)"),
        ("x1^2 + x1x2 + x2^2 + x1x3 + x1x4 + x2x4 + x4^2", "(0:0:1:0)"),
        ("x1^2 + x1x2 + x2^2 + x1x3 + x3^2 + x1x4 + x2x4", "(0:0:0:1)"),
        ("x1^2 + x1x2 + x2^2 + x1x3 + x3^2 + x1x4 + x2x4 + x4^2", "(1:1:1:1)"),
    ],
    3: [
        ("x1x3 + x2x3 + x2x4 + x3x4", "(1:0:0:0)"),
        ("x1x3 + x2x3 + x2x4 + x3x4 + x4^2", "(1:0:0:0)"),
        ("x1x3 + x2x3 + x3^2 + x2x4 + x3x4", "(1:0:0:0)"),
        ("x1x3 + x2x3 + x3^2 + x2x4 + x3x4 + x4^2", "(1:0:0:0)"),
        ("x2^2 + x1x3 + x2x3 + x2x4 + x3x4", "(1:0:0:0)"),
        ("x2^2 + x1x3 + x2x3 + x2x4 + x3x4 + x4^2", "(1:0:0:0)"),
        ("x2^2 + x1x3 + x2x3 + x3^2 + x2x4 + x3x4", "(1:0:0:0)"),
        ("x2^2 + x1x3 + x2x3 + x3^2 + x2x4 + x3x4 + x4^2", "(1:0:0:0)"),
        ("x1^2 + x1x3 + x2x3 + x2x4 + x3x4", "(0:1:0:0)"),
        ("x1^2 + x1x3 + x2x3 + x2x4 + x3x4 + x4^2", "(0:1:0:0)"),
        ("x1^2 + x1x3 + x2x3 + x3^2 + x2x4 + x3x4", "(0:1:0:0)"),
        ("x1^2 + x1x3 + x2x3 + x3^2 + x2x4 + x3x4 + x4^2", "(0:1:0:0)"),
        ("x1^2 + x2^2 + x1x3 + x2x3 + x2x4 + x3x4", "(1:1:1:1)"),
        ("x1^2 + x2^2 + x1x3 + x2x3 + x2x4 + x3x4 + x4^2", "(0:0:1:1)"),
        ("x1^2 + x2^2 + x1x3 + x2x3 + x3^2 + x2x4 + x3x4", "(0:0:1:1)"),
        ("x1^2 + x2^2 + x1x3 + x2x3 + x3^2 + x2x4 + x3x4 + x4^2", "(1:1:1:1)"),
    ],
    4: [
        ("x2x3 + x1x4 + x3x4", "(0:1:0:0)"),
        ("x2x3 + x1x4 + x3x4 + x4^2", "(0:1:0:0)"),
        ("x2x3 + x3^2 + x1x4 + x3x4", "(0:1:0:0)"),
        ("x2x3 + x3^2 + x1x4 + x3x4 + x4^2", "(0:1:0:0)"),
        ("x2^2 + x2x3 + x1x4 + x3x4", "(1:1:1:1)"),
        ("x2^2 + x2x3 + x1x4 + x3x4 + x4^2", "(b:0:b^3:1)"),
        ("x2^2 + x2x3 + x3^2 + x1x4 + x3x4", "(1:0:a:1)"),
        ("x2^2 + x2x3 + x3^2 + x1x4 + x3x4 + x4^2", "(1:1:1:1)"),
        ("x1^2 + x2x3 + x1x4 + x3x4", "(1:1:1:1)"),
        ("x1^2 + x2x3 + x1x4 + x3x4 + x4^2", "(0:1:0:0)"),
        ("x1^2 + x2x3 + x3^2 + x1x4 + x3x4", "(0:1:0:0)"),
        ("x1^2 + x2x3 + x3^2 + x1x4 + x3x4 + x4^2", "(0:1:0:0)"),
        ("x1^2 + x2^2 + x2x3 + x1x4 + x3x4", "(0:a:1:1)"),
        ("x1^2 + x2^2 + x2x3 + x1x4 + x3x4 + x4^2", "(1:1:1:1)"),
        ("x1^2 + x2^2 + x2x3 + x3^2 + x1x4 + x3x4", "(1:1:1:1)"),
        ("x1^2 + x2^2 + x2x3 + x3^2 + x1x4 + x3x4 + x4^2", "(0:a:1:1)"),
    ],
}

SURVIVOR_FAMILY = 2
SURVIVOR_MASK = (1, 0, 1, 1)
# the largest witness degree the table claims, that of its "point of
# degree 4" row: every row is searched to it
MAX_CLAIMED_DEGREE = 4

# (k1, k2, k3, k4) in mask order: k1 is the high bit of the 4-bit integer
MASKS = tuple(tuple((code >> (3 - j)) & 1 for j in range(4)) for code in range(16))


class WitnessMismatchError(ValueError):
    """The pencil and the row's own curve walk disagree on a row."""


class SurvivorMismatchError(ValueError):
    """The survivor's model is not catalog curve viii's."""


class TableRow(record("TableRow", "family mask model paper_quadric paper_witness")):
    """One published row: ``mask`` is (k1, k2, k3, k4), ``model`` the
    ProjectiveCurve of its quadric and cubic, ``paper_witness`` None for
    the published degree-4 row."""

    __slots__ = ()

    @property
    def quadric(self) -> MultiPoly:
        return self.model.polys[0]

    @property
    def mask_str(self) -> str:
        return "".join(map(str, self.mask))


class RowResult(record("RowResult", "row quadric_matches_published witness_on_curve "
                                    "witness_degree claimed_degree computed_min_degree "
                                    "computed_witness problems")):
    __slots__ = ()

    @property
    def status(self) -> str:
        return "pass" if not self.problems else "fail"


# counts: N_1..N_5 by direct enumeration; cross_checked: (5,), N_5 met the
# L-extension; census: B_1..B_5; different_degree: the Hurwitz check for
# the degree-5 cover; cyclic_count: the ray-class cyclic extension count
SurvivorReport = record("SurvivorReport", "counts cross_checked l_coeffs h census "
                                          "different_degree cyclic_count")


def build_family() -> tuple[TableRow, ...]:
    """All 64 rows: family ascending, mask as a 4-bit integer ascending.
    Row (family, k) has the quadric Q_family + k1*x1^2 + ... + k4*x4^2
    (char 2: L(k)^2 = sum k_j x_j^2)."""
    F2 = make_field(2, 1)
    rows = []
    for family in (1, 2, 3, 4):
        cubic = parse_multipoly(CUBICS[family], F2, VARS)
        base = dict(parse_multipoly(QUADRICS[family], F2, VARS).terms)
        for mask, (paper_q, witness) in zip(MASKS, PUBLISHED_TABLE[family]):
            terms = dict(base)
            for j, k in enumerate(mask):
                if k:
                    exps = tuple(2 if v == j else 0 for v in range(4))
                    terms[exps] = F2.add(terms.get(exps, 0), 1)
            model = ProjectiveCurve((cubic, MultiPoly.build(F2, 4, terms)))
            rows.append(TableRow(family, mask, model, paper_q, witness))
    return tuple(rows)


@lru_cache(maxsize=None)
def _pencil(cubic: MultiPoly, cross: MultiPoly) -> MappingProxyType:
    """{mask: (degree, least point, field)} of the 16 rows that share the
    cubic and the cross part of their quadrics, in a read-only mapping
    (see the module docstring); a mask with no point of degree <=
    MAX_CLAIMED_DEGREE is absent."""
    surface, least = (cubic,), {}
    for d in range(1, MAX_CLAIMED_DEGREE + 1):
        # each open mask as the coordinates it sums
        open_masks = [(m, [j for j, k in enumerate(m) if k])
                      for m in MASKS if m not in least]
        if not open_masks:
            break
        check_budget(walk_size(surface, d))
        ext = make_field(2, d)
        sqrt = frobenius_table(ext, 2 ** (d - 1))
        cross_d = _embedded_terms(cross, ext)
        best = {}
        for point, _ in _model_points(surface, ext):
            root = sqrt[ext.evaluate(cross_d, point)]
            for mask, coords in open_masks:
                s = 0
                for j in coords:
                    s ^= point[j]  # char 2: sums are xors
                if s == root and (mask not in best or point < best[mask]):
                    best[mask] = point
        least.update((m, (d, p, ext)) for m, p in best.items())
    return MappingProxyType(least)


def pencil_witness(model: ProjectiveCurve):
    """``min_point_degree(model, MAX_CLAIMED_DEGREE)`` for a quadric and a
    cubic over GF(2), read from the pencil of the cubic and the cross
    part of the quadric; the quadric's square terms x_j^2 give the mask."""
    quadric, cubic = model.polys
    cross, mask = {}, [0] * 4
    for exps, c in quadric.terms:
        if 2 in exps:
            mask[exps.index(2)] = c
        else:
            cross[exps] = c
    return _pencil(cubic, MultiPoly.build(model.field, 4, cross)).get(tuple(mask))


def _witness_fields():
    return {"a": make_field(2, 2), "b": make_field(2, 3)}


def _format_witness(found) -> str:
    """A (degree, point, field) witness in the table's notation."""
    return format_point(found[1], found[2], "b" if found[2].k == 3 else "a")


def verify_row(row: TableRow) -> RowResult:
    """Check one row against the published table.

    Pass requires: the expanded quadric equals the published monomial set;
    the published witness (when given) lies on every form with
    Frobenius-orbit degree matching its field of definition; and the
    computed minimal point degree does not exceed the claimed one.  Every
    row is searched to MAX_CLAIMED_DEGREE, so every claim is judged.  The
    computed witness is read from the pencil of the row's own model
    (``pencil_witness``), so a row with another cubic or quadric is
    searched as given.
    """
    problems = []
    F2 = make_field(2, 1)
    paper_poly = parse_multipoly(row.paper_quadric, F2, VARS)
    q_match = set(paper_poly.terms) == set(row.quadric.terms)
    if not q_match:
        problems.append("expanded quadric differs from the published one")

    witness_on = witness_deg = claimed = None
    if row.paper_witness is not None:
        coords, wfield = parse_point(row.paper_witness, _witness_fields(), F2)
        claimed = wfield.k  # GF(2)->1, GF(4)->2, GF(8)->3
        witness_on = all(f(coords, wfield) == 0 for f in row.model.polys)
        if not witness_on:
            problems.append("published witness is not on the curve")
        witness_deg = point_degree(coords, wfield, F2)
        if witness_deg != claimed:
            problems.append(
                f"witness degree {witness_deg} != claimed {claimed}")
    else:
        claimed = MAX_CLAIMED_DEGREE

    found = pencil_witness(row.model)
    computed_min = found[0] if found else None
    computed_witness = _format_witness(found) if found else None
    if computed_min is None or computed_min > claimed:
        problems.append(
            f"computed minimal degree {computed_min} exceeds claimed {claimed}")
    return RowResult(row, q_match, witness_on, witness_deg, claimed,
                     computed_min, computed_witness, tuple(problems))


def find_survivors(rows) -> list[TableRow]:
    """Rows with no point of degree <= 3.  The pencil decides every row;
    each row it leaves open is confirmed by ``min_point_degree`` on the
    row's own curve, and a point found there raises
    WitnessMismatchError."""
    survivors = []
    for row in rows:
        found = pencil_witness(row.model)
        if found is None or found[0] > 3:  # open below degree 4
            found = min_point_degree(row.model, 3)
            if found is not None:
                raise WitnessMismatchError(
                    f"family {row.family} mask {row.mask_str}: the pencil found no "
                    f"point of degree <= 3, the curve has "
                    f"{_format_witness(found)} of degree {found[0]}")
            survivors.append(row)
    return survivors


def survivor_analysis(row: TableRow) -> SurvivorReport:
    """The zeta pipeline ``analyse_counts`` on the surviving genus-4
    model, which must be catalog curve viii's (else SurvivorMismatchError):
    N_5 is enumerated over GF(32) and cross-checked against the
    L-extension, and the census must be nonnegative integers.  The first
    problem raises CountInconsistencyError."""
    if row.model != build_model(get_entry("viii")):
        raise SurvivorMismatchError(f"family {row.family} mask {row.mask_str}: the "
                                    "survivor's model is not catalog curve viii's")
    counts = tuple(curve_point_counts(row.model, 5))
    g = row.model.genus
    l_coeffs, h, census, checked, problems = analyse_counts(2, g, counts, 5)
    if problems:
        raise CountInconsistencyError(problems[0])
    return SurvivorReport(counts, checked, l_coeffs, h, census,
                          hurwitz_different_degree(g, 0, 5),
                          cyclic_extension_count(h, 2, 4, 5))
