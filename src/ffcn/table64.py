"""The 64 cubic-quadric pairs in P^3 over GF(2): generation of the full
family, row-by-row verification against the published table (quadric
expansion, witness membership, witness degree), survivor identification,
and the full zeta pipeline on the unique survivor.

The published table is embedded below as ground-truth test data.  In the
witness strings, ``a`` is the GF(4) generator with a^2+a+1 = 0 and ``b``
the GF(8) generator with b^3+b+1 = 0, matching the table's notation.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import make_field
from .records import record
from .varieties import (MultiPoly, SpaceCurve, curve_point_counts,
                        format_point, min_point_degree, parse_multipoly,
                        parse_point, point_degree)
from .zeta import (CountInconsistencyError, PointCounts, census_from_counts,
                   class_number, cyclic_extension_count, extend_counts,
                   hurwitz_different_degree, l_polynomial)

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


class TableRow(record("TableRow", "family mask model paper_quadric paper_witness")):
    """One published row: ``mask`` is (k1, k2, k3, k4), ``model`` the
    SpaceCurve, ``paper_witness`` None for the published degree-4 row."""

    __slots__ = ()

    @property
    def quadric(self) -> MultiPoly:
        return self.model.quadric

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


# counts: N_1..N_5 by direct enumeration; n5_extended: N_5 from the
# L-polynomial; census: B_1..B_5; different_degree: the Hurwitz check for
# the degree-5 cover; cyclic_count: the ray-class cyclic extension count
SurvivorReport = record("SurvivorReport", "row probe_depth counts n5_extended l_coeffs "
                                          "h census different_degree cyclic_count")


@lru_cache(maxsize=None)
def _base_quadric(family: int) -> MultiPoly:
    """Q_family, parsed once per family rather than once per mask."""
    return parse_multipoly(QUADRICS[family], make_field(2, 1), VARS)


def expanded_quadric(family: int, mask) -> MultiPoly:
    """Q_family + k1*x1^2 + ... + k4*x4^2 (char 2: L(k)^2 = sum k_j x_j^2)."""
    F2 = make_field(2, 1)
    terms = dict(_base_quadric(family).terms)
    for j, k in enumerate(mask):
        if k:
            exps = tuple(2 if v == j else 0 for v in range(4))
            terms[exps] = F2.add(terms.get(exps, 0), 1)
    return MultiPoly.build(F2, 4, terms)


@lru_cache(maxsize=1)
def build_family() -> tuple[TableRow, ...]:
    """All 64 rows: family ascending, mask as a 4-bit integer ascending."""
    F2 = make_field(2, 1)
    rows = []
    for family in (1, 2, 3, 4):
        cubic = parse_multipoly(CUBICS[family], F2, VARS)
        for code in range(16):
            mask = tuple((code >> (3 - j)) & 1 for j in range(4))
            paper_q, witness = PUBLISHED_TABLE[family][code]
            model = SpaceCurve(cubic, expanded_quadric(family, mask))
            rows.append(TableRow(family, mask, model, paper_q, witness))
    return tuple(rows)


def _witness_fields():
    return {"a": make_field(2, 2), "b": make_field(2, 3)}


def verify_row(row: TableRow, d_max: int = 4) -> RowResult:
    """Check one row against the published table.

    Pass requires: the expanded quadric equals the published monomial set;
    the published witness (when given) lies on cubic and quadric with
    Frobenius-orbit degree matching its field of definition; and the
    computed minimal point degree does not exceed the claimed one.
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
        on_cubic = row.model.cubic(coords, wfield) == 0
        on_quadric = row.model.quadric(coords, wfield) == 0
        witness_on = on_cubic and on_quadric
        if not witness_on:
            problems.append("published witness is not on the curve")
        witness_deg = point_degree(coords, wfield, F2)
        if witness_deg != claimed:
            problems.append(
                f"witness degree {witness_deg} != claimed {claimed}")
    else:
        claimed = 4

    found = min_point_degree(row.model, d_max)
    computed_min = found[0] if found else None
    computed_witness = None
    if found:
        symbol = "b" if found[2].k == 3 else "a"
        computed_witness = format_point(found[1], found[2], symbol)
    if d_max >= claimed:
        if computed_min is None or computed_min > claimed:
            problems.append(
                f"computed minimal degree {computed_min} exceeds claimed {claimed}")
    return RowResult(row, q_match, witness_on, witness_deg, claimed,
                     computed_min, computed_witness, tuple(problems))


def find_survivors(rows) -> list[TableRow]:
    """Rows with no point of degree <= 3."""
    return [row for row in rows if min_point_degree(row.model, 3) is None]


def survivor_analysis(row: TableRow, probe_depth: int = 6) -> SurvivorReport:
    """Full zeta pipeline on the surviving genus-4 model.

    N_5 is computed twice (direct GF(32) enumeration and L-polynomial
    extension) and must agree; the census must be nonnegative integers.
    """
    counts = curve_point_counts(row.model, 5, probe_depth)
    g = row.model.genus
    pc = PointCounts(2, g, tuple(counts[:g]))
    L = l_polynomial(pc)
    h = class_number(L)
    n5_ext = extend_counts(L, 5).counts[4]
    if n5_ext != counts[4]:
        raise CountInconsistencyError(
            f"N_5 mismatch: enumeration {counts[4]} vs L-extension {n5_ext}")
    census = census_from_counts(PointCounts(2, g, tuple(counts)))
    return SurvivorReport(
        row=row,
        probe_depth=probe_depth,
        counts=tuple(counts),
        n5_extended=n5_ext,
        l_coeffs=L.coeffs,
        h=h,
        census=census.counts,
        different_degree=hurwitz_different_degree(g, 0, 5),
        cyclic_count=cyclic_extension_count(h, 2, 4, 5),
    )
