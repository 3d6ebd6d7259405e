"""The catalog of the eight function fields with class number one and
positive genus, with a verification pipeline per model kind.

Each entry records the claimed invariants (genus, class number) next to
a computable model; ``verify_curve`` recomputes everything from the
model and reports any disagreement.  Model kinds:

* ``artin_schreier`` / ``kummer``: degree-2 covers of a rational field,
  handled place by place (no point enumeration needed),
* ``plane_quartic``: a smooth homogeneous quartic in P^2,
* ``space_curve``: a cubic-quadric intersection in P^3.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .covers import CoverKind, CoverModel, cover_genus, place_census
from .gf import make_field
from .polyring import Place, moebius_transport, parse_poly, parse_rational
from .varieties import (PlaneCurve, SpaceCurve, curve_point_counts,
                        parse_multipoly)
from .zeta import (CountInconsistencyError, PointCounts, census_from_counts,
                   census_to_counts, class_number, cyclic_extension_count,
                   extend_counts, hurwitz_different_degree, l_polynomial)

COVER_KINDS = ("artin_schreier", "kummer")
MODEL_KINDS = COVER_KINDS + ("plane_quartic", "space_curve")


@dataclass(frozen=True)
class CatalogEntry:
    curve_id: str
    p: int
    k: int
    genus: int
    class_number: int
    kind: str
    data: dict
    equation: str

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")


DEFAULT_CATALOG = (
    CatalogEntry("i", 2, 1, 1, 1, "artin_schreier",
                 {"f": "x^3+x+1"},
                 "y^2+y+x^3+x+1=0"),
    CatalogEntry("ii", 2, 1, 2, 1, "artin_schreier",
                 {"f": "x^5+x^3+1"},
                 "y^2+y+x^5+x^3+1=0"),
    CatalogEntry("iii", 2, 1, 2, 1, "artin_schreier",
                 {"f": "(x^3+x^2+1)/(x^3+x+1)"},
                 "y^2+y+(x^3+x^2+1)/(x^3+x+1)=0"),
    CatalogEntry("iv", 2, 1, 3, 1, "plane_quartic",
                 {"poly": "y^4+xy^3+x^2y^2+xy^2z+x^3y+yz^3+x^4+xz^3+z^4",
                  "vars": ["x", "y", "z"]},
                 "y^4+xy^3+(x^2+x)y^2+(x^3+1)y+x^4+x+1=0"),
    CatalogEntry("v", 2, 1, 3, 1, "plane_quartic",
                 {"poly": "y^4+x^3y+xyz^2+yz^3+x^4+xz^3+z^4",
                  "vars": ["x", "y", "z"]},
                 "y^4+(x^3+x+1)y+x^4+x+1=0"),
    CatalogEntry("vi", 3, 1, 1, 1, "kummer",
                 {"f": "x^3+2x+2"},
                 "y^2+2x^3+x+1=0"),
    CatalogEntry("vii", 2, 2, 1, 1, "artin_schreier",
                 {"f": "x^3+a"},
                 "y^2+y+x^3+a=0"),
    CatalogEntry("viii", 2, 1, 4, 1, "space_curve",
                 {"cubic": "x2^3+x1x3^2+x2^2x3+x2^2x4+x1^3+x3^2x4+x1^2x2+x2x4^2",
                  "quadric": "x1^2+x1x2+x1x3+x3^2+x1x4+x2x4+x4^2",
                  "vars": ["x1", "x2", "x3", "x4"]},
                 "y^5+y^3+y^2(x^3+x^2+x)"
                 "+y(x^7+x^5+x^4+x^3+x)/(x^4+x+1)"
                 "+(x^13+x^12+x^8+x^6+x^2+x+1)/(x^4+x+1)^2=0"),
)


def get_entry(curve_id: str, catalog=DEFAULT_CATALOG) -> CatalogEntry:
    for entry in catalog:
        if entry.curve_id == curve_id:
            return entry
    raise KeyError(f"no curve {curve_id!r} in the catalog")


def build_model(entry: CatalogEntry):
    F = make_field(entry.p, entry.k)
    if entry.kind in COVER_KINDS:
        kind = (CoverKind.ARTIN_SCHREIER if entry.kind == "artin_schreier"
                else CoverKind.KUMMER)
        return CoverModel(kind, parse_rational(entry.data["f"], F))
    varnames = tuple(entry.data["vars"])
    if entry.kind == "plane_quartic":
        return PlaneCurve(parse_multipoly(entry.data["poly"], F, varnames))
    return SpaceCurve(parse_multipoly(entry.data["cubic"], F, varnames),
                      parse_multipoly(entry.data["quadric"], F, varnames))


def dump_catalog(catalog=DEFAULT_CATALOG) -> str:
    return json.dumps([asdict(e) for e in catalog], indent=2, sort_keys=True) + "\n"


def load_catalog(text: str) -> tuple[CatalogEntry, ...]:
    return tuple(CatalogEntry(**item) for item in json.loads(text))


@dataclass(frozen=True)
class CurveReport:
    entry: CatalogEntry
    genus: int
    h: int
    l_coeffs: tuple[int, ...]
    counts: tuple[int, ...]          # N_1..N_D
    census: tuple[int, ...]          # B_1..B_D
    cross_checked: tuple[int, ...]   # degrees m where enumeration met L-extension
    problems: tuple[str, ...]

    @property
    def status(self) -> str:
        return "pass" if not self.problems else "fail"


def verify_curve(entry: CatalogEntry, max_place_degree: int = 5,
                 probe_depth: int = 6) -> CurveReport:
    """Recompute genus, L-polynomial, class number, and place census from
    the model, and compare against the entry's claims.

    Counts beyond N_g are computed independently of the L-polynomial and
    cross-checked against its power-sum extension; the degrees where the
    two agree are reported.
    """
    model = build_model(entry)
    problems = []
    if entry.kind in COVER_KINDS:
        genus = cover_genus(model)
        depth = max(max_place_degree, 2 * genus + 2)
        census_full = place_census(model, depth)
        counts = census_to_counts(census_full, depth)
    else:
        genus = model.genus
        depth = max(max_place_degree, min(2 * genus, 6), genus)
        counts = curve_point_counts(model, depth, probe_depth)
        census_full = census_from_counts(
            PointCounts(make_field(entry.p, entry.k).order, genus, tuple(counts)))

    if genus != entry.genus:
        problems.append(f"computed genus {genus} != claimed {entry.genus}")

    q = make_field(entry.p, entry.k).order
    try:
        L = l_polynomial(PointCounts(q, genus, tuple(counts[:genus])))
        h = class_number(L)
    except CountInconsistencyError as exc:
        return CurveReport(entry, genus, 0, (), tuple(counts),
                           census_full.counts[:max_place_degree],
                           (), tuple(problems) + (str(exc),))
    if h != entry.class_number:
        problems.append(f"computed class number {h} != claimed {entry.class_number}")

    extended = extend_counts(L, depth).counts
    checked = []
    for m in range(genus + 1, min(2 * genus + 2, depth) + 1
                   if entry.kind in COVER_KINDS
                   else min(2 * genus, depth) + 1):
        if extended[m - 1] != counts[m - 1]:
            problems.append(
                f"N_{m}: enumeration {counts[m - 1]} vs L-extension {extended[m - 1]}")
        else:
            checked.append(m)

    return CurveReport(entry, genus, h, L.coeffs, tuple(counts),
                       census_full.counts[:max_place_degree],
                       tuple(checked), tuple(problems))


def section_facts() -> dict:
    """The auxiliary arithmetic facts used by the genus-4 uniqueness
    argument, computed rather than asserted.

    The degree-4 place transport is reported under both conventions:
    direct substitution of the fractional-linear map into the place
    polynomial, and pushforward (substitution of the inverse map).  For
    the chain x -> 1/(x+1) followed by x -> 1/x applied to
    x^4+x^3+x^2+x+1 the two conventions visit the same pair of places
    {x^4+x^3+1, x^4+x+1} in opposite orders.
    """
    F2 = make_field(2, 1)
    start = Place(F2, parse_poly("x^4+x^3+x^2+x+1", F2))
    # x -> 1/(x+1) is (0,1,1,1); x -> 1/x is (0,1,1,0).  Inverses over
    # GF(2): (1,1,1,0) and (0,1,1,0).
    sub1 = moebius_transport(start, (0, 1, 1, 1))
    sub2 = moebius_transport(sub1, (0, 1, 1, 0))
    push1 = moebius_transport(start, (1, 1, 1, 0))
    push2 = moebius_transport(push1, (0, 1, 1, 0))
    return {
        "different_degree_quintic": hurwitz_different_degree(4, 0, 5),
        "cyclic_quintic_count": cyclic_extension_count(1, 2, 4, 5),
        "transport_substitution": [repr(start), repr(sub1), repr(sub2)],
        "transport_pushforward": [repr(start), repr(push1), repr(push2)],
    }
