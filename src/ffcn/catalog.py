"""The catalog of the eight function fields with class number one and
positive genus, and one verification pipeline for all of them.

Each entry records the claimed invariants (genus, class number) next to
a computable model; ``verify_curve`` recomputes everything from the
model and reports any disagreement.  ``model_from_spec`` builds a model
from a spec (catalog entries and model files alike) and is the only
code that reads the kind.  There are two models, one per way of counting:

* ``artin_schreier`` / ``kummer``: a ``covers.CoverModel``, a degree-2
  cover of a rational field, counted place by place (no point
  enumeration needed); with f = x it is the rational field itself,
* ``plane_quartic`` (a quartic in P^2) and ``space_curve`` (a
  cubic-quadric intersection in P^3): a ``varieties.ProjectiveCurve``,
  whose points are enumerated.

Every model exposes ``field``, ``genus``, ``cross_check_depth``,
``counts(n)`` (N_1..N_n) and ``enumeration_size(n)``, the size of the
largest enumeration those counts start;
the L-polynomial, class number, cross-check and place census always come
from ``zeta.analyse_counts`` of the counts, the one zeta pipeline.
"""

from __future__ import annotations

import json
import sys

from .covers import CoverModel
from .gf import extension_order, make_field
from .polyring import Place, moebius_transport, parse_poly, parse_rational
from .records import record
from .varieties import ProjectiveCurve, check_budget, parse_multipoly
from .zeta import analyse_counts, cyclic_extension_count, hurwitz_different_degree

# each kind's keys besides p, k and kind
MODEL_KEYS = {"artin_schreier": ("f",), "kummer": ("f",),
              "plane_quartic": ("poly", "vars"), "space_curve": ("cubic", "quadric", "vars")}
# each curve kind's forms as {key: degree}, and its message for a form of
# another degree, given the form's degree d and its actual degree as text
CURVE_FORMS = {
    "plane_quartic": ({"poly": 4}, "a plane quartic needs a form of degree {d}, not of {shown}"),
    "space_curve": ({"cubic": 3, "quadric": 2},
                    "expected a homogeneous degree-{d} form in 4 variables"),
}


def model_from_spec(spec: dict):
    """The model a spec describes.  A spec holds exactly ``p``, ``k``,
    ``kind`` and the kind's keys (``MODEL_KEYS``): ``f`` for the covers,
    ``poly`` and ``vars`` for a plane quartic, ``cubic``, ``quadric`` and
    ``vars`` for a space curve.

    A cover's support walk visits GF(q^d) for f of degree d, so a d beyond
    the budget is refused while f is parsed, before its d + 1 coefficients
    are laid out."""
    if type(spec) is not dict:
        raise ValueError(f"model spec {spec!r} is not a JSON object")
    try:
        kind = spec["kind"]
        if type(kind) is not str or kind not in MODEL_KEYS:
            raise ValueError(f"unknown model kind {kind!r}")
        unknown = sorted(set(spec) - {"p", "k", "kind", *MODEL_KEYS[kind]})
        if unknown:
            raise ValueError("model spec has the unknown keys " + ", ".join(map(repr, unknown)))
        for key in ("p", "k"):
            if type(spec[key]) is not int:  # bool is an int subclass
                raise ValueError(f"model spec key {key!r} must be an integer, "
                                 f"not {spec[key]!r}")
        F = make_field(spec["p"], spec["k"])
        if kind in CURVE_FORMS:
            degrees, message = CURVE_FORMS[kind]
            names = _variables(spec["vars"], len(degrees) + 2)
            polys = [parse_multipoly(spec[key], F, names) for key in degrees]
            for poly, d in zip(polys, degrees.values()):
                if poly.degree != d:
                    raise ValueError(message.format(d=d, shown=_degree_text(poly)))
            return ProjectiveCurve(polys)
        f = parse_rational(spec["f"], F,
                           check_degree=lambda d: check_budget(extension_order(F, d)))
        return CoverModel(kind, f)
    except KeyError as exc:
        raise ValueError(f"model spec lacks the field {exc}") from None


def _degree_text(poly) -> str:
    try:
        return f"degree {poly.degree}"
    except ValueError:  # more digits than Python writes as text
        return f"a degree of more than {sys.get_int_max_str_digits()} digits"


def _variables(names, count: int) -> tuple[str, ...]:
    if not (type(names) is list and all(type(v) is str and v for v in names)
            and len(set(names)) == len(names) == count):
        raise ValueError(f"model spec key 'vars' must be a list of {count} distinct "
                         f"variable names, not {names!r}")
    return tuple(names)


_NOUNS = {str: "text", int: "an integer", dict: "a JSON object"}


class CatalogEntry(record("CatalogEntry",
                          "curve_id p k genus class_number kind data equation")):
    """A curve's claimed invariants next to its model: ``data`` holds the
    model keys of its ``kind`` (see ``model_from_spec``)."""

    __slots__ = ()

    def __new__(cls, curve_id: str, p: int, k: int, genus: int,
                class_number: int, kind: str, data: dict, equation: str):
        if type(kind) is not str or kind not in MODEL_KEYS:
            raise ValueError(f"unknown model kind {kind!r}")
        for key, value, want in (("curve_id", curve_id, str), ("genus", genus, int),
                                 ("class_number", class_number, int), ("data", data, dict),
                                 ("equation", equation, str)):
            if type(value) is not want:  # bool is an int subclass
                raise ValueError(f"catalog entry {curve_id!r} key {key!r} must be "
                                 f"{_NOUNS[want]}, not {value!r}")
        unknown = sorted(set(data) - set(MODEL_KEYS[kind]))
        if unknown:
            raise ValueError(f"catalog entry {curve_id!r} data has the unknown keys "
                             + ", ".join(map(repr, unknown)))
        return super().__new__(cls, curve_id, p, k, genus, class_number, kind,
                               data, equation)


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


class UnknownCurveError(KeyError):
    """No catalog entry has the requested curve id."""

    def __str__(self):  # KeyError's own str() is the repr of its message
        return self.args[0]


def get_entry(curve_id: str, catalog=DEFAULT_CATALOG) -> CatalogEntry:
    for entry in catalog:
        if entry.curve_id == curve_id:
            return entry
    raise UnknownCurveError(f"no curve {curve_id!r} in the catalog")


def build_model(entry: CatalogEntry):
    return model_from_spec({"p": entry.p, "k": entry.k, "kind": entry.kind,
                            **entry.data})


def _entry_from_json(item) -> CatalogEntry:
    """The entry a catalog item describes; a TypeError names any missing
    or unknown keys."""
    if not isinstance(item, dict):
        raise TypeError(f"catalog entry {item!r} is not a JSON object")
    missing = [name for name in CatalogEntry._fields if name not in item]
    unknown = sorted(set(item) - set(CatalogEntry._fields))
    faults = []
    if missing:
        faults.append("lacks the keys " + ", ".join(map(repr, missing)))
    if unknown:
        faults.append("has the unknown keys " + ", ".join(map(repr, unknown)))
    if faults:
        raise TypeError(f"catalog entry {item.get('curve_id')!r} " + " and ".join(faults))
    return CatalogEntry(**item)


def load_catalog(text: str) -> tuple[CatalogEntry, ...]:
    """Parse a catalog, a non-empty JSON list of entries, and build every
    entry's model, so that a malformed entry or a repeated id is reported
    before any verification starts."""
    items = json.loads(text)
    if type(items) is not list or not items:
        raise ValueError(f"a catalog must be a non-empty JSON list of entries, not {items!r}")
    catalog = tuple(_entry_from_json(item) for item in items)
    seen = set()
    for entry in catalog:
        if entry.curve_id in seen:
            raise ValueError(f"the catalog has two entries with the id {entry.curve_id!r}")
        seen.add(entry.curve_id)
        build_model(entry)
    return catalog


class CurveReport(record("CurveReport", "entry genus h l_coeffs counts census "
                                        "cross_checked problems")):
    """``counts`` is N_1..N_D, ``census`` B_1..B_D, and ``cross_checked``
    the degrees m where enumeration met the L-extension."""

    __slots__ = ()

    @property
    def status(self) -> str:
        return "pass" if not self.problems else "fail"


def count_depth(model, max_place_degree: int) -> int:
    """The last N_m that ``verify_curve`` counts."""
    return max(max_place_degree, model.cross_check_depth, model.genus)


def verify_curve(entry: CatalogEntry, max_place_degree: int = 5) -> CurveReport:
    """Recompute genus, L-polynomial, class number, and place census from
    the model with ``analyse_counts``, and compare against the entry's
    claims; a miscount is a problem line.  Counts beyond N_g are
    cross-checked at least through the model's ``cross_check_depth`` and
    otherwise through min(2g, depth).
    """
    model = build_model(entry)
    genus = model.genus
    depth = count_depth(model, max_place_degree)
    counts = tuple(model.counts(depth))
    l_coeffs, h, census, checked, found = analyse_counts(
        model.field.order, genus, counts,
        max(model.cross_check_depth, min(2 * genus, depth)))

    problems = []
    if genus != entry.genus:
        problems.append(f"computed genus {genus} != claimed {entry.genus}")
    if l_coeffs and h != entry.class_number:
        problems.append(f"computed class number {h} != claimed {entry.class_number}")
    return CurveReport(entry, genus, h, l_coeffs, counts, census[:max_place_degree],
                       checked, tuple(problems) + found)


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
