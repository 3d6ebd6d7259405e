"""The value records keep the semantics of frozen dataclasses: every
construction check still raises (also through ``_replace``), fields
cannot be assigned, models compare and hash by value, and the catalog
serializes to the same bytes.  The zeta records check nothing: the Weil
test in ``zeta.analyse_counts`` is their one criterion (tests/test_zeta.py)."""

import hashlib

import pytest

from ffcn.catalog import (DEFAULT_CATALOG, CatalogEntry, build_model, get_entry,
                          model_from_spec)
from ffcn.covers import CoverKind, CoverModel, NonStandardCoverError
from ffcn.gf import FieldError, make_field
from ffcn.polyring import parse_rational
from ffcn.varieties import ProjectiveCurve, parse_multipoly
from ffcn.zeta import LPoly
from support import dump_catalog

F2, F3, F4 = make_field(2, 1), make_field(3, 1), make_field(2, 2)
XYZ = ("x", "y", "z")
X14 = ("x1", "x2", "x3", "x4")
CUBIC = "x1^3+x2^3+x3^3+x4^3"
QUADRIC = "x1x2+x3x4"


def _space_spec(cubic, quadric):
    return model_from_spec({"kind": "space_curve", "p": 2, "k": 1, "cubic": cubic,
                            "quadric": quadric, "vars": list(X14)})


INVALID = {
    "plane-not-homogeneous": (
        lambda: ProjectiveCurve((parse_multipoly("x^4+y^3z+z", F2, XYZ),)),
        ValueError, "homogeneous forms of positive degree in n variables"),
    "plane-not-3-variables": (
        lambda: ProjectiveCurve((parse_multipoly("x^4+y^4", F2, ("x", "y")),)),
        ValueError, "homogeneous forms of positive degree in n variables"),
    "space-cubic-wrong-degree": (
        lambda: _space_spec(QUADRIC, QUADRIC), ValueError, "degree-3 form"),
    "space-quadric-wrong-degree": (
        lambda: _space_spec(CUBIC, CUBIC), ValueError, "degree-2 form"),
    "space-different-fields": (
        lambda: ProjectiveCurve((parse_multipoly(CUBIC, F2, X14),
                                 parse_multipoly(QUADRIC, F4, X14))),
        FieldError, "different fields"),
    "artin-schreier-odd-characteristic": (
        lambda: CoverModel(CoverKind.ARTIN_SCHREIER, parse_rational("x^3+x+1", F3)),
        NonStandardCoverError, "characteristic 2"),
    "kummer-characteristic-2": (
        lambda: CoverModel(CoverKind.KUMMER, parse_rational("x^3+x+1", F2)),
        NonStandardCoverError, "odd characteristic"),
    "catalog-unknown-kind": (
        lambda: CatalogEntry("x", 2, 1, 0, 1, "hyperelliptic", {}, ""),
        ValueError, "unknown model kind 'hyperelliptic'"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_construction_checks_raise(case):
    build, exc, match = INVALID[case]
    with pytest.raises(exc, match=match):
        build()


@pytest.mark.parametrize("valid,change,exc", [
    (get_entry("i"), {"kind": "hyperelliptic"}, ValueError),
    (build_model(get_entry("viii")), {"polys": (parse_multipoly(CUBIC, F2, X14),)}, ValueError),
    (build_model(get_entry("vi")), {"kind": CoverKind.ARTIN_SCHREIER},
     NonStandardCoverError),
], ids=["entry-kind", "space-quadric", "cover-kind"])
def test_replace_runs_the_construction_checks(valid, change, exc):
    with pytest.raises(exc):
        valid._replace(**change)


def test_replace_coerces_like_construction():
    quadric, cubic = parse_multipoly(QUADRIC, F2, X14), parse_multipoly(CUBIC, F2, X14)
    curve = ProjectiveCurve((quadric, cubic))._replace(polys=[cubic, quadric])
    assert curve.polys == (quadric, cubic)
    assert curve == ProjectiveCurve((cubic, quadric))


@pytest.mark.parametrize("obj,name,value", [
    (parse_multipoly(CUBIC, F2, X14), "nvars", 3),
    (build_model(get_entry("viii")), "polys", None),
    (get_entry("i"), "genus", 7),
    (LPoly(2, 1, (1, -2, 2)), "coeffs", (1, 0, 2)),
    (build_model(get_entry("i")), "f", None),
], ids=["MultiPoly", "ProjectiveCurve", "CatalogEntry", "LPoly", "CoverModel"])
def test_fields_cannot_be_assigned(obj, name, value):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        obj.new_attribute = value
    assert getattr(obj, name) == before


@pytest.mark.parametrize("entry", DEFAULT_CATALOG, ids=lambda e: e.curve_id)
def test_models_compare_and_hash_by_value(entry):
    first, second = build_model(entry), build_model(entry)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert first.genus == entry.genus  # caching it changes neither
    assert first == second and hash(first) == hash(second)


def test_cover_model_repr_is_pinned():
    assert repr(build_model(get_entry("i"))) == (
        "CoverModel(kind=<CoverKind.ARTIN_SCHREIER: 'artin_schreier'>, "
        "f=RationalFunction('x^3+x+1'))")


def test_dump_catalog_bytes_are_pinned():
    digest = hashlib.sha256(dump_catalog().encode()).hexdigest()
    assert digest == "0bfa50b95f2339e8637b0a2b22f59fa64dbf7518dbb32aab36712893b79584fa"
