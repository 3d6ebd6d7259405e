import json

import pytest

from ffcn.catalog import (DEFAULT_CATALOG, CatalogEntry, build_model, get_entry,
                          load_catalog, model_from_spec, section_facts, verify_curve)
from ffcn.covers import CoverKind, CoverModel
from ffcn.gf import make_field
from ffcn.varieties import ProjectiveCurve, parse_multipoly
from support import dump_catalog

EXPECTED_GENERA = {"i": 1, "ii": 2, "iii": 2, "iv": 3, "v": 3,
                   "vi": 1, "vii": 1, "viii": 4}


def test_catalog_shape():
    ids = [e.curve_id for e in DEFAULT_CATALOG]
    assert ids == ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii"]
    assert all(e.class_number == 1 for e in DEFAULT_CATALOG)
    for e in DEFAULT_CATALOG:
        assert e.genus == EXPECTED_GENERA[e.curve_id]


def test_model_routing():
    kinds = {e.curve_id: build_model(e) for e in DEFAULT_CATALOG}
    for cid in ("i", "ii", "iii", "vi", "vii"):
        assert isinstance(kinds[cid], CoverModel)
    for cid, dim in (("iv", 2), ("v", 2), ("viii", 3)):
        assert isinstance(kinds[cid], ProjectiveCurve)
        assert kinds[cid].dim == dim


def spec_of(curve_id):
    entry = get_entry(curve_id)
    return {"p": entry.p, "k": entry.k, "kind": entry.kind, **entry.data}


# kind -> (spec, model type, genus, cross-check depth, N_1..N_4); the
# rational field GF(3)(x) is the genus-0 cover y^2 = x
SPECS = {
    "rational": ({"kind": "kummer", "p": 3, "k": 1, "f": "x"}, CoverModel, 0, 2,
                 [4, 10, 28, 82]),
    "artin_schreier": (spec_of("i"), CoverModel, 1, 4, [1, 5, 13, 25]),
    "kummer": (spec_of("vi"), CoverModel, 1, 4, [1, 7, 28, 91]),
    "plane_quartic": (spec_of("iv"), ProjectiveCurve, 3, 6, [0, 0, 3, 28]),
    "space_curve": (spec_of("viii"), ProjectiveCurve, 4, 6, [0, 0, 0, 4]),
}


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_model_from_spec(kind):
    spec, cls, genus, check_depth, counts = SPECS[kind]
    model = model_from_spec(spec)
    assert type(model) is cls
    assert model.field.order == spec["p"] ** spec["k"]
    assert model.genus == genus
    assert model.cross_check_depth == check_depth
    assert model.counts(4) == counts
    if cls is CoverModel:
        assert model.kind is CoverKind(spec["kind"])


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_model_spec_missing_field(kind):
    spec = SPECS[kind][0]
    for field in spec:
        broken = {k: v for k, v in spec.items() if k != field}
        with pytest.raises(ValueError, match=f"lacks the field '{field}'"):
            model_from_spec(broken)


def test_model_spec_unknown_kind():
    # the rational field is a genus-0 cover, not a kind of its own
    for kind in ("hyperelliptic", "rational"):
        with pytest.raises(ValueError, match=f"unknown model kind '{kind}'"):
            model_from_spec({"kind": kind, "p": 2, "k": 1, "f": "x"})


@pytest.mark.parametrize("data", [{}, {"f": "x^4+q"}])
def test_load_catalog_builds_every_model(data):
    items = json.loads(dump_catalog())
    items[0]["data"] = data
    with pytest.raises(ValueError):
        load_catalog(json.dumps(items))


def test_catalog_serialization_round_trip():
    assert load_catalog(dump_catalog()) == DEFAULT_CATALOG


def test_unknown_curve_id():
    with pytest.raises(KeyError):
        get_entry("ix")


def test_unknown_model_kind_rejected():
    with pytest.raises(ValueError):
        CatalogEntry("x", 2, 1, 0, 1, "hyperelliptic", {}, "")


@pytest.mark.parametrize("entry", DEFAULT_CATALOG, ids=lambda e: e.curve_id)
def test_every_curve_verifies(entry):
    report = verify_curve(entry)
    assert report.status == "pass", report.problems
    assert report.genus == entry.genus
    assert report.h == 1
    assert report.l_coeffs[0] == 1
    assert sum(report.l_coeffs) == 1
    # enumerated counts beyond N_g agreed with the L-polynomial extension
    assert len(report.cross_checked) >= 1


def test_survivor_census_through_catalog():
    report = verify_curve(get_entry("viii"))
    assert report.census == (0, 0, 0, 1, 3)
    assert report.counts[:5] == (0, 0, 0, 4, 15)


def test_tampered_genus_detected():
    entry = get_entry("i")._replace(genus=7)
    report = verify_curve(entry)
    assert report.status == "fail"
    assert any("genus" in p for p in report.problems)


def _viii_with_counts(monkeypatch, change):
    """verify_curve of viii with its enumerated N_1..N_6 passed through change."""
    real = ProjectiveCurve.counts
    monkeypatch.setattr(ProjectiveCurve, "counts",
                        lambda model, *args: change(list(real(model, *args))))
    return verify_curve(get_entry("viii"))


def test_enumeration_disagreeing_with_the_l_extension_fails(monkeypatch):
    # N_6 + 6 adds one place of degree 6 and leaves N_1..N_4, so L, alone
    report = _viii_with_counts(monkeypatch, lambda N: N[:5] + [N[5] + 6])
    assert report.problems == ("N_6: enumeration 96 vs L-extension 90",)
    assert report.cross_checked == (5,)
    assert report.h == 1 and report.census[4] == 3


def test_counts_with_no_positive_class_number_fail(monkeypatch):
    # viii without its place of degree 4: the census is integral, L(1) = 0;
    # the Weil test refuses L, whose h and coefficients are kept
    report = _viii_with_counts(monkeypatch, lambda N: [0, 0, 0, 0] + N[4:])
    assert report.problems == (
        "computed class number 0 != claimed 1",
        "L is not a Weil polynomial: not every inverse root has absolute value sqrt(2)",
        "N_5: enumeration 15 vs L-extension 0", "N_6: enumeration 90 vs L-extension 48")
    assert (report.h, report.l_coeffs, report.cross_checked) == (
        0, (1, -3, 2, 0, 0, 0, 8, -24, 16), ())
    assert report.census == (0, 0, 0, 0, 3)


@pytest.mark.parametrize("n,problems,l_coeffs", [
    (6, ("N_6: enumeration 91 vs L-extension 90", "census inversion gives B_6 = 91/6"),
     (1, -3, 2, 0, 1, 0, 8, -24, 16)),
    # Newton's e_2 = (S_1^2 - S_2)/2 turns non-integral, and so does B_2
    (1, ("Newton identity gives non-integer e_2 = -1/2", "census inversion gives B_2 = -1/2"),
     ()),
], ids=["N_6+1", "N_1+1"])
def test_counts_with_a_non_integral_census_fail(monkeypatch, n, problems, l_coeffs):
    def change(N):
        N[n - 1] += 1
        return N

    report = _viii_with_counts(monkeypatch, change)
    assert report.status == "fail"
    assert report.problems == problems
    assert (report.l_coeffs, report.census) == (l_coeffs, ())


def test_section_facts():
    facts = section_facts()
    assert facts["different_degree_quintic"] == 16
    assert facts["cyclic_quintic_count"] == 5
    assert facts["transport_substitution"][-1] == "Place(x^4+x+1)"
    # the two conventions traverse the same places in opposite orders
    assert (set(facts["transport_substitution"][1:])
            == set(facts["transport_pushforward"][1:]))


COVERS = ("i", "ii", "iii", "vi", "vii")


@pytest.mark.parametrize("curve_id, D", [(c, D) for c in COVERS for D in (1, 5)]
                         + [(c, D) for c in ("iv", "v", "viii") for D in (1, 5, 7)])
def test_verify_depth_and_cross_checked_degrees(curve_id, D):
    # count through max(D, c, g), cross-check N_{g+1}..N_{max(c, min(2g, depth))},
    # with c = 2g + 2 for covers and min(2g, 6) for curves
    entry = get_entry(curve_id)
    g = entry.genus
    c = 2 * g + 2 if curve_id in COVERS else min(2 * g, 6)
    depth = max(D, c, g)
    report = verify_curve(entry, D)
    assert report.status == "pass", report.problems
    assert len(report.counts) == depth
    assert len(report.census) == D
    assert report.cross_checked == tuple(range(g + 1, max(c, min(2 * g, depth)) + 1))
    if (curve_id, D) == ("viii", 7):
        assert report.cross_checked == (5, 6, 7)


def test_enumeration_size():
    F2 = make_field(2, 1)
    viii, iv, vii = (build_model(get_entry(c)) for c in ("viii", "iv", "vii"))
    # space curve: prefixes of P^2(GF(2^m)), solved in closed form
    # the probe walks GF(2^6) whatever n is
    assert viii.enumeration_size(5) == 64 ** 2 + 64 + 1
    assert viii.enumeration_size(7) == 128 ** 2 + 128 + 1
    # plane quartic: prefixes of P^1(GF(2^m)), each fiber scanned
    assert iv.enumeration_size(5) == 65 * 64
    assert iv.enumeration_size(7) == 129 * 128
    # a conic is solved in closed form
    conic = ProjectiveCurve((parse_multipoly("xz+y^2", F2, ("x", "y", "z")),))
    assert conic.enumeration_size(4) == 65
    # covers walk GF(q^n); nothing is probed
    assert vii.enumeration_size(5) == 4 ** 5
    # the census of y^2 + y = x over GF(2^11) to degree 5 walks GF(2^55),
    # far beyond the budget, which refuses it before any field is built
    wide = model_from_spec({"kind": "artin_schreier", "p": 2, "k": 11, "f": "x"})
    assert wide.enumeration_size(5) == 2 ** 55
    # past the bit length of FIELD_MAX (18) every field is beyond the
    # budget: the degree is capped there, so a huge one costs nothing
    assert wide.enumeration_size(10 ** 9) == 2 ** (11 * 18)
    assert viii.enumeration_size(10 ** 9) == 2 ** 36 + 2 ** 18 + 1
    assert iv.enumeration_size(10 ** 9) == (2 ** 18 + 1) * 2 ** 18
