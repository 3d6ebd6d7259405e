import random

import pytest

from ffcn import table64
from ffcn.gf import make_field
from ffcn.table64 import (CUBICS, MASKS, PUBLISHED_TABLE, QUADRICS, _format_witness,
                          _read_witness, build_family, find_survivors,
                          pencil_witness, survivor_analysis, verify_row)
from ffcn.varieties import (MultiPoly, ProjectiveCurve, min_point_degree,
                            parse_multipoly)

F2 = make_field(2, 1)
VARS = ("x1", "x2", "x3", "x4")
# (family, mask) of the table's one row with no point of degree <= 3
SURVIVOR = (2, (1, 0, 1, 1))


def test_family_shape():
    rows = build_family()
    assert len(rows) == 64
    keys = [(r.family, r.mask) for r in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == 64
    for r in rows:
        assert r.model.polys == (r.quadric, parse_multipoly(CUBICS[r.family], F2, VARS))


def test_expanded_quadrics_match_published_table():
    for row in build_family():
        code = MASKS.index(row.mask)
        published = parse_multipoly(PUBLISHED_TABLE[row.family][code][0], F2, VARS)
        assert set(row.quadric.terms) == set(published.terms), (row.family, row.mask)


def test_mask_zero_is_base_quadric():
    for row in build_family():
        if row.mask == (0, 0, 0, 0):
            assert row.quadric == parse_multipoly(QUADRICS[row.family], F2, VARS)


def test_each_base_quadric_is_parsed_once(monkeypatch):
    parsed = []

    def counting_parse(text, *args):
        parsed.append(text)
        return parse_multipoly(text, *args)

    monkeypatch.setattr(table64, "parse_multipoly", counting_parse)
    build_family()
    assert parsed == [text for family in (1, 2, 3, 4)
                      for text in (CUBICS[family], QUADRICS[family])]


def test_all_rows_verify():
    failures = [(r.family, r.mask, res.problems)
                for r in build_family()
                for res in [verify_row(r)]
                if res.status != "pass"]
    assert failures == []


def test_witness_degrees_match_field_of_definition():
    for row in build_family():
        if row.paper_witness is None:
            continue
        res = verify_row(row)
        assert res.witness_on_curve is True
        assert res.witness_degree == res.claimed_degree
        assert res.computed_min_degree is not None
        assert res.computed_min_degree <= res.claimed_degree


def test_unique_survivor():
    survivors = find_survivors(build_family())
    assert len(survivors) == 1
    assert (survivors[0].family, survivors[0].mask) == SURVIVOR
    assert survivors[0].paper_witness is None


def test_survivor_must_be_catalog_curve_viii():
    rows = build_family()
    (survivor,) = find_survivors(rows)
    # the survivor's mask with family 1's cubic: no longer viii's model
    other = survivor._replace(model=ProjectiveCurve((survivor.quadric, rows[0].model.polys[1])))
    with pytest.raises(table64.SurvivorMismatchError) as info:
        survivor_analysis(other)
    assert str(info.value) == ("family 2 mask 1011: the survivor's model is not "
                               "catalog curve viii's")


def test_survivor_analysis():
    (survivor,) = find_survivors(build_family())
    rep = survivor_analysis(survivor)
    assert rep.counts == (0, 0, 0, 4, 15)
    assert rep.cross_checked == (5,)
    assert rep.l_coeffs == (1, -3, 2, 0, 1, 0, 8, -24, 16)
    assert rep.h == 1
    assert rep.census == (0, 0, 0, 1, 3)
    assert rep.different_degree == 16
    assert rep.cyclic_count == 5


def test_tampered_witness_fails():
    row = build_family()[0]
    bad = row._replace(paper_witness="(0:1:0:0)")
    res = verify_row(bad)
    assert res.status == "fail"
    assert any("not on the curve" in p for p in res.problems)


def test_claimed_degree_below_the_computed_minimum_fails():
    # the survivor's least point has degree 4; a claimed rational witness
    # is refused
    (survivor,) = [row for row in build_family()
                   if (row.family, row.mask) == SURVIVOR]
    bad = survivor._replace(paper_witness="(1:0:0:0)")
    assert verify_row(bad).problems == ("published witness is not on the curve",
                                        "computed minimal degree 4 exceeds claimed 1")


def test_witness_of_another_degree_than_its_field_fails():
    # a^3 + 1 = 0 in GF(4): the witness is row 0's rational (1:0:0:0),
    # written over GF(4)
    row = build_family()[0]
    res = verify_row(row._replace(paper_witness="(1:0:0:a^3+1)"))
    assert res.witness_on_curve is True
    assert res.problems == ("witness degree 1 != claimed 2",)
    assert res.status == "fail"


def _pencil_to(model, d):
    """The pencil's least point of the model if its degree is <= d, as
    ``min_point_degree(model, d)`` gives it."""
    found = pencil_witness(model)
    return found if found is not None and found[0] <= d else None


@pytest.mark.parametrize("order", ["walked", "reversed"])
def test_pencil_matches_the_curve_walk_on_every_row(monkeypatch, order):
    # the least point must not depend on the order of the walk
    if order == "reversed":
        real = table64._model_points
        monkeypatch.setattr(table64, "_model_points", lambda *args: real(*args)[::-1])
    table64._pencil.cache_clear()
    for row in build_family():
        for d in range(1, 5):
            assert _pencil_to(row.model, d) == min_point_degree(row.model, d), \
                (row.family, row.mask, d)
    table64._pencil.cache_clear()


def test_every_mask_closes_by_degree_four(monkeypatch):
    # so the search to MAX_CLAIMED_DEGREE finds a least point on every
    # row; each family's surface is walked once per degree, and only
    # while one of its masks is open; the surfaces of families 1, 3 and
    # 4 are scanned in x4
    assert table64.MAX_CLAIMED_DEGREE == 4
    family_of = {(parse_multipoly(CUBICS[family], F2, VARS),): family
                 for family in (1, 2, 3, 4)}
    walks, real = [], table64._model_points
    monkeypatch.setattr(table64, "_model_points", lambda surface, ext: (
        walks.append((family_of[surface], ext.k)) or real(surface, ext)))
    table64._pencil.cache_clear()
    rows = build_family()
    assert all(verify_row(row).computed_min_degree is not None for row in rows)
    assert [(row.family, row.mask) for row in find_survivors(rows)] == [SURVIVOR]
    table64._pencil.cache_clear()
    assert sorted(walks) == [(family, d) for family, top in {1: 1, 2: 4, 3: 1, 4: 3}.items()
                             for d in range(1, top + 1)]


def test_the_pencil_cannot_be_changed_by_its_callers():
    cubic = parse_multipoly(CUBICS[1], F2, VARS)
    cross = parse_multipoly(QUADRICS[1], F2, VARS)
    least = table64._pencil(cubic, cross)
    assert set(least) == set(MASKS)
    with pytest.raises(TypeError):
        least[MASKS[0]] = None
    with pytest.raises(AttributeError):
        least.clear()
    assert table64._pencil(cubic, cross) is least


def _monomials(degree):
    return [(a, b, c, degree - a - b - c)
            for a in range(degree + 1) for b in range(degree + 1 - a)
            for c in range(degree + 1 - a - b)]


def _random_family(rng, x4_cubed, x4_free):
    """A random cubic (with or without x4^3, or free of x4) and a random
    nonzero cross-term quadric over GF(2)."""
    cubes = [e for e in _monomials(3) if e != (0, 0, 0, 3) and not (x4_free and e[3])]
    terms = {e: 1 for e in cubes if rng.random() < 0.5}
    terms[rng.choice(cubes)] = 1
    if x4_cubed:
        terms[(0, 0, 0, 3)] = 1
    cross = [e for e in _monomials(2) if 2 not in e]
    quadric = {e: 1 for e in cross if rng.random() < 0.5}
    quadric[rng.choice(cross)] = 1
    return MultiPoly.build(F2, 4, terms), quadric


@pytest.mark.parametrize("seed, x4_cubed, x4_free, fibers", [
    (1, True, False, {3}), (2, True, False, {3}),  # scanned in x4
    # solved in closed form, through (0:0:0:1)
    (3, False, False, {1, 2}), (4, False, False, {1, 2}),
    (5, False, True, {0}),  # a cone: every z over a prefix on it
])
def test_pencil_matches_the_curve_walk_on_synthetic_families(seed, x4_cubed, x4_free,
                                                              fibers):
    cubic, cross = _random_family(random.Random(seed), x4_cubed, x4_free)
    assert max(e[3] for e, _ in cubic.terms) in fibers
    for mask in MASKS:
        quadric = dict(cross)
        for j, k in enumerate(mask):
            if k:
                quadric[tuple(2 if v == j else 0 for v in range(4))] = 1
        model = ProjectiveCurve((cubic, MultiPoly.build(F2, 4, quadric)))
        for d in range(1, 4):
            assert _pencil_to(model, d) == min_point_degree(model, d), (mask, d)


def test_pencil_reads_the_rows_own_model():
    rows = build_family()
    other_cubic = rows[16 * 3].model.polys[1]  # family 4
    for row in (rows[0], rows[16 + 11]):
        extra_square = MultiPoly.build(F2, 4, {**dict(row.quadric.terms), (0, 2, 0, 0): 1})
        for model in (ProjectiveCurve((other_cubic, row.quadric)),
                      ProjectiveCurve((row.model.polys[1], extra_square))):
            expected = min_point_degree(model, 4)
            res = verify_row(row._replace(model=model))
            assert res.computed_min_degree == expected[0]
            assert res.computed_witness == _format_witness(expected)


def test_witness_text_round_trip():
    # the writer emits the canonical polynomial form (b^3 is written b+1),
    # so the round trip keeps values rather than spellings
    for s in ("(1:0:1:1)", "(1:0:a:1)", "(b:0:b^3:1)", "(b:0:b+1:1)"):
        coords, field = _read_witness(s)
        assert _read_witness(_format_witness((None, coords, field))) == (coords, field)
    assert _read_witness("(b:0:b^3:1)") == _read_witness("(b:0:b+1:1)")
    assert [_read_witness(s)[1].k for s in ("(1:0:1:1)", "(1:0:a:1)", "(b:0:1:1)")] == [1, 2, 3]

