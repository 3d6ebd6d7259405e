from ffcn import table64
from ffcn.gf import make_field
from ffcn.table64 import (CUBICS, PUBLISHED_TABLE, QUADRICS, SURVIVOR_FAMILY,
                          SURVIVOR_MASK, build_family, expanded_quadric,
                          find_survivors, survivor_analysis, verify_row)
from ffcn.varieties import parse_multipoly

F2 = make_field(2, 1)
VARS = ("x1", "x2", "x3", "x4")


def test_family_shape():
    rows = build_family()
    assert len(rows) == 64
    keys = [(r.family, r.mask) for r in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == 64
    for r in rows:
        assert r.model.cubic == parse_multipoly(CUBICS[r.family], F2, VARS)


def test_expanded_quadrics_match_published_table():
    for family in (1, 2, 3, 4):
        for code in range(16):
            mask = tuple((code >> (3 - j)) & 1 for j in range(4))
            computed = expanded_quadric(family, mask)
            published = parse_multipoly(PUBLISHED_TABLE[family][code][0], F2, VARS)
            assert set(computed.terms) == set(published.terms), (family, mask)


def test_mask_zero_is_base_quadric():
    for family in (1, 2, 3, 4):
        base = parse_multipoly(QUADRICS[family], F2, VARS)
        assert expanded_quadric(family, (0, 0, 0, 0)) == base


def test_each_base_quadric_is_parsed_once(monkeypatch):
    parsed = []

    def counting_parse(text, *args):
        parsed.append(text)
        return parse_multipoly(text, *args)

    monkeypatch.setattr(table64, "parse_multipoly", counting_parse)
    table64._base_quadric.cache_clear()
    for family in (1, 2, 3, 4):
        for code in range(16):
            expanded_quadric(family, tuple((code >> (3 - j)) & 1 for j in range(4)))
    assert sorted(parsed) == sorted(QUADRICS.values())


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
    assert survivors[0].family == SURVIVOR_FAMILY
    assert survivors[0].mask == SURVIVOR_MASK
    assert survivors[0].paper_witness is None


def test_survivor_analysis():
    (survivor,) = find_survivors(build_family())
    rep = survivor_analysis(survivor)
    assert rep.counts == (0, 0, 0, 4, 15)
    assert rep.n5_extended == 15
    assert rep.l_coeffs == (1, -3, 2, 0, 1, 0, 8, -24, 16)
    assert rep.h == 1
    assert rep.census == (0, 0, 0, 1, 3)
    assert rep.different_degree == 16
    assert rep.cyclic_count == 5


def test_truncated_search_still_verifies_rational_witnesses():
    for row in build_family():
        res = verify_row(row, d_max=1)
        if row.paper_witness is not None:
            assert res.witness_on_curve is True
        if res.claimed_degree == 1:
            assert res.computed_min_degree == 1
        assert res.status == "pass"  # degree bound below claim: no judgment


def test_tampered_witness_fails():
    row = build_family()[0]
    bad = row._replace(paper_witness="(0:1:0:0)")
    res = verify_row(bad)
    assert res.status == "fail"
    assert any("not on the curve" in p for p in res.problems)
