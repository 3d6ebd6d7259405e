import random

import pytest

from ffcn import covers
from ffcn.catalog import build_model, count_depth, get_entry
from ffcn.covers import (CoverKind, CoverModel, InvalidCoverError,
                         cover_genus, place_census, ramification_data,
                         splitting_type, support_places, validate_standard_form)
from ffcn.gf import make_field
from ffcn.polyring import (Poly, RationalFunction, irreducible_count,
                           monic_irreducibles, parse_rational, place_valuation,
                           places_of_degree, poly_gcd, residue_field)
from ffcn.zeta import census_from_counts, census_to_counts

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def _as(f_str, field=F2):
    return CoverModel(CoverKind.ARTIN_SCHREIER, parse_rational(f_str, field))


def _kummer(f_str, field=F3):
    return CoverModel(CoverKind.KUMMER, parse_rational(f_str, field))


def test_kind_characteristic_guards():
    with pytest.raises(InvalidCoverError):
        CoverModel(CoverKind.ARTIN_SCHREIER, parse_rational("x", F3))
    with pytest.raises(InvalidCoverError):
        CoverModel(CoverKind.KUMMER, parse_rational("x", F2))


def test_census_to_no_degree_is_refused():
    # without the check, an empty census would fail on tallying infinity
    with pytest.raises(ValueError) as info:
        place_census(_as("x^3+x+1"), 0)
    assert (type(info.value), str(info.value)) == (ValueError,
                                                   "census degree bound must be >= 1")


def test_standard_form_diagnostics():
    assert validate_standard_form(_as("x^3+x+1")) == []
    assert validate_standard_form(_kummer("x^3+2x+2")) == []
    # x^2 has an even pole order at infinity: not in standard form
    assert validate_standard_form(_as("x^2")) != []
    # a square times a constant has no ramification
    assert validate_standard_form(_kummer("x^2")) != []


def test_genus_values():
    assert cover_genus(_as("x^3+x+1")) == 1
    assert cover_genus(_as("x^5+x^3+1")) == 2
    assert cover_genus(_as("(x^3+x^2+1)/(x^3+x+1)")) == 2
    assert cover_genus(_kummer("x^3+2x+2")) == 1
    assert cover_genus(_as("x^3+a", F4)) == 1
    assert cover_genus(_as("x")) == 0  # deg Diff = 2, so 2g-2 = -4+2


def test_ramification_data_kummer():
    data = ramification_data(_kummer("x^3+2x+2"))
    assert len(data) == 2
    finite, infinite = data
    assert not finite.place.is_infinite and finite.degree == 3
    assert infinite.place.is_infinite
    for r in data:
        assert r.ramification_index == 2
        assert r.different_exponent == 1  # tame: d_P = e - 1


def test_ramification_data_artin_schreier():
    data = ramification_data(_as("x^3+x+1"))
    assert len(data) == 1
    (inf,) = data
    assert inf.place.is_infinite
    assert inf.different_exponent == 4  # (p-1)(m+1) with pole order 3
    assert inf.different_exponent > inf.ramification_index - 1  # wild


def test_splitting_trichotomy_covers_every_place():
    for cover in (_as("x^3+x+1"), _kummer("x^3+2x+2"),
                  _as("(x^3+x^2+1)/(x^3+x+1)")):
        for d in range(1, 6):
            for place in places_of_degree(cover.field, d):
                assert splitting_type(cover, place) in ("ramified", "split", "inert")


def test_census_degree_one():
    assert place_census(_as("x^3+x+1"), 1).b(1) == 1
    assert place_census(_kummer("x^3+2x+2"), 1).b(1) == 1


def test_census_counts_round_trip():
    census = place_census(_as("x^5+x^3+1"), 6)
    counts = census_to_counts(census, 6)
    assert census_from_counts(counts).counts == census.counts


def test_inert_places_recorded_at_doubled_degree():
    census = place_census(_as("x^3+x+1"), 2)
    # over GF(2): both finite rational places are inert, infinity ramifies
    assert census.b(1) == 1
    # the two inert rational places surface as places of degree 2
    assert census.b(2) >= 2


def test_constant_field_extension_rejected():
    # y^2 + y = x^2 + x has no poles: z := y + x satisfies z^2 + z = 0
    with pytest.raises(InvalidCoverError):
        place_census(_as("x^2+x"), 2)


@pytest.fixture
def uncached_genus():
    """cover_genus is cached by value: no genus computed under a patch
    may outlive the test."""
    cover_genus.cache_clear()
    yield
    cover_genus.cache_clear()


def _with_different_exponents(monkeypatch, cover, exponents):
    """Patch ramification_data to give the cover one ramified rational
    place per different exponent."""
    (datum,) = ramification_data(cover)
    monkeypatch.setattr(covers, "ramification_data", lambda c: tuple(
        datum._replace(different_exponent=e) for e in exponents))


def test_weil_check_refuses_n1_beyond_the_genus(monkeypatch, uncached_genus):
    # curve i has N_1 = 1; with a different of degree 2 its genus reads 0,
    # and genus 0 over GF(2) forces N_1 = 3
    cover = build_model(get_entry("i"))
    assert place_census(cover, 1).counts == (1,)
    cover_genus.cache_clear()
    _with_different_exponents(monkeypatch, cover, (2,))
    assert cover.genus == 0
    with pytest.raises(InvalidCoverError, match=r"^N_1 = 1 violates the Weil bound: "
                                                r"constant field extension\?$"):
        place_census(cover, 1)


def test_each_cover_support_is_walked_once(monkeypatch):
    # the support and the genus are cached by value: two copies of a model
    # share them, and the census reads valuations off the cached support
    support_places.cache_clear()
    cover_genus.cache_clear()
    walked = []
    real = covers.place_valuation
    monkeypatch.setattr(covers, "place_valuation",
                        lambda f, place: walked.append(place) or real(f, place))
    for cover in (build_model(get_entry("iii")), build_model(get_entry("iii"))):
        assert cover.genus == 2
        assert cover.cross_check_depth == 6
        assert place_census(cover, 5).counts == (0, 3, 3, 1, 6)
    # f = (x^3+x^2+1)/(x^3+x+1): one valuation per finite place of degree <= 3
    assert len(walked) == len(set(walked)) == sum(irreducible_count(2, d) for d in (1, 2, 3))


# ---------------------------------------------------------------------------
# differential oracle: census and genus recounted from valuations found by
# division and from the y-roots in each residue field

MAX_SUPPORT_DEGREE = 6  # the support walk visits GF(q^6) at most
# census depth per family: the oracle scans each residue field for y
ORACLE_DEGREE = {"as-gf2": 10, "as-gf4": 5, "kummer-gf3": 7}


def _low_places(F):
    return [u for d in (1, 2) for u in monic_irreducibles(F, d)]


def _draw_artin_schreier(rng, F):
    """y^2 + y = num/den with poles of order 1 or 3 at up to two finite
    places of degree <= 2 and a pole of order 1 or 3 at infinity."""
    while True:
        den = Poly.one(F)
        for u in rng.sample(_low_places(F), rng.randint(0, 2)):
            den = den * u ** rng.choice((1, 3))
        degree = den.degree + rng.choice((1, 3))
        if degree > MAX_SUPPORT_DEGREE:
            continue
        num = Poly(F, [rng.randrange(F.order) for _ in range(degree)]
                   + [rng.randrange(1, F.order)])
        if poly_gcd(num, den).degree == 0:
            return CoverModel(CoverKind.ARTIN_SCHREIER, RationalFunction(num, den))


def _draw_kummer(rng, F, drawn):
    """y^2 = c * prod u^v with v in -5..5 at one to three finite places of
    degree <= 2, and an odd valuation somewhere; the valuations at those
    places and at infinity go into ``drawn``."""
    while True:
        num, den = Poly(F, (rng.randrange(1, F.order),)), Poly.one(F)
        places = rng.sample(_low_places(F), rng.randint(1, 3))
        vals = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in places]
        for u, v in zip(places, vals):
            if v > 0:
                num = num * u ** v
            else:
                den = den * u ** -v
        v_inf = den.degree - num.degree
        if (max(num.degree, den.degree) <= MAX_SUPPORT_DEGREE
                and any(v % 2 for v in vals + [v_inf])):
            drawn.update(vals + [v_inf])
            return CoverModel(CoverKind.KUMMER, RationalFunction(num, den))


def _draw_covers():
    """Distinct covers of each family, by name: eight of each
    Artin-Schreier family and twelve Kummer covers."""
    rng = random.Random(20261018)
    kummer_valuations = set()
    out = {}
    for name, count, draw in (
            ("as-gf2", 8, lambda: _draw_artin_schreier(rng, F2)),
            ("as-gf4", 8, lambda: _draw_artin_schreier(rng, F4)),
            ("kummer-gf3", 12, lambda: _draw_kummer(rng, F3, kummer_valuations))):
        family = []
        while len(family) < count:
            cover = draw()
            if cover not in family:
                family.append(cover)
        out.update((f"{name}-{i}", cover) for i, cover in enumerate(family))
    # the draws reach the even valuations +-2 and +-4, where the unit
    # residue matters, and the valuations +-4 and +-5 beyond +-3
    assert {-5, -4, -2, 2, 4, 5} <= kummer_valuations
    return out


RANDOM_COVERS = _draw_covers()


def _unit_value(f, place, v):
    """The value at the place of f / t^v, t the uniformizer: u for a
    finite place, 1/x at infinity."""
    F = f.field
    if place.is_infinite:
        return F.mul(f.num.coeffs[-1], F.inv(f.den.coeffs[-1]))
    R, root = residue_field(place)
    num, den = f.num, f.den
    if v > 0:
        num = num // place.poly ** v
    elif v < 0:
        den = den // place.poly ** -v
    return R.mul(num.eval_in(root, R), R.inv(den.eval_in(root, R)))


def _oracle(cover, d_max):
    """(genus, B_1..B_d_max) counted place by place from first principles."""
    f = cover.f
    artin_schreier = cover.kind is CoverKind.ARTIN_SCHREIER
    diff_degree, B = 0, [0] * d_max
    for d in range(1, max(d_max, f.num.degree, f.den.degree) + 1):
        for place in places_of_degree(cover.field, d):
            v = place_valuation(f, place)
            if v < 0 if artin_schreier else v % 2:
                diff_degree += (1 - v if artin_schreier else 1) * d
                if d <= d_max:
                    B[d - 1] += 1
                continue
            if d > d_max:
                continue
            R = residue_field(place)[0]
            if artin_schreier:
                c = 0 if v > 0 else _unit_value(f, place, 0)
                roots = sum(R.add(R.mul(y, y), y) == c for y in R.elements())
            else:
                c = _unit_value(f, place, v)
                roots = sum(R.mul(y, y) == c for y in R.elements())
            if roots == 2:
                B[d - 1] += 2
            elif roots == 0 and 2 * d <= d_max:
                B[2 * d - 1] += 1
    return (diff_degree - 2) // 2, tuple(B)


@pytest.mark.parametrize("name", sorted(RANDOM_COVERS))
def test_census_and_genus_match_the_oracle(name):
    cover = RANDOM_COVERS[name]
    depth = ORACLE_DEGREE[name.rsplit("-", 1)[0]]
    genus, census = _oracle(cover, depth)
    assert cover_genus(cover) == genus
    assert place_census(cover, depth).counts == census


@pytest.mark.parametrize("curve_id", ["i", "ii", "iii", "vi", "vii"])
def test_catalog_census_matches_the_oracle(curve_id):
    # each catalog cover to the depth ``ffc verify`` counts it
    cover = build_model(get_entry(curve_id))
    depth = count_depth(cover, 5)
    genus, census = _oracle(cover, depth)
    assert cover_genus(cover) == genus
    assert place_census(cover, depth).counts == census
