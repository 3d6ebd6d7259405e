import random

import pytest

from ffcn import polyring
from ffcn.gf import FieldError, make_field
from ffcn.polyring import (Place, PoleError, Poly, RationalFunction,
                           element_str, format_poly, format_rational, format_terms,
                           irreducible_count, is_irreducible, moebius_mu,
                           moebius_transport, monic_irreducibles,
                           parse_element, parse_poly, parse_rational,
                           place_valuation, places_of_degree, poly_gcd,
                           read_terms, residue, residue_field, unit_residue)
from ffcn.varieties import MultiPoly, format_multipoly, parse_multipoly

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def _random_poly(rng, field, max_deg):
    return Poly(field, [rng.randrange(field.order)
                        for _ in range(rng.randint(0, max_deg + 1))])


def test_poly_ring_axioms():
    rng = random.Random(11)
    for _ in range(200):
        f, g, h = (_random_poly(rng, F4, 6) for _ in range(3))
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        if not g.is_zero:
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_valuation_is_additive():
    rng = random.Random(13)
    places = [Place(F2, parse_poly("x", F2)),
              Place(F2, parse_poly("x^2+x+1", F2)),
              Place.infinite(F2)]
    for _ in range(100):
        num1, num2 = _random_poly(rng, F2, 5), _random_poly(rng, F2, 5)
        den1, den2 = _random_poly(rng, F2, 4), _random_poly(rng, F2, 4)
        if num1.is_zero or num2.is_zero or den1.is_zero or den2.is_zero:
            continue
        f = RationalFunction(num1, den1)
        g = RationalFunction(num2, den2)
        fg = RationalFunction(num1 * num2, den1 * den2)
        for place in places:
            assert (place_valuation(fg, place)
                    == place_valuation(f, place) + place_valuation(g, place))


def test_irreducibility_known_cases():
    assert is_irreducible(parse_poly("x^2+x+1", F2))
    assert not is_irreducible(parse_poly("x^2+1", F2))       # (x+1)^2
    assert is_irreducible(parse_poly("x^3+2x+2", F3))
    assert not is_irreducible(parse_poly("x^4+1", F3))
    assert is_irreducible(parse_poly("x^4+x+1", F2))
    assert not is_irreducible(parse_poly("x^4+x^2+1", F2))


def test_irreducible_count_raises_when_the_moebius_sum_is_off(monkeypatch):
    # an explicit raise, not an assert, so it also holds under python -O
    import ffcn.polyring as polyring
    monkeypatch.setattr(polyring, "moebius_mu", lambda n: 1)
    with pytest.raises(ArithmeticError, match="not divisible by 3"):
        irreducible_count(2, 3)  # (8 + 2) / 3


@pytest.mark.parametrize("field,qname", [(F2, 2), (F3, 3), (F4, 4)])
def test_irreducible_enumeration_matches_formula(field, qname):
    for d in range(1, 9):
        polys = monic_irreducibles(field, d)
        assert len(polys) == irreducible_count(qname, d)
        assert len(set(polys)) == len(polys)
        assert all(p.is_monic and p.degree == d for p in polys)
        assert all(is_irreducible(p) for p in polys)
        # ascending in the element ordering: high-degree coefficients first
        keys = [p.coeffs[::-1] for p in polys]
        assert keys == sorted(keys)


WALK_CASES = [((2, 1), 8), ((3, 1), 5), ((2, 2), 4), ((3, 2), 2)]


def _monic_polys(field, d):
    """Every monic polynomial of degree d, ascending in coefficient order."""
    q = field.order
    for code in range(q ** d):
        yield Poly(field, [code // q ** i % q for i in range(d)] + [1])


@pytest.mark.parametrize("pk,d_max", WALK_CASES)
def test_monic_irreducibles_match_brute_force(pk, d_max):
    field = make_field(*pk)
    for d in range(1, d_max + 1):
        expected = tuple(f for f in _monic_polys(field, d) if is_irreducible(f))
        assert tuple(monic_irreducibles(field, d)) == expected


@pytest.mark.parametrize("pk,d_max", WALK_CASES)
def test_residue_root_is_the_smallest_root(pk, d_max):
    field = make_field(*pk)
    for d in range(1, d_max + 1):
        for place in places_of_degree(field, d):
            if place.is_infinite:
                continue
            R, root = residue_field(place)
            assert R.order == field.order ** d
            smallest = next(x for x in R.elements() if place.poly.eval_in(x, R) == 0)
            assert root == smallest


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["GF2", "GF3", "GF4"])
def test_each_enumerated_root_is_a_root_and_least_in_its_orbit(field):
    # the orbit by repeated q-th powers, not by the cached x^q table
    q = field.order
    for d in range(1, 7):
        R = make_field(field.p, field.k * d)
        for f, root in monic_irreducibles(field, d).items():
            assert f.eval_in(root, R) == 0, (f, root)
            orbit = [root]
            while (nxt := R.pow(orbit[-1], q)) != root:
                orbit.append(nxt)
            assert len(orbit) == d and min(orbit) == root, (f, orbit)


def test_the_cached_orbits_and_name_indices_cannot_be_changed():
    places = monic_irreducibles(F2, 3)
    assert list(places) == [parse_poly("x^3+x+1", F2), parse_poly("x^3+x^2+1", F2)]
    with pytest.raises(TypeError):
        places[parse_poly("x^3+x+1", F2)] = 0
    index = polyring._term_patterns(("x", "y"))[2]
    assert dict(index) == {"x": 0, "y": 1}
    with pytest.raises(TypeError):
        index["z"] = 2


def test_degree7_irreducibles_over_gf2():
    polys = monic_irreducibles(F2, 7)
    assert len(polys) == 18
    assert parse_poly("x^7+x^3+1", F2) in polys
    assert parse_poly("x^7+x^4+1", F2) in polys


def test_moebius_mu():
    assert [moebius_mu(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_places_of_degree_one_include_infinity():
    places = places_of_degree(F2, 1)
    assert len(places) == 3  # x, x+1, infinity
    assert places[-1].is_infinite


def test_residue_field_and_evaluation():
    place = Place(F2, parse_poly("x^2+x+1", F2))
    R, root = residue_field(place)
    assert R.order == 4
    assert place.poly.eval_in(root, R) == 0
    f = parse_rational("(x^3+1)/(x+1)", F2)  # = x^2+x+1, vanishes at the place
    assert residue(f, place) == 0
    assert unit_residue(f, place) != 0


def test_residue_is_ring_homomorphism():
    rng = random.Random(17)
    place = Place(F2, parse_poly("x^3+x+1", F2))
    for _ in range(50):
        num1, num2 = _random_poly(rng, F2, 4), _random_poly(rng, F2, 4)
        if num1.is_zero or num2.is_zero:
            continue
        f, g = RationalFunction(num1), RationalFunction(num2)
        R, _ = residue_field(place)
        fg, f_plus_g = RationalFunction(num1 * num2), RationalFunction(num1 + num2)
        assert residue(fg, place) == R.mul(residue(f, place), residue(g, place))
        if not f_plus_g.is_zero:
            assert residue(f_plus_g, place) == R.add(residue(f, place), residue(g, place))


def test_residue_at_pole_raises():
    place = Place(F2, parse_poly("x", F2))
    f = parse_rational("(x+1)/x", F2)
    with pytest.raises(PoleError):
        residue(f, place)


def test_residue_at_infinity():
    f = parse_rational("(x^3+x^2+1)/(x^3+x+1)", F2)
    assert residue(f, Place.infinite(F2)) == 1
    g = parse_rational("x/(x^2+x+1)", F2)
    assert residue(g, Place.infinite(F2)) == 0


def test_unit_residue_at_infinity():
    # 2x^3 + 1 has a pole of order 3 at infinity: f / x^3 there is 2
    f = parse_rational("2x^3+1", F3)
    assert place_valuation(f, Place.infinite(F3)) == -3
    assert unit_residue(f, Place.infinite(F3)) == 2
    # 1/(2x^2 + 1) has a zero of order 2: f * x^2 there is 1/2 = 2
    g = parse_rational("1/(2x^2+1)", F3)
    assert place_valuation(g, Place.infinite(F3)) == 2
    assert unit_residue(g, Place.infinite(F3)) == 2


def test_rational_with_a_power_denominator():
    f = parse_rational("x/(x^2+x+1)^2", F2)
    assert f == RationalFunction(Poly.x(F2), parse_poly("x^4+x^2+1", F2))
    degrees = []
    parse_rational("x/(x^2+x+1)^2", F2, check_degree=degrees.append)
    assert 4 in degrees  # the degree of the power is checked, not only its base
    with pytest.raises(ValueError, match=r"^bad exponent 'a' in power '\(x\^2\+x\+1\)\^a'$"):
        parse_rational("x/(x^2+x+1)^a", F2)


@pytest.mark.parametrize("text,num,den", [
    ("(x+1)^2/x", "x^2+1", "x"),
    ("(x+1)^2", "x^2+1", "1"),
    ("1/((x+1)^2)", "1", "x^2+1"),
    ("((x+1)^2)^3/((x))", "x^6+x^4+x^2+1", "x"),
    ("(x+1)^0/x", "1", "x"),
], ids=["numerator", "alone", "enclosed", "nested", "zeroth"])
def test_rational_reads_a_power_on_either_side(text, num, den):
    assert parse_rational(text, F2) == RationalFunction(parse_poly(num, F2),
                                                        parse_poly(den, F2))


def test_rational_checks_a_power_before_expanding_it():
    def refuse(degree):
        if degree > 100:
            raise ValueError(f"degree {degree}")

    for text in ("(x^2+1)^100000000/x", "x/(x^2+1)^100000000", "(x^2+1)^100000000"):
        with pytest.raises(ValueError, match=r"^degree 200000000$"):
            parse_rational(text, F2, check_degree=refuse)
    with pytest.raises(ValueError, match=r"^bad exponent '2\^3' in power '\(x\+1\)\^2\^3'$"):
        parse_rational("(x+1)^2^3", F2)


def test_an_exponent_too_long_to_read_is_named():
    # int() refuses more than 4300 digits; the message names the term or power
    long, readable = "9" * 5000, "9" * 4000
    with pytest.raises(ValueError) as info:
        parse_rational(f"x^{long}+1", F2)
    assert str(info.value) == (f"bad term 'x^{long}' in polynomial 'x^{long}+1': "
                               "exponent of 5000 digits is too long to read")
    with pytest.raises(ValueError) as info:
        parse_rational(f"x/(x+1)^{long}", F2)
    assert str(info.value) == (f"bad power '(x+1)^{long}': "
                               "exponent of 5000 digits is too long to read")

    # 4000 digits still read, and reach the degree check
    def refuse(degree):
        if degree > 100:
            raise ValueError(f"degree of {len(str(degree))} digits")

    for text in (f"x^{readable}+1", f"x/(x+1)^{readable}"):
        with pytest.raises(ValueError, match="^degree of 4000 digits$"):
            parse_rational(text, F2, check_degree=refuse)


def test_moebius_transport_of_the_infinite_place():
    # x -> (2x + 1)/1 fixes infinity; x -> 1/(x + 1) sends it to x = -1
    infinity = Place.infinite(F3)
    assert moebius_transport(infinity, (2, 1, 0, 1)) == infinity
    assert moebius_transport(infinity, (0, 1, 1, 1)) == Place(F3, parse_poly("x+1", F3))


def test_moebius_transport_bijection_with_inverse():
    # x -> 1/(x+1) has matrix (0,1,1,1); its inverse is (1,1,1,0) over GF(2)
    for d in (1, 2, 3, 4):
        places = places_of_degree(F2, d)
        images = [moebius_transport(pl, (0, 1, 1, 1)) for pl in places]
        assert sorted(repr(p) for p in images) == sorted(repr(p) for p in places)
        back = [moebius_transport(im, (1, 1, 1, 0)) for im in images]
        assert back == places


def test_moebius_transport_degree4_chain():
    start = Place(F2, parse_poly("x^4+x^3+x^2+x+1", F2))
    mid = moebius_transport(start, (0, 1, 1, 1))       # x -> 1/(x+1)
    assert format_poly(mid.poly) == "x^4+x^3+1"
    end = moebius_transport(mid, (0, 1, 1, 0))         # x -> 1/x
    assert format_poly(end.poly) == "x^4+x+1"


def test_poly_text_round_trip():
    rng = random.Random(19)
    for field in (F2, F3, F4):
        for _ in range(50):
            f = _random_poly(rng, field, 6)
            assert parse_poly(format_poly(f), field) == f
    f = parse_rational("(x^3+x^2+1)/(x^3+x+1)", F2)
    assert parse_rational(format_rational(f), F2) == f


def test_univariate_text_reads_the_same_in_both_wrappers():
    # parse_poly and parse_multipoly are one grammar: on univariate text,
    # with coefficients that are sums and with - terms, they agree
    rng = random.Random(23)
    for field in (F3, F4, make_field(3, 2)):
        texts = [format_poly(_random_poly(rng, field, 6)) for _ in range(40)]
        texts += ["x^3-x+1", "-x^2-2", "+x^3+x", "2x^2-(a+1)x+a" if field.k > 1 else "2x^2-x+1"]
        for text in texts:
            f = parse_poly(text, field)
            expected = MultiPoly.build(field, 1, {(e,): c for e, c in enumerate(f.coeffs)})
            assert parse_multipoly(text, field, ("x",)) == expected, (field, text)


def test_read_terms_grammar():
    F9 = make_field(3, 2)
    # a leading + is a sign, not a coefficient read as 0
    assert parse_poly("+x^3+x+1", F2) == parse_poly("x^3+x+1", F2)
    # like terms are summed (2 + 1 = 0 in characteristic 3); - negates
    assert read_terms("2x1^2 x2 - (a+1)*x3 + x1x1x2", F9, ("x1", "x2", "x3")) == {
        (2, 1, 0): 0, (0, 0, 1): F9.neg(parse_element("a+1", F9))}
    for text, message in (("z4", "unexpected '4' after 'z'"),
                          ("z^4a", "unexpected 'a' after 'z^4'"),
                          ("x^", "unexpected '^' after 'x'"),
                          ("x+(a+1", "unexpected '(a+1'"),
                          ("x(a)", "unexpected '(a)' after 'x'"),
                          ("x++z", "empty term")):
        with pytest.raises(ValueError) as info:
            read_terms(text, F9, ("x", "z"))
        assert str(info.value).startswith("bad term ") and str(info.value).endswith(message)
    for value in (None, True, 3.5, [], {}, 5):
        for reader in (lambda v: read_terms(v, F2, ("x",)), lambda v: parse_poly(v, F2),
                       lambda v: parse_rational(v, F2)):
            with pytest.raises(ValueError) as info:
                reader(value)
            assert str(info.value) == f"a polynomial must be text, not {value!r}"


# element text in ascending element order: the base-p digits of the int,
# least significant first, are the coefficients of 1, a, a^2, ...
ELEMENT_TEXT = {
    (2, 2): ["0", "1", "a", "a+1"],
    (2, 3): ["0", "1", "a", "a+1", "a^2", "a^2+1", "a^2+a", "a^2+a+1"],
    (3, 2): ["0", "1", "2", "a", "a+1", "a+2", "2a", "2a+1", "2a+2"],
    (2, 4): ["0", "1", "a", "a+1", "a^2", "a^2+1", "a^2+a", "a^2+a+1",
             "a^3", "a^3+1", "a^3+a", "a^3+a+1", "a^3+a^2", "a^3+a^2+1",
             "a^3+a^2+a", "a^3+a^2+a+1"],
}


@pytest.mark.parametrize("pk", list(ELEMENT_TEXT), ids=lambda pk: f"GF({pk[0]}^{pk[1]})")
def test_element_str_lists(pk):
    F = make_field(*pk)
    assert [element_str(F, a) for a in F.elements()] == ELEMENT_TEXT[pk]


@pytest.mark.parametrize("pk", [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 6)],
                         ids=lambda pk: f"GF({pk[0]}^{pk[1]})")
def test_every_element_text_round_trips(pk):
    F = make_field(*pk)
    for symbol in ("a", "b"):
        assert [parse_element(element_str(F, a, symbol), F, symbol)
                for a in F.elements()] == list(F.elements())


def test_parse_element_refuses_malformed_text():
    F4 = make_field(2, 2)
    for text, message in (("+", "empty term"), ("-", "empty term"), ("a+", "empty term"),
                          ("1++a", "empty term"), ("a^", "unexpected '^' after 'a'"),
                          ("", "empty polynomial string")):
        with pytest.raises(ValueError) as info:
            parse_element(text, F4)
        assert str(info.value).endswith(message), text
    # a prime-field element is a decimal integer, read mod p
    assert [parse_element(s, F3) for s in ("0", "2", "7")] == [0, 2, 1]
    for text in ("a", "-1", "1+1", "", "²"):
        with pytest.raises(ValueError) as info:
            parse_element(text, F3)
        assert str(info.value) == f"{text!r} is not an integer"


def test_parse_element_reads_non_canonical_text():
    F8 = make_field(2, 3)
    assert parse_element("b^3", F8, "b") == F8.pow(2, 3)


@pytest.mark.parametrize("pk,symbol", [((2, 1), "a"), ((3, 1), "a"), ((2, 2), "a"),
                                       ((2, 3), "b"), ((3, 2), "a")],
                         ids=["GF(2)", "GF(3)", "GF(4)", "GF(8)-b", "GF(9)"])
@pytest.mark.parametrize("sep", ["", "*"], ids=["sep-none", "sep-star"])
def test_written_terms_read_back(pk, symbol, sep):
    F = make_field(*pk)
    rng = random.Random(31 * pk[0] + pk[1])
    for _ in range(60):
        nvars = rng.randint(1, 4)
        names = ("x",) if nvars == 1 else tuple(f"x{i + 1}" for i in range(nvars))
        terms = {tuple(rng.choice((0, 0, 1, 2, 5)) for _ in names): rng.randrange(1, F.order)
                 for _ in range(rng.randint(1, 5))}
        text = format_terms(F, terms.items(), names, symbol, sep)
        assert read_terms(text, F, names, symbol) == terms, text


def test_written_text_goldens():
    F9 = make_field(3, 2)
    # a+1 is 3 in GF(4); a+2 is 5 and 2a+1 is 7 in GF(9)
    assert format_poly(Poly(F4, [3, 3])) == "(a+1)x+a+1"
    assert format_poly(Poly(F9, [5, 7, 1])) == "x^2+(2a+1)x+a+2"
    assert format_multipoly(MultiPoly.build(F9, 2, {(2, 0): 2, (1, 1): 5})) == "2*x1^2+(a+2)*x1*x2"
    assert format_poly(Poly.zero(F4)) == "0"
    assert format_multipoly(MultiPoly.build(F4, 2, {})) == "0"
    # a constant form's sum coefficient has no factor after it, so no parentheses
    assert format_multipoly(MultiPoly.build(F4, 2, {(0, 0): 3})) == "a+1"


# each guard that no other run reaches, with the wrong answer, endless
# loop or unnamed failure that it prevents
GUARDS = {
    "add-across-fields": (lambda: Poly.x(F2) + Poly.x(F4),
                          FieldError, "polynomials over different fields"),
    "divide-by-zero": (lambda: divmod(Poly.x(F2), Poly.zero(F2)),  # would invert 0
                       ZeroDivisionError, "division by zero polynomial"),
    "negative-power": (lambda: Poly.x(F2) ** -1,  # n >>= 1 would stay -1
                       ValueError, "negative polynomial power"),
    "irreducible-constant": (lambda: is_irreducible(Poly.one(F2)),
                             ValueError, "irreducibility is undefined for constants"),
    "mu-of-zero": (lambda: moebius_mu(0),  # would return 1
                   ValueError, "mu is defined for positive integers"),
    "place-wrong-field": (lambda: Place(F2, Poly.x(F4)),
                          FieldError, "place polynomial over the wrong field"),
    "place-not-monic": (lambda: Place(F3, Poly(F3, (0, 2))),
                        ValueError, "place polynomial must be monic"),
    "rational-across-fields": (lambda: RationalFunction(Poly.x(F2), Poly.one(F4)),
                               FieldError, "numerator and denominator over different fields"),
    "rational-zero-denominator": (lambda: RationalFunction(Poly.x(F2), Poly.zero(F2)),
                                  ZeroDivisionError, "zero denominator"),
    "valuation-of-zero": (lambda: place_valuation(RationalFunction(Poly.zero(F2)),
                                                  Place(F2, Poly.x(F2))),  # would loop
                          ValueError, "the zero function has no valuation"),
    "pole-at-infinity": (lambda: residue(parse_rational("x^2/(x+1)", F2), Place.infinite(F2)),
                         PoleError, "(x^2)/(x+1) has a pole at Place(infinity)"),
    "degenerate-transport": (lambda: moebius_transport(Place.infinite(F3), (1, 2, 1, 2)),
                             ValueError, "degenerate fractional-linear map"),
    "irreducibles-of-degree-0": (lambda: monic_irreducibles(F2, 0),
                                 FieldError, "extension degree 0 is below 1"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guards_raise_by_name(name):
    call, kind, message = GUARDS[name]
    with pytest.raises(kind) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


def test_poly_repr_names_the_field_and_the_text():
    assert repr(Poly(F4, (1, 2, 3))) == "Poly(GF(2^2), '(a+1)x^2+ax+1')"
    assert repr(Poly.zero(F3)) == "Poly(GF(3), '0')"


def test_gcd_is_monic_common_divisor():
    f = parse_poly("x^2+x+1", F2) * parse_poly("x^3+x+1", F2)
    g = parse_poly("x^2+x+1", F2) * parse_poly("x+1", F2)
    assert poly_gcd(f, g) == parse_poly("x^2+x+1", F2)
