import itertools
import random

import pytest

from ffcn.catalog import build_model, get_entry
from ffcn import varieties
from ffcn.gf import FieldError, embed, make_field
from ffcn.polyring import element_str
from ffcn.table64 import SURVIVOR_FAMILY, SURVIVOR_MASK, build_family
from ffcn.varieties import (MultiPoly, PlaneCurve, SingularModelError,
                            SpaceCurve, _jacobian, _representatives,
                            curve_point_counts,
                            format_multipoly, format_point, min_point_degree,
                            normalize_point, parse_multipoly, parse_point,
                            point_degree, points_on_model,
                            projective_point_count, projective_points,
                            smoothness_probe)
from ffcn.zeta import PointCounts, extend_counts, l_polynomial

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F16 = make_field(2, 4)

XYZ = ("x", "y", "z")
X4 = ("x1", "x2", "x3", "x4")


def test_projective_point_enumeration():
    for dim in (1, 2, 3):
        for field in (F2, F4):
            pts = list(projective_points(dim, field))
            assert len(pts) == projective_point_count(dim, field.order)
            assert len(set(pts)) == len(pts)
            assert all(normalize_point(pt, field) == pt for pt in pts)
    assert next(projective_points(3, F2)) == (0, 0, 0, 1)


def test_normalize_point():
    assert normalize_point((0, 2, 3), F4) == (0, 1, F4.mul(F4.inv(2), 3))
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0), F4)


def test_point_degree():
    assert point_degree((1, 0, 0), F16, F2) == 1
    a = 2  # generator of GF(4) embedded value differs, use GF(4) directly
    assert point_degree((1, a, 0), F4, F2) == 2
    assert point_degree((1, a, 0), F4, F4) == 1


def _degree_by_pow(coords, field, q):
    """The least d such that raising every coordinate to the q-th power
    d times gives a multiple of the point: its degree over GF(q)."""
    image, d = tuple(coords), 0
    while True:
        image, d = tuple(field.pow(c, q) for c in image), d + 1
        if all(field.mul(image[i], coords[j]) == field.mul(image[j], coords[i])
               for i in range(len(coords)) for j in range(i + 1, len(coords))):
            return d


@pytest.mark.parametrize("p,k,base_k", [(2, m, b) for m in range(1, 7) for b in (1, 2, 3)
                                        if m % b == 0]
                         + [(3, m, b) for m in range(1, 5) for b in (1, 2) if m % b == 0])
def test_point_degree_matches_repeated_powers(p, k, base_k):
    field, base = make_field(p, k), make_field(p, base_k)
    rng = random.Random(f"point degree {p}^{k} over {p}^{base_k}")
    subfields = [make_field(p, e) for e in range(base_k, k + 1, base_k) if k % e == 0]
    # each subfield's elements of exact degree over the base, by the definition
    exact = {sub: [x for x in (embed(a, sub, field) for a in sub.elements())
                   if _degree_by_pow((1, x), field, base.order) == sub.k // base_k]
             for sub in subfields}
    for i in range(60):
        if i % 2:
            # (0 : 1 : x_1 : ...) with x_j of exact degree e_j: the lcm of the e_j
            coords = [0] * rng.randint(0, 1) + [1] + [
                rng.choice(exact[sub]) for sub in rng.choices(subfields, k=rng.randint(1, 3))]
        else:
            coords = [embed(rng.randrange(sub.order), sub, field)
                      for sub in rng.choices(subfields, k=rng.randint(2, 4))]
            if not any(coords):
                continue
        expected = _degree_by_pow(coords, field, base.order)
        assert point_degree(coords, field, base) == expected, coords
        # an unnormalized multiple is the same point
        scale = rng.randrange(1, field.order)
        scaled = [field.mul(scale, c) for c in coords]
        assert point_degree(scaled, field, base) == expected, (coords, scale)


def _min_degree_by_brute_force(poly, d_max):
    """(degree, least point, field) of the least-degree point of the plane
    curve with degree <= d_max, or None, by evaluating the form at every
    point of P^2 over GF(q^d)."""
    F = poly.field
    for d in range(1, d_max + 1):
        ext = make_field(F.p, F.k * d)
        for pt in projective_points(2, ext):
            if poly(pt, ext) == 0 and _degree_by_pow(pt, ext, F.order) == d:
                return d, pt, ext
    return None


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)], ids=["GF2", "GF3", "GF4"])
def test_min_point_degree_matches_brute_force(monkeypatch, p, k):
    def refuse(*args):
        raise AssertionError("min_point_degree computed the degree of a point")

    monkeypatch.setattr(varieties, "point_degree", refuse)
    F = make_field(p, k)
    rng = random.Random(f"min point degree {p}^{k}")

    def draw(degree):
        while True:
            form = MultiPoly.build(F, 3, {e: rng.randrange(F.order)
                                          for e in _monomials(3, degree)})
            if form.terms:
                return form

    forms = [draw(degree) for degree in (1, 2, 3, 4) for _ in range(2)]
    # cubics and quartics with no rational point, whose least points have
    # degree 2 or 3
    pointless = []
    while len(pointless) < 4:
        form = draw(rng.choice((3, 4)))
        if all(form(pt, F) for pt in projective_points(2, F)):
            pointless.append(form)
    seen = set()
    for form in forms + pointless:
        for d_max in (1, 2, 3):
            expected = _min_degree_by_brute_force(form, d_max)
            # unwrapped, so the walk runs here and not in an earlier test
            assert min_point_degree.__wrapped__(PlaneCurve(form), d_max) == expected, \
                (str(form), d_max)
            seen.add(expected and expected[0])
    assert seen == {None, 1, 2, 3}
def test_plane_conic_counts():
    # x*z = y^2: a smooth conic, isomorphic to P^1, so N_m = q^m + 1
    conic = parse_multipoly("xz+y^2", F2, XYZ)
    model = PlaneCurve(conic)
    assert smoothness_probe(model) == ()
    assert curve_point_counts(model, 4) == [3, 5, 9, 17]


def test_singular_plane_curve_rejected():
    # y^2*z = x^3: cuspidal cubic, singular at (0:0:1)
    cusp = parse_multipoly("y^2z+x^3", F2, XYZ)
    model = PlaneCurve(cusp)
    assert smoothness_probe(model) != ()
    with pytest.raises(SingularModelError):
        curve_point_counts(model, 2)


def test_degenerate_space_curve_rejected():
    cubic = parse_multipoly("x1^3", F2, X4)
    quadric = parse_multipoly("x1^2", F2, X4)
    model = SpaceCurve(cubic, quadric)
    with pytest.raises(SingularModelError):
        curve_point_counts(model, 1)


def test_space_curve_shape_validation():
    cubic = parse_multipoly("x1^3", F2, X4)
    with pytest.raises(ValueError):
        SpaceCurve(cubic, cubic)  # quadric slot must have degree 2


CONIC = PlaneCurve(parse_multipoly("xz+y^2", F2, XYZ))


@pytest.mark.parametrize("call,kind,message", [
    (lambda: MultiPoly.build(F2, 3, {(1, 0): 1}), ValueError, "exponent vector length mismatch"),
    (lambda: CONIC.poly((1, 0)), ValueError, "coordinate dimension mismatch"),
    (lambda: point_degree((1, 1), F4, make_field(2, 3)),
     FieldError, "point field is not an extension of the base"),
    # without the check, a depth-0 probe would pass with nothing probed
    (lambda: smoothness_probe(CONIC, 0), ValueError, "probe depth must be >= 1"),
], ids=["build-arity", "call-arity", "point-field", "probe-depth-0"])
def test_shape_guards_raise_by_name(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


def test_min_point_degree_on_conic():
    model = PlaneCurve(parse_multipoly("xz+y^2", F2, XYZ))
    found = min_point_degree(model, 3)
    assert found is not None
    d, pt, ext = found
    assert d == 1 and ext is F2
    assert pt == (0, 0, 1)  # lexicographically smallest witness


def test_partial_derivatives():
    f = parse_multipoly("x^3+y^2z", F2, XYZ)
    fx = f.partial(0)
    assert format_multipoly(fx, XYZ) == "x^2"
    fy = f.partial(1)  # 2*y*z = 0 in characteristic 2
    assert fy.terms == ()
    fz = f.partial(2)
    assert format_multipoly(fz, XYZ) == "y^2"


def test_multipoly_text_round_trip():
    for s in ("x^3+y^2z", "xz+y^2", "x1x2+x3x4+x4^2"):
        names = XYZ if "y" in s else X4
        f = parse_multipoly(s, F2, names)
        assert parse_multipoly(format_multipoly(f, names), F2, names) == f


def test_multipoly_text_round_trip_with_sum_coefficients():
    # format_multipoly writes a sum coefficient in parentheses, as in
    # x1^2+(a+1)*x2^2; the reader must take it back over GF(4) and GF(9)
    rng = random.Random(29)
    for field in (F4, make_field(3, 2)):
        sums = [c for c in range(field.order) if "+" in element_str(field, c)]
        for _ in range(30):
            terms = {tuple(rng.randrange(4) for _ in X4): rng.choice(sums + [rng.randrange(field.order)])
                     for _ in range(rng.randint(1, 6))}
            f = MultiPoly.build(field, 4, terms)
            assert parse_multipoly(format_multipoly(f), field, X4) == f
        f = parse_multipoly("x1^2+(a+1)*x2^2", field, X4)
        assert format_multipoly(f) == "x1^2+(a+1)*x2^2"


def test_minus_terms_over_gf3():
    F3 = make_field(3, 1)
    for minus, plus in (("x^2-y^2+zx", "x^2+2y^2+zx"), ("-x^3-2xyz-z^3", "2x^3+xyz+2z^3"),
                        ("x-y-z", "x+2y+2z")):
        assert parse_multipoly(minus, F3, XYZ) == parse_multipoly(plus, F3, XYZ)


def test_multipoly_coefficients_in_extension():
    f = parse_multipoly("x^3+(a)y^3+z^3", F4, XYZ)
    assert f((0, 1, 0), F4) == 2  # the GF(4) generator


def test_point_text_round_trip():
    fields = {"a": F4, "b": make_field(2, 3)}
    # formatting emits the canonical polynomial form (b^3 renders as b+1),
    # so the round trip preserves values rather than spellings
    for s in ("(1:0:1:1)", "(1:0:a:1)", "(b:0:b^3:1)", "(b:0:b+1:1)"):
        coords, field = parse_point(s, fields, F2)
        symbol = "b" if field.k == 3 else "a"
        again, field2 = parse_point(format_point(coords, field, symbol), fields, F2)
        assert (again, field2) == (coords, field)
    assert parse_point("(b:0:b^3:1)", fields, F2) == parse_point("(b:0:b+1:1)", fields, F2)


def test_points_on_model_agree_with_direct_evaluation():
    model = PlaneCurve(parse_multipoly("xz+y^2", F2, XYZ))
    pts = points_on_model(model, F4)
    expected = [pt for pt in projective_points(2, F4)
                if model.poly(pt, F4) == 0]
    assert pts == expected


# ---------------------------------------------------------------------------
# fiber-wise enumeration against brute force over all of P^n

def brute_force_points(model, ext):
    return [pt for pt in projective_points(model.dim, ext)
            if all(f(pt, ext) == 0 for f in model.polys)]


def test_fiberwise_points_match_brute_force_on_table64():
    rows = build_family()
    for m in range(1, 5):
        ext = make_field(2, m)
        # the 16 rows of a family share the cubic: filter P^3 by it once
        cubic_zeros = {}
        for row in rows:
            cubic = row.model.cubic
            if cubic not in cubic_zeros:
                cubic_zeros[cubic] = [pt for pt in projective_points(3, ext)
                                      if cubic(pt, ext) == 0]
            expected = [pt for pt in cubic_zeros[cubic]
                        if row.model.quadric(pt, ext) == 0]
            assert points_on_model(row.model, ext) == expected, (
                row.family, row.mask_str, m)


@pytest.mark.parametrize("curve_id", ["iv", "v", "viii"])
def test_fiberwise_points_match_brute_force_on_catalog(curve_id):
    model = build_model(get_entry(curve_id))
    for m in range(1, 4):
        ext = make_field(2, m)
        assert points_on_model(model, ext) == brute_force_points(model, ext), m


def _monomials(nvars, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars)
            if sum(e) == degree]


def _random_form(rng, field, nvars, degree, allowed):
    while True:
        terms = {e: rng.randrange(field.order) for e in _monomials(nvars, degree)
                 if allowed(e) and rng.random() < 0.6}
        form = MultiPoly.build(field, nvars, terms)
        if form.terms:
            return form


# quadric and cubic monomial filters; x4 is exponent index 3
SPACE_SHAPES = {
    "generic": (lambda e: True, lambda e: True),
    # a = 0 in every fiber: the fiber polynomial is linear in x4
    "no_x4_squared": (lambda e: e[3] < 2, lambda e: True),
    # a = b = 0: every fiber is the whole line or empty
    "x4_free_quadric": (lambda e: e[3] == 0, lambda e: True),
    # a quadric cone with vertex (0:0:0:1), and a cubic through the vertex
    "cone_at_0001": (lambda e: e[3] == 0, lambda e: e[3] < 3),
}


@pytest.mark.parametrize("p,k,degrees", [(2, 1, (1, 2, 3)), (2, 2, (1, 2)),
                                         (3, 1, (1, 2))], ids=["GF2", "GF4", "GF3"])
@pytest.mark.parametrize("shape", sorted(SPACE_SHAPES))
def test_fiberwise_points_match_brute_force_on_random_space_curves(p, k, degrees, shape):
    F = make_field(p, k)
    quadric_ok, cubic_ok = SPACE_SHAPES[shape]
    rng = random.Random(f"{p}^{k} {shape}")
    for _ in range(3):
        model = SpaceCurve(_random_form(rng, F, 4, 3, cubic_ok),
                           _random_form(rng, F, 4, 2, quadric_ok))
        for m in degrees:
            ext = make_field(p, k * m)
            pts = points_on_model(model, ext)
            assert pts == brute_force_points(model, ext), (str(model.cubic),
                                                           str(model.quadric), m)
            if shape == "cone_at_0001":
                assert pts[0] == (0, 0, 0, 1)


def _closed_under_frobenius(points, ext, q):
    pts = set(points)
    return all(tuple(ext.pow(c, q) for c in pt) in pts for pt in pts)


# up to GF(2^6) and GF(q^3): Frobenius orbits of prefixes of size 3 to 6,
# also over a non-prime field
@pytest.mark.parametrize("p,k,degrees", [(2, 1, range(1, 7)), (2, 2, (1, 2, 3)),
                                         (3, 1, (1, 2, 3))], ids=["GF2", "GF4", "GF3"])
def test_fiberwise_points_match_brute_force_on_random_plane_curves(p, k, degrees):
    F = make_field(p, k)
    rng = random.Random(f"plane {p}^{k}")
    for degree in (1, 2, 3, 4):
        # the second draw has no z: every fiber is the whole line or empty
        for allowed in (lambda e: True, lambda e: e[2] == 0):
            model = PlaneCurve(_random_form(rng, F, 3, degree, allowed))
            for m in degrees:
                ext = make_field(p, k * m)
                pts = points_on_model(model, ext)
                assert pts == brute_force_points(model, ext), (str(model.poly), m)
                assert _closed_under_frobenius(pts, ext, F.order), (str(model.poly), m)


def test_points_on_model_returns_a_fresh_list():
    model = build_model(get_entry("viii"))
    ext = make_field(2, 4)
    expected = brute_force_points(model, ext)
    first = points_on_model(model, ext)
    assert first == expected
    first.clear()
    assert points_on_model(model, ext) == expected


# ---------------------------------------------------------------------------
# the orbit walk on the genus-4 curves, where prefix orbits over GF(2^m)
# have sizes 4 and 5

def _survivor():
    (row,) = [r for r in build_family()
              if (r.family, r.mask) == (SURVIVOR_FAMILY, SURVIVOR_MASK)]
    return row.model


@pytest.mark.parametrize("m", [4, 5])
def test_orbit_walk_matches_brute_force_on_genus_four_curves(m):
    ext = make_field(2, m)
    for model in (build_model(get_entry("viii")), _survivor()):
        pts = points_on_model(model, ext)
        assert pts == brute_force_points(model, ext)
        assert _closed_under_frobenius(pts, ext, 2)


@pytest.mark.parametrize("p,k,m", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (3, 1, 2)])
def test_representatives_are_the_least_points_of_the_orbits(p, k, m):
    # P^1 heads the prefixes of space curves; P^2 checks the recursion
    # past one level
    q, ext = p ** k, make_field(p, k * m)
    for dim in (1, 2):
        least = {}
        for pt in projective_points(dim, ext):
            orbit = [pt]
            while (nxt := tuple(ext.pow(c, q) for c in orbit[-1])) != pt:
                orbit.append(nxt)
            least[min(orbit)] = len(orbit)
        assert dict(_representatives(dim, ext, q)) == least, dim


# ---------------------------------------------------------------------------
# the probe's table-driven Jacobian against MultiPoly evaluation

def _jacobian_cases():
    rng = random.Random("jacobian")
    F3, F4 = make_field(3, 1), make_field(2, 2)
    models = [build_model(get_entry("viii")), build_model(get_entry("iv")), _survivor()]
    models += [PlaneCurve(_random_form(rng, F, 3, 4, lambda e: True)) for F in (F3, F4)]
    models += [SpaceCurve(_random_form(rng, F, 4, 3, lambda e: True),
                          _random_form(rng, F, 4, 2, lambda e: True)) for F in (F3, F4)]
    return models


@pytest.mark.parametrize("model", _jacobian_cases(),
                         ids=["viii", "iv", "survivor", "plane-GF3", "plane-GF4",
                              "space-GF3", "space-GF4"])
def test_probe_jacobian_matches_multipoly_evaluation(model):
    # at every point of P^n over the fields up to order 16
    F = model.field
    for m in range(1, 5):
        ext = make_field(F.p, F.k * m)
        if ext.order > 16:
            break
        jac = _jacobian(model, ext)
        partials = [[f.partial(v) for v in range(f.nvars)] for f in model.polys]
        for pt in projective_points(model.dim, ext):
            assert ([[ext.evaluate(d, pt) for d in row] for row in jac]
                    == [[d(pt, ext) for d in row] for row in partials]), (m, pt)


def test_viii_counts_to_gf256_match_the_l_extension():
    # N_5..N_8 by the orbit walk over P^2(GF(2^m)), against the
    # L-polynomial that N_1..N_4 determine
    model = build_model(get_entry("viii"))
    counts = curve_point_counts(model, 8)
    L = l_polynomial(PointCounts(2, 4, tuple(counts[:4])))
    assert extend_counts(L, 8).counts == tuple(counts)


# ---------------------------------------------------------------------------
# the probe, which evaluates the Jacobian once per orbit of the walk,
# against a scan of every point with MultiPoly evaluation

F3 = make_field(3, 1)

SINGULAR_PLANE_FORMS = ("y^2z+x^3", "y^4+x^3z", "x^2y^2+y^2z^2+z^2x^2+xyz^2",
                        # singular at (1:a:0), a^2 + a + 1 = 0, in characteristic
                        # 2: the prefix (1:a) has an orbit of size 2
                        "x^4+x^2y^2+y^4+xz^3")
# cubic and quadric meet on the vertex line x3 = x4 = 0 of a quadric cone,
# where the cubic restricts to an irreducible cubic: three conjugate
# singular points of degree 3, over prefixes (1:t:0) with orbits of size 3
SINGULAR_SPACE_CURVES = {F2: ("x1^3+x1^2x2+x2^3+x3^3+x1x4^2+x4^3", "x3^2+x3x4+x4^2"),
                         F3: ("x1^3+2x1^2x2+x2^3+x3^3+x1x4^2+x4^3", "x3^2+x4^2")}


def _singular_cases():
    cases = {f"{s}-{F}": PlaneCurve(parse_multipoly(s, F, XYZ))
             for s in SINGULAR_PLANE_FORMS for F in (F2, F3)}
    cases.update((f"space-{F}", SpaceCurve(parse_multipoly(c, F, X4),
                                           parse_multipoly(q, F, X4)))
                 for F, (c, q) in SINGULAR_SPACE_CURVES.items())
    return cases


SINGULAR_CASES = _singular_cases()


def _scan_probe(model, m_probe):
    """Every point of the model over GF(q^m), m <= m_probe, where the
    partial derivatives, evaluated as MultiPolys, have rank below the
    codimension: all vanish for a plane curve, all 2x2 minors for a
    space curve."""
    F, bad = model.field, []
    partials = [[f.partial(v) for v in range(f.nvars)] for f in model.polys]
    for m in range(1, m_probe + 1):
        ext = make_field(F.p, F.k * m)
        for pt in points_on_model(model, ext):
            rows = [[d(pt, ext) for d in row] for row in partials]
            if len(rows) == 1:
                singular = not any(rows[0])
            else:
                r1, r2 = rows
                singular = all(ext.mul(r1[i], r2[j]) == ext.mul(r1[j], r2[i])
                               for i, j in itertools.combinations(range(len(r1)), 2))
            if singular:
                bad.append((m, pt))
    return tuple(bad)


@pytest.mark.parametrize("name", sorted(SINGULAR_CASES))
def test_probe_matches_the_scan_of_every_point(name):
    model = SINGULAR_CASES[name]
    depth = 6 if model.field.p == 2 else 4
    bad = _scan_probe(model, depth)
    assert bad and smoothness_probe(model, depth) == bad
    with pytest.raises(SingularModelError) as err:
        curve_point_counts(model, 1, depth)
    assert str(err.value) == (f"model failed the smoothness probe at {bad[0]} "
                              f"({len(bad)} singular point(s) up to depth {depth})")


def test_probe_expands_singular_points_of_higher_degree():
    # the conjugate expansion is exercised: singular points of degree 2 and
    # 3 over prefixes that are not fixed by x -> x^q
    degrees = set()
    for name in ("x^4+x^2y^2+y^4+xz^3-GF(2)", "space-GF(2)", "space-GF(3)"):
        model = SINGULAR_CASES[name]
        for m, pt in smoothness_probe(model, 6 if model.field.p == 2 else 4):
            degrees.add(point_degree(pt, make_field(model.field.p, m), model.field))
    assert degrees == {2, 3}
