import random
from math import isqrt

import pytest

from ffcn.catalog import DEFAULT_CATALOG, build_model, verify_curve
from ffcn.zeta import (CountInconsistencyError, LPoly, PlaceCensus,
                       PointCounts, analyse_counts, census_from_counts,
                       census_to_counts, class_number, cyclic_extension_count, extend_counts,
                       hurwitz_different_degree, l_polynomial, real_weil_polynomial,
                       roots_in_weil_interval)


def test_elliptic_l_polynomial():
    L = l_polynomial(PointCounts(2, 1, (1,)))
    assert L.coeffs == (1, -2, 2)
    assert class_number(L) == 1
    assert extend_counts(L, 5).counts == (1, 5, 13, 25, 41)


def test_genus_two_l_polynomial():
    L = l_polynomial(PointCounts(2, 2, (1, 5)))
    assert L.coeffs == (1, -2, 2, -4, 4)
    assert class_number(L) == 1


def test_genus_zero():
    L = LPoly(2, 0, (1,))
    assert class_number(L) == 1
    assert extend_counts(L, 4).counts == (3, 5, 9, 17)


NOT_A_WEIL_L = "L is not a Weil polynomial: not every inverse root has absolute value sqrt(2)"


def test_lpoly_validation():
    # l_polynomial builds a_0 = 1, degree 2g and the functional equation,
    # so no counts give a_0 = 2, a_2 = 3 or a degree below 2g
    refused = {(2, -2, 2), (1, -2, 3), (1, -2)}
    for N_1 in range(6):
        l_coeffs = analyse_counts(2, 1, (N_1,), 1)[0]
        assert l_coeffs == (1, N_1 - 3, 2) and l_coeffs not in refused
    rng = random.Random(20261021)
    for _ in range(300):
        q, g = rng.choice((2, 3, 4, 5)), rng.randint(0, 4)
        counts = tuple(rng.randint(0, 2 * q ** n + 2) for n in range(1, g + 1))
        a = analyse_counts(q, g, counts, g)[0]
        if a:  # Newton was integral
            assert len(a) == 2 * g + 1 and a[0] == 1
            assert all(a[2 * g - i] == q ** (g - i) * a[i] for i in range(g + 1))


def test_weil_bound_enforced():
    # N_1 = 9 > 2 + 1 + 2 sqrt(2): R = x + 6 has its root at -6
    assert analyse_counts(2, 1, (9,), 1) == ((1, 6, 2), 9, (9,), (), (NOT_A_WEIL_L,))
    # genus 0 forces N_1 = 3: the cross-check says so, and past it the bound
    assert analyse_counts(2, 0, (4,), 1)[3:] == ((), ("N_1: enumeration 4 vs L-extension 3",))
    assert analyse_counts(2, 0, (4,), 0)[3:] == ((), ("N_1=4 violates the Weil bound for g=0, q=2",))


def test_non_curve_counts_detected():
    # N = (0, 0) for genus 2: S_1 = 3 and S_2 = 5 give e_1 = 3 and
    # e_2 = (S_1^2 - S_2)/2 = 2, so L = 1 - 3t + 2t^2 - 6t^3 + 4t^4 and L(1) = -2;
    # L and h are kept, and the Weil test refuses L
    assert analyse_counts(2, 2, (0, 0), 2) == (
        (1, -3, 2, -6, 4), -2, (0, 0), (), (NOT_A_WEIL_L,))
    # N = (0, 1): e_2 = (9 - 4)/2
    assert analyse_counts(2, 2, (0, 1), 2) == ((), 0, (), (), (
        "Newton identity gives non-integer e_2 = 5/2", "census inversion gives B_2 = 1/2"))


def test_negative_counts_detected():
    # a negative count or place count makes some B_d negative, so the census refuses it
    assert analyse_counts(2, 1, (1, -1), 2) == ((1, -2, 2), 1, (), (), (
        "N_2: enumeration -1 vs L-extension 5", "census inversion gives B_2 = -2/2"))
    with pytest.raises(CountInconsistencyError, match=r"^census inversion gives B_2 = -2/2$"):
        census_from_counts(census_to_counts(PlaceCensus((0, -1)), 2))


def test_non_census_counts_detected():
    # B_2 = (N_2 - N_1)/2
    with pytest.raises(CountInconsistencyError,
                       match=r"^census inversion gives B_2 = 1/2$"):
        census_from_counts((0, 1))
    with pytest.raises(CountInconsistencyError,
                       match=r"^census inversion gives B_2 = -2/2$"):
        census_from_counts((3, 1))


def test_census_inversion_known_values():
    assert census_to_counts(PlaceCensus((1,)), 1) == [1]
    assert census_to_counts(PlaceCensus((0, 0, 0, 1, 3)), 5) == [0, 0, 0, 4, 15]
    assert census_to_counts(PlaceCensus((3, 1)), 2) == [3, 5]
    assert census_from_counts([0, 0, 0, 4, 15]).counts == (0, 0, 0, 1, 3)


def test_census_round_trip_random():
    rng = random.Random(20260823)
    for _ in range(1000):
        m = rng.randint(1, 10)
        B = tuple(rng.randint(0, 99) for _ in range(m))
        N = census_to_counts(PlaceCensus(B), m)
        assert census_from_counts(N).counts == B


def test_census_truncation_guard():
    with pytest.raises(ValueError):
        census_to_counts(PlaceCensus((1, 2)), 3)


@pytest.mark.parametrize("call,message", [
    # without the check, b(0) would read the last degree's B
    (lambda: PlaceCensus((1, 2, 3)).b(0), "census only covers degrees 1..3"),
    (lambda: PlaceCensus((1, 2, 3)).b(4), "census only covers degrees 1..3"),
    (lambda: l_polynomial(PointCounts(2, 2, (1,))), "need counts through N_2 to reconstruct L"),
], ids=["b-of-0", "b-past-the-census", "l-from-too-few-counts"])
def test_out_of_range_requests_raise_by_name(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)


def test_extending_to_no_degree_gives_no_counts():
    L = LPoly(2, 1, (1, -2, 2))
    assert extend_counts(L, 0).counts == ()
    assert extend_counts(L, 3).counts == (1, 5, 13)


def test_hurwitz_different_degree():
    assert hurwitz_different_degree(4, 0, 5) == 16
    assert hurwitz_different_degree(1, 0, 2) == 4
    assert hurwitz_different_degree(0, 0, 1) == 0


def test_cyclic_extension_count():
    assert cyclic_extension_count(1, 2, 4, 5) == 5   # 5 divides 15
    assert cyclic_extension_count(1, 2, 2, 5) == 0   # 5 does not divide 3
    assert cyclic_extension_count(1, 3, 1, 2) == 0   # (3-1)/(3-1) = 1


def test_an_l_extension_beyond_the_weil_bound_is_a_problem_line():
    # N_1 = 0, N_2 = 10 give an L with the functional equation, but its
    # N_3 = 27 breaks the Weil bound: the Weil test refuses L, which is kept
    assert analyse_counts(2, 2, (0, 10, 0), 3) == (
        (1, -3, 7, -6, 4), 3, (0, 5, 0), (),
        (NOT_A_WEIL_L, "N_3: enumeration 0 vs L-extension 27"))


def test_a_weil_l_can_extend_to_a_negative_count_past_the_cross_check():
    # L = (1 + t + 2t^2)^2 is a Weil polynomial whose N_3 is -1; with
    # through = g nothing cross-checks N_3 = 11, which is within the bound
    assert analyse_counts(2, 2, (5, 11, 11), 2) == (
        (1, 2, 5, 4, 4), 16, (5, 3, 2), (), ("L-extension: negative count N_3",))
    assert extend_counts(LPoly(2, 2, (1, 2, 5, 4, 4)), 3).counts == (5, 11, -1)


# an L with the functional equation, h = 1, N_4..N_6 within the Weil bound
# and an integral census through degree 12, but R = x^3 - 3x^2 - 2x + 7
# has a root near 2.834, beyond 2 sqrt(2) ~ 2.828: no curve has it
NOT_WEIL = (2, 3, (1, -3, 4, -5, 8, -12, 8))
NOT_WEIL_COUNTS = (0, 4, 3, 20, 25, 19)


def test_an_l_that_is_not_a_weil_polynomial_is_a_problem_line():
    q, g, coeffs = NOT_WEIL
    assert real_weil_polynomial(LPoly(q, g, coeffs)) == [7, -2, -3, 1]
    assert analyse_counts(q, g, NOT_WEIL_COUNTS, 6) == (
        coeffs, 1, (0, 2, 1, 4, 5, 2), (4, 5, 6), (NOT_A_WEIL_L,))


def _catalog_l_polynomials():
    return [LPoly(build_model(entry).field.order, report.genus, report.l_coeffs)
            for entry in DEFAULT_CATALOG for report in (verify_curve(entry),)]


def test_the_catalog_l_polynomials_are_weil_polynomials():
    Ls = _catalog_l_polynomials()
    assert len(Ls) == 8
    for L in Ls:
        assert roots_in_weil_interval(real_weil_polynomial(L), L.q), L


@pytest.mark.parametrize("R, q, weil", [
    ([-4, 1], 4, True), ([4, 1], 4, True),  # x -+ 2 sqrt(4): curve vii's R is x - 4
    ([-16, 0, 1], 4, True), ([-8, 0, 1], 2, True), ([-12, 0, 1], 3, True),
    ([-24, -8, 3, 1], 2, False),  # (x^2 - 8)(x + 3)
    ([-8, 2, 1], 2, False),  # x^2 + 2x - 8 = (x - 2)(x + 4)
    ([-7, 0, 1], 2, True), ([-9, 0, 1], 2, False),  # roots just inside, just outside
    ([4, -4, 1], 2, True), ([16, -8, 1], 4, True),  # (x - 2)^2, (x - 4)^2
    ([64, 0, -16, 0, 1], 2, True),  # (x^2 - 8)^2
    ([1, 0, 1], 2, False),  # x^2 + 1: no real root
    ([1], 2, True),  # genus 0
])
def test_the_ends_of_the_interval_and_repeated_roots(R, q, weil):
    assert roots_in_weil_interval(R, q) is weil


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_factor(rng, q, square):
    """x - c, a quadratic, x^2 - 4q (roots at both ends), a root just
    inside or outside both ends, or x -+ 2 sqrt(q) for a square q."""
    b = int(2 * q ** 0.5) + 2
    kind = rng.randrange(6)
    if kind == 1:
        return [rng.randint(-b * b, b * b), rng.randint(-2 * b, 2 * b), 1]
    if kind == 2:
        return [-4 * q, 0, 1]
    if kind == 3:
        return [-4 * q + rng.choice((-1, 1)), 0, 1]
    if kind == 4 and square:
        return [rng.choice((-2, 2)) * square, 1]
    return [-rng.randint(-b, b), 1]


def _random_r(rng):
    """A monic integer R of degree 1..4 over q in {2, 3, 4, 5, 9}, as a
    product of random factors, each squared with probability 1/4."""
    q = rng.choice((2, 3, 4, 5, 9))
    square = {4: 2, 9: 3}.get(q, 0)
    R, repeated = [1], False
    while len(R) == 1 or rng.random() < 0.7:
        f = _random_factor(rng, q, square)
        twice = rng.random() < 0.25
        if twice:
            f = _times(f, f)
        if len(R) + len(f) - 2 > 4:
            break
        R, repeated = _times(R, f), repeated or twice
    return R, q, repeated


def test_the_weil_test_agrees_with_sympy():
    # sympy's exact real and complex roots, compared exactly with
    # +-2 sqrt(q), on 300 seeded random R
    sympy = pytest.importorskip("sympy")
    x, rng = sympy.Symbol("x"), random.Random(20261020)
    seen = set()
    for _ in range(300):
        R, q, repeated = _random_r(rng)
        bound = 2 * sympy.sqrt(q)
        roots = sympy.Poly(R[::-1], x).all_roots()
        weil = all(r.is_real and bool(-bound <= r) and bool(r <= bound) for r in roots)
        assert roots_in_weil_interval(R, q) is weil, (R, q)
        at_an_end = any(r**2 == 4 * q for r in roots if r.is_real)
        seen.add((weil, "repeated" if repeated else "",
                  ("square" if q in (4, 9) else "non-square") if at_an_end else ""))
    for kind in ((True, "repeated", ""), (False, "repeated", ""),
                 (True, "", "square"), (True, "", "non-square"),
                 (False, "", "square"), (False, "", "non-square")):
        assert kind in seen, kind


def test_r_is_the_real_weil_polynomial_of_l():
    # T^g R(T + q/T) = T^(2g) L(1/T) on the catalog's L and the non-Weil one
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("T")
    for L in _catalog_l_polynomials() + [LPoly(*NOT_WEIL)]:
        R = real_weil_polynomial(L)
        lhs = T ** L.g * sum(c * (T + L.q / T) ** k for k, c in enumerate(R))
        rhs = T ** (2 * L.g) * sum(c * T ** -i for i, c in enumerate(L.coeffs))
        assert sympy.expand(lhs - rhs) == 0, L


def _with_the_old_guards(q, g, counts, through):
    """The passing tuple of analyse_counts under the guards it no longer
    needs, else None: the Weil bound and N >= 0 on every count and every
    extended count and L(1) >= 1, then Newton, the Weil test, the
    cross-check for g < m <= through and the census."""
    def guarded(N):
        return all(n >= 0 and (n - q ** m - 1) ** 2 <= 4 * g * g * q ** m
                   for m, n in enumerate(N, start=1))

    if not guarded(counts):
        return None
    try:
        L = l_polynomial(PointCounts(q, g, counts))
    except CountInconsistencyError:
        return None
    extended = extend_counts(L, len(counts)).counts
    if (class_number(L) < 1 or not guarded(extended)
            or not roots_in_weil_interval(real_weil_polynomial(L), q)
            or extended[g:through] != counts[g:through]):
        return None
    try:
        census = census_from_counts(counts).counts
    except CountInconsistencyError:
        return None
    return L.coeffs, class_number(L), census, tuple(range(g + 1, through + 1)), ()


def _counts_near_the_weil_box(rng, q, g, m):
    return tuple(rng.randint(q ** n + 1 - isqrt(4 * g * g * q ** n) - 2,
                             q ** n + 1 + isqrt(4 * g * g * q ** n) + 2)
                 for n in range(1, m + 1))


def _counts_of_a_random_l(rng, q, g, m):
    """The extension of L, a product of Weil factors 1 + a t + q t^2 or
    one with random coefficients, with N_k changed by 0, +-1 or a
    multiple of k (which keeps B_k integral)."""
    if rng.randrange(2):
        a = [1]
        for _ in range(g):
            a = _times(a, [1, rng.randint(-isqrt(4 * q), isqrt(4 * q)), q])
    else:
        a = [1] + [rng.randint(-2 * q, 2 * q) for _ in range(g)]
        a += [q ** (i - g) * a[2 * g - i] for i in range(g + 1, 2 * g + 1)]
    counts = list(extend_counts(LPoly(q, g, tuple(a)), m).counts)
    k = rng.randint(1, m)
    counts[k - 1] += rng.choice((0, 0, 1, -1, k, -k, 2 * k))
    return tuple(counts)


def test_the_weil_test_gives_the_verdict_the_old_guards_gave():
    rng = random.Random(20261021)
    cells = ([(2, g) for g in range(5)] + [(3, g) for g in range(3)]
             + [(4, 1), (4, 2), (5, 1)])
    verdicts = {True: 0, False: 0}
    for i in range(2000):
        q, g = rng.choice(cells)
        m = rng.randint(max(g, 1), 2 * g + 5)
        through = rng.randint(g, m)
        make = _counts_near_the_weil_box if i % 2 else _counts_of_a_random_l
        counts = make(rng, q, g, m)
        result, reference = analyse_counts(q, g, counts, through), _with_the_old_guards(
            q, g, counts, through)
        assert (not result[4]) is (reference is not None), (q, g, counts, through, result)
        if reference is not None:
            assert result == reference, (q, g, counts, through)
        verdicts[reference is not None] += 1
    assert min(verdicts.values()) >= 200, verdicts
