import random

import pytest

from ffcn.zeta import (CountInconsistencyError, LPoly, PlaceCensus,
                       PointCounts, analyse_counts, census_from_counts,
                       census_to_counts, class_number, cyclic_extension_count, extend_counts,
                       hurwitz_different_degree, l_polynomial)


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


def test_lpoly_validation():
    with pytest.raises(ValueError):
        LPoly(2, 1, (2, -2, 2))           # a_0 != 1
    with pytest.raises(ValueError):
        LPoly(2, 1, (1, -2, 3))           # functional equation fails
    with pytest.raises(ValueError):
        LPoly(2, 1, (1, -2))              # wrong degree


def test_weil_bound_enforced():
    with pytest.raises(CountInconsistencyError):
        PointCounts(2, 1, (9,))           # N_1 = 9 > 2 + 1 + 2*sqrt(2)
    with pytest.raises(CountInconsistencyError):
        PointCounts(2, 0, (4,))           # genus 0 forces N_1 = 3


def test_non_curve_counts_detected():
    # N = (0, 0) for genus 2: S_1 = 3 and S_2 = 5 give e_1 = 3 and
    # e_2 = (S_1^2 - S_2)/2 = 2, so L = 1 - 3t + 2t^2 - 6t^3 + 4t^4 and L(1) = -2
    with pytest.raises(CountInconsistencyError, match=r"^class number L\(1\) must be positive$"):
        l_polynomial(PointCounts(2, 2, (0, 0)))
    # N = (0, 1): e_2 = (9 - 4)/2
    with pytest.raises(CountInconsistencyError,
                       match=r"^Newton identity gives non-integer e_2 = 5/2$"):
        l_polynomial(PointCounts(2, 2, (0, 1)))


def test_negative_counts_detected():
    with pytest.raises(CountInconsistencyError, match=r"^negative count N_2$"):
        PointCounts(2, 1, (1, -1))
    with pytest.raises(CountInconsistencyError, match=r"^negative place count$"):
        PlaceCensus((0, -1))


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
    # N_3 = 27 breaks the Weil bound: L is no curve's, and nothing is raised
    assert analyse_counts(2, 2, (0, 10, 0), 3) == (
        (), 0, (0, 5, 0), (), ("L-extension: N_3=27 violates the Weil bound for g=2, q=2",))
