"""From point counts to the zeta numerator and the class number.

The elliptic curve y^2 + y = x^3 + x + 1 over GF(2) has exactly one
rational place, which already pins down its L-polynomial: for genus g,
the counts N_1 .. N_g determine L(t) through Newton's identities, and
h = L(1) is the divisor class number.
"""

import sys

from ffcn.covers import CoverKind, CoverModel, cover_genus, place_census
from ffcn.gf import make_field
from ffcn.polyring import parse_rational
from ffcn.zeta import (PointCounts, census_from_counts, census_to_counts, class_number,
                       extend_counts, l_polynomial, real_weil_polynomial,
                       roots_in_weil_interval)

F2 = make_field(2, 1)
cover = CoverModel(CoverKind.ARTIN_SCHREIER, parse_rational("x^3+x+1", F2))

g = cover_genus(cover)
print("genus:", g)

# Count places of each degree directly from the splitting behaviour of
# the cover, then convert the census into point counts N_m.
census = place_census(cover, 6)
print("place census B_1..B_6:", census.counts)
counts = census_to_counts(census, 6)
print("point counts N_1..N_6:", counts)

L = l_polynomial(PointCounts(2, g, tuple(counts[:g])))
print("L-polynomial coefficients:", L.coeffs)
print("class number h = L(1) =", class_number(L))

# l_polynomial checks nothing about L; a curve's L is a Weil polynomial,
# every inverse root of absolute value sqrt(q), and this test proves it.
weil = roots_in_weil_interval(real_weil_polynomial(L), 2)
print("every inverse root has absolute value sqrt(2):", weil)
if not weil:
    sys.exit("L is not a Weil polynomial")

# The L-polynomial predicts every further count.  Comparing predictions
# against the independently computed census is a strong consistency
# check: two different algorithms must agree on every N_m.
predicted = extend_counts(L, 6).counts
print("L-extended counts:     ", list(predicted))
if list(predicted) != counts:
    sys.exit("enumerated and extended counts differ")
print("enumerated and extended counts agree through degree 6")

# And the census is recoverable from the counts by Moebius inversion.
if census_from_counts(predicted).counts != census.counts:
    sys.exit("the census does not survive the round trip")
print("census round trip: ok")
