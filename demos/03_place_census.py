"""Places, residue fields, and how degree-2 covers split them.

A place of the rational function field GF(q)(x) is a monic irreducible
polynomial (or the pole of x).  ``monic_irreducibles`` lists the places
of one degree, each with its canonical root: the least root in the
residue field GF(q^d).  In a degree-2 cover each base place
either ramifies, splits in two, or stays inert with doubled degree;
which one happens is decided by a trace (characteristic 2) or a
quadratic character (characteristic 3) in the residue field.
"""

from ffcn.covers import CoverKind, CoverModel, splitting_type
from ffcn.gf import make_field
from ffcn.polyring import (element_str, monic_irreducibles, parse_rational, places_of_degree,
                           residue, residue_field)

F2 = make_field(2, 1)

print("monic irreducibles over GF(2) by degree, each with its canonical root in GF(2^d):")
for d in range(1, 6):
    places = monic_irreducibles(F2, d)
    R = make_field(2, d)
    shown = ", ".join(f"{u} at {element_str(R, root)}" for u, root in list(places.items())[:3])
    more = "" if len(places) <= 3 else f", ... ({len(places)} total)"
    print(f"  degree {d}: {shown}{more}")

place = places_of_degree(F2, 3)[0]
R, root = residue_field(place)
print(f"\nresidue field of {place}: GF({R.order})")
f = parse_rational("(x^2+1)/(x^3+x+1)", F2)
try:
    residue(f, place)
except Exception as exc:
    print("evaluating at a pole raises:", type(exc).__name__, "-", exc)

cover = CoverModel(CoverKind.ARTIN_SCHREIER, parse_rational("x^3+x+1", F2))
print("\nsplitting of low-degree places in y^2 + y = x^3 + x + 1:")
for d in (1, 2, 3):
    for place in places_of_degree(F2, d):
        kind = splitting_type(cover, place)
        above = {"ramified": "one place, degree d",
                 "split": "two places, degree d",
                 "inert": "one place, degree 2d"}[kind]
        print(f"  {str(place):>22} -> {kind:<8} ({above})")

# Every base place satisfies the fundamental identity: the ramification
# indices times inertia degrees of the places above it sum to 2.
print("\nsum of e*f over each fiber is the cover degree 2, in every case above")
