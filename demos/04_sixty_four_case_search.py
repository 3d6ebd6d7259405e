"""The exhaustive 64-case search over canonical genus-4 models.

A canonical curve of genus 4 over GF(2) is the intersection of a cubic
and a quadric surface in P^3.  Taking four cubic families, four base
quadrics, and all sixteen square-mask modifications of each quadric
gives 64 candidate models.  A model is discarded as soon as it has a
point of degree at most 3; exactly one candidate survives, and its zeta
data shows it has class number one.
"""

import sys

from ffcn.table64 import build_family, find_survivors, survivor_analysis, verify_row
from ffcn.varieties import min_point_degree

rows = build_family()
print("built", len(rows), "cubic-quadric models")

by_degree = {1: 0, 2: 0, 3: 0, 4: 0}
for row in rows:
    found = min_point_degree(row.model, 4)
    by_degree[found[0]] += 1
print("minimal point degree histogram:", by_degree)

survivors = find_survivors(rows)
print("\nmodels with no point of degree <= 3:", len(survivors))
(survivor,) = survivors
print("survivor: cubic family", survivor.family, "mask", survivor.mask)

res = verify_row(survivor)
print("its first low-degree point:", res.computed_witness,
      "of degree", res.computed_min_degree, "(coordinates in GF(16))")

rep = survivor_analysis(survivor)
print("\nzeta data of the survivor:")
print("  N_1..N_5 =", rep.counts)
print("  L coefficients =", rep.l_coeffs)
print("  class number h = L(1) =", rep.h)
print("  place census B_1..B_5 =", rep.census)
print("  (one place of degree 4, three of degree 5, nothing smaller)")

# Every published row checks out too: witnesses lie on their curves with
# the claimed degrees, and the quadric expansions match monomial by
# monomial.
failed = [row for row in rows if verify_row(row).status != "pass"]
if failed:
    sys.exit(f"{len(failed)} rows disagree with the published table")
print("\nall 64 rows verified against the published table")
