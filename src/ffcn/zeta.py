"""Zeta L-polynomials from point counts, class numbers, census/count
conversions, and the small arithmetic identities used by the genus-4
uniqueness argument.  ``analyse_counts`` is the one zeta pipeline of
``ffc verify``, ``ffc zeta`` and the table64 survivor.

Everything here is exact integer arithmetic; a non-integral intermediate
is a hard error by design, since it is the detector for singular models
and miscounted points, and ``analyse_counts`` reports it as a problem line.
"""

from __future__ import annotations

from .polyring import moebius_mu
from .records import record


class CountInconsistencyError(ValueError):
    """Point counts are not those of a curve of the asserted genus."""


class PointCounts(record("PointCounts", "q g counts")):
    """N_1..N_m over GF(q^n) for a curve of asserted genus g."""

    __slots__ = ()

    def __new__(cls, q: int, g: int, counts):
        self = super().__new__(cls, q, g, tuple(counts))
        if g < 0 or q < 2:
            raise ValueError("bad genus or field size")
        for n, N in enumerate(self.counts, start=1):
            if N < 0:
                raise CountInconsistencyError(f"negative count N_{n}")
            # Weil bound, squared to stay in integers
            if (N - (q ** n + 1)) ** 2 > 4 * g ** 2 * q ** n:
                raise CountInconsistencyError(
                    f"N_{n}={N} violates the Weil bound for g={g}, q={q}")
        return self

    def power_sums(self) -> list[int]:
        return [self.q ** n + 1 - N for n, N in enumerate(self.counts, start=1)]


class LPoly(record("LPoly", "q g coeffs")):
    """Integer numerator of the zeta function; degree 2g, a_0 = 1."""

    __slots__ = ()

    def __new__(cls, q: int, g: int, coeffs):
        self = super().__new__(cls, q, g, tuple(coeffs))
        a = self.coeffs
        if len(a) != 2 * g + 1:
            raise ValueError("L-polynomial must have degree exactly 2g")
        if a[0] != 1:
            raise ValueError("a_0 must be 1")
        for i in range(g + 1):
            if a[2 * g - i] != q ** (g - i) * a[i]:
                raise ValueError(f"functional equation fails at i={i}")
        if sum(a) < 1:
            raise ValueError("class number L(1) must be positive")
        return self


class PlaceCensus(record("PlaceCensus", "counts")):
    """B_d = number of places of degree exactly d, for d = 1..max_degree."""

    __slots__ = ()

    def __new__(cls, counts):
        self = super().__new__(cls, tuple(counts))
        if any(b < 0 for b in self.counts):
            raise CountInconsistencyError("negative place count")
        return self

    @property
    def max_degree(self) -> int:
        return len(self.counts)

    def b(self, d: int) -> int:
        if not 1 <= d <= self.max_degree:
            raise ValueError(f"census only covers degrees 1..{self.max_degree}")
        return self.counts[d - 1]

    def as_dict(self) -> dict[int, int]:
        return {d: b for d, b in enumerate(self.counts, start=1)}


def l_polynomial(counts: PointCounts) -> LPoly:
    """Reconstruct L(t) from N_1..N_g via Newton's identities.

    Power sums S_n = q^n + 1 - N_n determine the elementary symmetric
    functions e_1..e_g of the 2g inverse roots; a_i = (-1)^i e_i and the
    upper half follows from the functional equation.
    """
    g, q = counts.g, counts.q
    if len(counts.counts) < g:
        raise ValueError(f"need counts through N_{g} to reconstruct L")
    S = counts.power_sums()
    e = [1]
    for n in range(1, g + 1):
        acc = sum((-1) ** i * e[i] * S[n - i - 1] for i in range(n))
        num = (-1) ** (n + 1) * acc
        if num % n:
            raise CountInconsistencyError(
                f"Newton identity gives non-integer e_{n} = {num}/{n}")
        e.append(num // n)
    a = [(-1) ** i * e[i] for i in range(g + 1)]
    a += [q ** (i - g) * a[2 * g - i] for i in range(g + 1, 2 * g + 1)]
    try:
        return LPoly(q, g, tuple(a))
    except ValueError as exc:
        raise CountInconsistencyError(str(exc)) from exc


def class_number(L: LPoly) -> int:
    """h = L(1), positive as ``LPoly`` checks."""
    return sum(L.coeffs)


def extend_counts(L: LPoly, up_to: int) -> PointCounts:
    """N_1..N_up_to from the power-sum recurrence induced by L."""
    g, q = L.g, L.q
    e = [(-1) ** i * L.coeffs[i] for i in range(2 * g + 1)]
    S: list[int] = []
    for n in range(1, up_to + 1):
        acc = sum((-1) ** (i + 1) * e[i] * S[n - i - 1]
                  for i in range(1, min(n - 1, 2 * g) + 1))
        if n <= 2 * g:
            acc += (-1) ** (n + 1) * n * e[n]
        S.append(acc)
    return PointCounts(q, g, tuple(q ** n + 1 - s for n, s in enumerate(S, start=1)))


def census_from_counts(counts) -> PlaceCensus:
    """Moebius inversion B_n = (1/n) * sum_{d|n} mu(n/d) N_d of N_1..N_m."""
    N = tuple(counts)
    B = []
    for n in range(1, len(N) + 1):
        tot = sum(moebius_mu(n // d) * N[d - 1] for d in range(1, n + 1) if n % d == 0)
        if tot % n or tot < 0:
            raise CountInconsistencyError(
                f"census inversion gives B_{n} = {tot}/{n}")
        B.append(tot // n)
    return PlaceCensus(tuple(B))


def analyse_counts(q: int, g: int, counts, through: int):
    """(l_coeffs, h, census, cross_checked, problems) of N_1..N_m (m >= g)
    for a curve of genus g over GF(q): L from N_1..N_g, h = L(1), the
    degrees g < d <= through where N_d meets the L-extension, and the
    Moebius-inverted census.  Each failure is a problem line: the Weil
    bound, Newton integrality or L(1) < 1 (L is then (), h 0, nothing is
    cross-checked), a cross-check mismatch, a non-integral census (then ()).
    """
    problems, l_coeffs, h, checked, census = [], (), 0, [], ()
    try:
        L = l_polynomial(PointCounts(q, g, counts))
    except CountInconsistencyError as exc:
        problems.append(str(exc))
    else:
        l_coeffs, h = L.coeffs, class_number(L)
        extended = extend_counts(L, len(counts)).counts
        for m in range(g + 1, through + 1):
            if extended[m - 1] != counts[m - 1]:
                problems.append(
                    f"N_{m}: enumeration {counts[m - 1]} vs L-extension {extended[m - 1]}")
            else:
                checked.append(m)
    try:
        census = census_from_counts(counts).counts
    except CountInconsistencyError as exc:
        problems.append(str(exc))
    return l_coeffs, h, census, tuple(checked), tuple(problems)


def census_to_counts(census: PlaceCensus, up_to: int) -> list[int]:
    """N_m = sum_{d|m} d * B_d for m <= up_to."""
    if up_to > census.max_degree:
        raise ValueError(
            f"census truncated at degree {census.max_degree}, need {up_to}")
    return [sum(d * census.b(d) for d in range(1, m + 1) if m % d == 0)
            for m in range(1, up_to + 1)]


def hurwitz_different_degree(g_cover: int, g_base: int, n: int) -> int:
    """deg Diff from the Hurwitz genus formula: 2g_K - 2 - n(2g_F - 2)."""
    return 2 * g_cover - 2 - n * (2 * g_base - 2)


def cyclic_extension_count(h: int, q: int, t: int, d: int) -> int:
    """Number of degree-d cyclic extensions with conductor dividing a
    fixed degree-t place: d when d divides h*(q^t - 1)/(q - 1), else 0."""
    bound = h * (q ** t - 1) // (q - 1)
    return d if bound % d == 0 else 0
