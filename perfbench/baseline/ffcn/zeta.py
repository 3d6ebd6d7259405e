"""Zeta L-polynomials from point counts, class numbers, census/count
conversions, and the small arithmetic identities used by the genus-4
uniqueness argument.

Everything here is exact integer arithmetic; a non-integral intermediate
is a hard error by design, since it is the detector for singular models
and miscounted points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polyring import moebius_mu


class CountInconsistencyError(ValueError):
    """Point counts are not those of a curve of the asserted genus."""


@dataclass(frozen=True)
class PointCounts:
    """N_1..N_m over GF(q^n) for a curve of asserted genus g."""

    q: int
    g: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        if self.g < 0 or self.q < 2:
            raise ValueError("bad genus or field size")
        for n, N in enumerate(self.counts, start=1):
            if N < 0:
                raise CountInconsistencyError(f"negative count N_{n}")
            # Weil bound, squared to stay in integers
            if (N - (self.q ** n + 1)) ** 2 > 4 * self.g ** 2 * self.q ** n:
                raise CountInconsistencyError(
                    f"N_{n}={N} violates the Weil bound for g={self.g}, q={self.q}")

    def power_sums(self) -> list[int]:
        return [self.q ** n + 1 - N for n, N in enumerate(self.counts, start=1)]


@dataclass(frozen=True)
class LPoly:
    """Integer numerator of the zeta function; degree 2g, a_0 = 1."""

    q: int
    g: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        a = self.coeffs
        if len(a) != 2 * self.g + 1:
            raise ValueError("L-polynomial must have degree exactly 2g")
        if a[0] != 1:
            raise ValueError("a_0 must be 1")
        for i in range(self.g + 1):
            if a[2 * self.g - i] != self.q ** (self.g - i) * a[i]:
                raise ValueError(f"functional equation fails at i={i}")
        if sum(a) < 1:
            raise ValueError("class number L(1) must be positive")

    def __call__(self, t: int) -> int:
        return sum(c * t ** i for i, c in enumerate(self.coeffs))


@dataclass(frozen=True)
class PlaceCensus:
    """B_d = number of places of degree exactly d, for d = 1..max_degree."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        if any(b < 0 for b in self.counts):
            raise CountInconsistencyError("negative place count")

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
    h = sum(L.coeffs)
    if h < 1:
        raise CountInconsistencyError("nonpositive class number")
    return h


def extend_counts(L: LPoly, up_to: int) -> PointCounts:
    """N_1..N_up_to from the power-sum recurrence induced by L."""
    if up_to < 1:
        raise ValueError("need up_to >= 1")
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
    """Moebius inversion B_n = (1/n) * sum_{d|n} mu(n/d) N_d.

    Accepts a PointCounts or any sequence of N_1..N_m.
    """
    N = counts.counts if isinstance(counts, PointCounts) else tuple(counts)
    B = []
    for n in range(1, len(N) + 1):
        tot = sum(moebius_mu(n // d) * N[d - 1] for d in range(1, n + 1) if n % d == 0)
        if tot % n or tot < 0:
            raise CountInconsistencyError(
                f"census inversion gives B_{n} = {tot}/{n}")
        B.append(tot // n)
    return PlaceCensus(tuple(B))


def census_to_counts(census: PlaceCensus, up_to: int) -> list[int]:
    """N_m = sum_{d|m} d * B_d for m <= up_to."""
    if up_to > census.max_degree:
        raise ValueError(
            f"census truncated at degree {census.max_degree}, need {up_to}")
    return [sum(d * census.b(d) for d in range(1, m + 1) if m % d == 0)
            for m in range(1, up_to + 1)]


def hurwitz_different_degree(g_cover: int, g_base: int, n: int) -> int:
    """deg Diff from the Hurwitz genus formula: 2g_K - 2 - n(2g_F - 2)."""
    if n < 1:
        raise ValueError("cover degree must be positive")
    return 2 * g_cover - 2 - n * (2 * g_base - 2)


def abhyankar_index(e1: int, e2: int) -> int:
    """Composite ramification index lcm(e1, e2) (tame-side hypothesis is
    the caller's responsibility)."""
    if e1 < 1 or e2 < 1:
        raise ValueError("ramification indices must be positive")
    return math.lcm(e1, e2)


def cyclic_extension_count(h: int, q: int, t: int, d: int) -> int:
    """Number of degree-d cyclic extensions with conductor dividing a
    fixed degree-t place: d when d divides h*(q^t - 1)/(q - 1), else 0."""
    if min(h, q, t, d) < 1:
        raise ValueError("all arguments must be positive")
    bound = h * (q ** t - 1) // (q - 1)
    return d if bound % d == 0 else 0
