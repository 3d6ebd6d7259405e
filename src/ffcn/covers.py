"""Degree-2 covers of the rational function field: Artin-Schreier
(y^2 + y = f, characteristic 2) and Kummer (y^2 = f, odd characteristic).

Each kind has one rule (Stichtenoth, Algebraic Function Fields and
Codes, 3.7).  Artin-Schreier: a pole of odd order m ramifies with
different exponent m + 1, and any other place splits iff the residue of
f has absolute trace 0.  Kummer: a place of odd valuation ramifies with
different exponent 1, and any other place splits iff the unit residue
of f is a square.  Valuations come from f's support, the places at
whose canonical roots its numerator or denominator vanishes, and the
genus from the Hurwitz formula.  The rules hold in standard form only,
so ``CoverModel`` refuses any other f when it is built.  The support of
f is cached by value, so each cover's support is walked once however
often its model is rebuilt.

The place-degree census applies the split test without building the
places: each finite place of degree d is its canonical root, one least
member per Frobenius orbit of size d in GF(q^d), and f's numerator and
denominator are evaluated at all of those roots at once.  Only the
infinite place and the places of the support are decided one by one,
by ``splitting_type``.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from types import MappingProxyType

from .gf import GF, extension_order, make_field, orbit_representatives
from .polyring import (Place, RationalFunction, monic_irreducibles,
                       place_valuation, residue, residue_field, unit_residue)
from .records import record
from .zeta import PlaceCensus, census_to_counts


class CoverKind(enum.Enum):
    ARTIN_SCHREIER = "artin_schreier"
    KUMMER = "kummer"


class InvalidCoverError(ValueError):
    """N_1 of the cover's census breaks the Weil bound."""


class NonStandardCoverError(ValueError):
    """The cover is not in the standard form this module handles: its
    kind does not fit the characteristic, f is zero, an Artin-Schreier f
    has no pole or a pole of even order, or a Kummer f has no place of
    odd valuation.  Such a cover is unusable input, not a counterexample."""


class CoverModel(record("CoverModel", "kind f")):
    """The cover of ``kind`` (a ``CoverKind`` or its value) given by the
    right-hand side ``f``, in standard form: any other f is refused here,
    with every problem found."""

    __slots__ = ()

    def __new__(cls, kind: CoverKind | str, f: RationalFunction):
        kind, p = CoverKind(kind), f.field.p
        if kind is CoverKind.ARTIN_SCHREIER and p != 2:
            problems = ["Artin-Schreier covers need characteristic 2"]
        elif kind is CoverKind.KUMMER and p == 2:
            problems = ["Kummer covers need odd characteristic"]
        elif f.is_zero:
            problems = ["right-hand side is identically zero"]
        elif kind is CoverKind.ARTIN_SCHREIER:
            poles = [(place, -v) for place, v in support_places(f).items() if v < 0]
            problems = [f"even pole order {m} at {place}: not in standard form"
                        for place, m in poles if m % 2 == 0]
            if not poles:
                problems = ["no poles: the extension is constant or inseparable-like"]
        elif not any(v % 2 for v in support_places(f).values()):
            problems = ["f is a square times a constant: no ramification"]
        else:
            problems = []
        if problems:
            raise NonStandardCoverError("; ".join(problems))
        return super().__new__(cls, kind, f)

    @property
    def field(self) -> GF:
        return self.f.field

    @property
    def genus(self) -> int:
        return cover_genus(self)

    @property
    def cross_check_depth(self) -> int:
        return 2 * self.genus + 2

    def counts(self, n: int) -> list[int]:
        """N_1..N_n from the place census (no points, so no probe)."""
        return census_to_counts(place_census(self, n), n)

    def enumeration_size(self, n: int) -> int:
        """Elements of GF(q^n), the largest field the census to degree n
        visits; past the field limit, n is capped as ``extension_order``
        says."""
        return extension_order(self.field, n)


@lru_cache(maxsize=None)
def support_places(f: RationalFunction):
    """{place: valuation} at every place where f has nonzero valuation, a
    read-only mapping cached by value; any other place has valuation 0.

    The numerator and denominator are evaluated at the canonical roots of
    the places of degree up to D = max(deg num, deg den), in GF(q^D), and
    the valuation is taken where one of them vanishes (it is nonzero, as
    they are coprime).  The infinite place comes last, when in the support.
    """
    F = f.field
    out = {}
    for d in range(1, max(f.num.degree, f.den.degree) + 1):
        places, R = monic_irreducibles(F, d), make_field(F.p, F.k * d)
        roots = places.values()
        for u, a, b in zip(places, f.num.values_in(roots, R), f.den.values_in(roots, R)):
            if not (a and b):
                place = Place(F, u)
                out[place] = place_valuation(f, place)
    v_inf = f.den.degree - f.num.degree
    if v_inf:
        out[Place.infinite(F)] = v_inf
    return MappingProxyType(out)


def _is_ramified(cover: CoverModel, v: int) -> bool:
    if cover.kind is CoverKind.ARTIN_SCHREIER:
        return v < 0
    return v % 2 != 0


def cover_genus(cover: CoverModel) -> int:
    """Hurwitz genus formula with rational base: 2g - 2 = -4 + deg Diff,
    deg Diff the sum of d_P deg P over the ramified places P.

    Artin-Schreier: e = 2 at each pole, d_P = (p-1)(m_P+1) = 1 - v_P with
    m_P = -v_P the pole order.  Kummer degree 2: e = 2 and d_P = 1 (tame
    equality case of Dedekind's different theorem) at each place of odd
    valuation, whatever its size."""
    # deg Diff is even and >= 2 in standard form: odd pole orders; sum v_P deg P = 0
    artin_schreier = cover.kind is CoverKind.ARTIN_SCHREIER
    diff_degree = sum((1 - v if artin_schreier else 1) * place.degree
                      for place, v in support_places(cover.f).items()
                      if _is_ramified(cover, v))
    return diff_degree // 2 - 1


def _splits(cover: CoverModel, R: GF, c: int) -> bool:
    """Whether an unramified place with residue field R splits: c, the
    residue of f (Artin-Schreier) or its unit residue (Kummer), has trace
    0 or is a square."""
    if cover.kind is CoverKind.ARTIN_SCHREIER:
        return R.trace(c) == 0
    return R.quadratic_character(c) == 1


def splitting_type(cover: CoverModel, place: Place) -> str:
    """'ramified', 'split', or 'inert' (each satisfies sum e*f = 2)."""
    if _is_ramified(cover, support_places(cover.f).get(place, 0)):
        return "ramified"
    value = residue if cover.kind is CoverKind.ARTIN_SCHREIER else unit_residue
    R = residue_field(place)[0]
    return "split" if _splits(cover, R, value(cover.f, place)) else "inert"


def place_census(cover: CoverModel, max_degree: int) -> PlaceCensus:
    """B_d for the cover, d = 1..max_degree.

    Ramified base places give one place of the same degree; split give
    two; inert give one of twice the degree (recorded when 2d <=
    max_degree).  Base places are scanned through degree max_degree so
    that every cover place of degree <= max_degree is seen.

    A finite place of degree d is visited as its canonical root, the
    least member of an orbit of size d of x -> x^q on GF(q^d)
    (``gf.orbit_representatives``).  The numerator and denominator of f
    are evaluated at all of these roots at once.  Where neither vanishes
    the place is unramified, f(root) is its residue and its unit residue,
    and ``splitting_type``'s split test decides it.  The infinite place
    and the roots of f's finite support go through ``splitting_type``.

    Raises InvalidCoverError when N_1 breaks the Weil bound (a cover that
    secretly extends the constant field splits every place).
    """
    if max_degree < 1:
        raise ValueError("census degree bound must be >= 1")
    g = cover.genus
    F, f = cover.field, cover.f
    support = [place for place in support_places(f) if not place.is_infinite]
    B = [0] * max_degree

    def tally(d: int, kind: str, n: int = 1):
        if kind == "ramified":
            B[d - 1] += n
        elif kind == "split":
            B[d - 1] += 2 * n
        elif 2 * d <= max_degree:
            B[2 * d - 1] += n

    tally(1, splitting_type(cover, Place.infinite(F)))
    for d in range(1, max_degree + 1):
        R = make_field(F.p, F.k * d)
        roots = [a for a, size in orbit_representatives(R, F.order) if size == d]
        at_support = {residue_field(place)[1]: place
                      for place in support if place.degree == d}
        split = inert = 0
        for root, a, b in zip(roots, f.num.values_in(roots, R),
                              f.den.values_in(roots, R)):
            if not (a and b):
                tally(d, splitting_type(cover, at_support[root]))
            elif _splits(cover, R, R.mul(a, R.inv(b))):
                split += 1
            else:
                inert += 1
        tally(d, "split", split)
        tally(d, "inert", inert)
    q, n1 = F.order, B[0]
    if (n1 - (q + 1)) ** 2 > 4 * g * g * q:
        raise InvalidCoverError(
            f"N_1 = {n1} violates the Weil bound: constant field extension?")
    return PlaceCensus(tuple(B))
