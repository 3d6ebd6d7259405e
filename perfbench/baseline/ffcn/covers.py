"""Degree-2 covers of the rational function field: Artin-Schreier
(y^2 + y = f, characteristic 2) and Kummer (y^2 = f, characteristic 3).

Everything is computed place by place over the base field: ramification
data from the valuations of f, genus from the Hurwitz formula, and the
place-degree census from the split/inert/ramified trichotomy (absolute
trace for Artin-Schreier, quadratic character for Kummer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .gf import GF
from .polyring import (Place, RationalFunction, monic_irreducibles,
                       place_valuation, places_of_degree, residue,
                       unit_residue)
from .zeta import PlaceCensus, census_to_counts  # noqa: F401  (re-export)


class CoverKind(enum.Enum):
    ARTIN_SCHREIER = "artin_schreier"
    KUMMER = "kummer"


class InvalidCoverError(ValueError):
    """The cover is not in the standard form this module handles."""


@dataclass(frozen=True)
class CoverModel:
    kind: CoverKind
    f: RationalFunction

    def __post_init__(self):
        p = self.f.field.p
        if self.kind is CoverKind.ARTIN_SCHREIER and p != 2:
            raise InvalidCoverError("Artin-Schreier covers need characteristic 2")
        if self.kind is CoverKind.KUMMER and p == 2:
            raise InvalidCoverError("Kummer covers need odd characteristic")

    @property
    def field(self) -> GF:
        return self.f.field

    @property
    def degree(self) -> int:
        return 2


@dataclass(frozen=True)
class RamificationDatum:
    place: Place
    ramification_index: int
    different_exponent: int
    degree: int


def support_places(f: RationalFunction) -> list[tuple[Place, int]]:
    """(place, valuation) at every place where f has nonzero valuation.

    Finite support is found by trial division against the monic
    irreducibles up to the degree of numerator/denominator; the infinite
    place is appended when its valuation is nonzero.
    """
    F = f.field
    out = []
    max_d = max(f.num.degree, f.den.degree)
    for d in range(1, max_d + 1):
        for u in monic_irreducibles(F, d):
            place = Place(F, u, _checked=True)
            v = place_valuation(f, place)
            if v:
                out.append((place, v))
    v_inf = f.den.degree - f.num.degree
    if v_inf:
        out.append((Place.infinite(F), v_inf))
    return out


def _is_ramified(cover: CoverModel, v: int) -> bool:
    if cover.kind is CoverKind.ARTIN_SCHREIER:
        return v < 0
    return v % 2 != 0


def validate_standard_form(cover: CoverModel) -> list[str]:
    """Diagnostics; empty list means the cover is acceptable."""
    problems = []
    if cover.f.is_zero:
        return ["right-hand side is identically zero"]
    support = support_places(cover.f)
    if cover.kind is CoverKind.ARTIN_SCHREIER:
        poles = [(pl, v) for pl, v in support if v < 0]
        if not poles:
            problems.append("no poles: the extension is constant or inseparable-like")
        for pl, v in poles:
            if (-v) % 2 == 0:
                problems.append(f"even pole order {-v} at {pl}: not in standard form")
    else:
        odd = [pl for pl, v in support if v % 2]
        if not odd:
            problems.append("f is a square times a constant: no ramification")
        for pl, v in support:
            if not -3 <= v <= 3:
                problems.append(f"valuation {v} at {pl} outside the handled range")
    return problems


def ramification_data(cover: CoverModel) -> tuple[RamificationDatum, ...]:
    """One datum per ramified place.

    Artin-Schreier: e = 2 at each pole, d_P = (p-1)(m_P+1) with m_P the
    pole order.  Kummer degree 2: e = 2 and d_P = 1 (tame equality case
    of Dedekind's different theorem) at each odd-valuation place.
    """
    problems = validate_standard_form(cover)
    if problems:
        raise InvalidCoverError("; ".join(problems))
    p = cover.field.p
    data = []
    for place, v in support_places(cover.f):
        if not _is_ramified(cover, v):
            continue
        if cover.kind is CoverKind.ARTIN_SCHREIER:
            d_exp = (p - 1) * (-v + 1)
        else:
            d_exp = 1
        data.append(RamificationDatum(place, 2, d_exp, place.degree))
    data.sort(key=lambda r: (r.place.is_infinite, r.degree,
                             r.place.poly.coeffs if r.place.poly else ()))
    return tuple(data)


def cover_genus(cover: CoverModel) -> int:
    """Hurwitz genus formula with rational base: 2g - 2 = -4 + deg Diff."""
    diff_degree = sum(r.different_exponent * r.degree
                      for r in ramification_data(cover))
    two_g = diff_degree - 2
    if two_g % 2 or two_g < 0:
        raise InvalidCoverError(f"Hurwitz formula gives non-genus 2g = {two_g}")
    return two_g // 2


def splitting_type(cover: CoverModel, place: Place) -> str:
    """'ramified', 'split', or 'inert' (each satisfies sum e*f = 2)."""
    v = place_valuation(cover.f, place)
    if _is_ramified(cover, v):
        return "ramified"
    if cover.kind is CoverKind.ARTIN_SCHREIER:
        c = residue(cover.f, place) if v >= 0 else None
        R = _residue_ring(place)
        return "split" if R.trace(c) == 0 else "inert"
    c = unit_residue(cover.f, place)
    R = _residue_ring(place)
    return "split" if R.quadratic_character(c) == 1 else "inert"


def _residue_ring(place: Place) -> GF:
    from .polyring import residue_field
    return residue_field(place)[0]


def place_census(cover: CoverModel, d_max: int) -> PlaceCensus:
    """B_d for the cover, d = 1..d_max.

    Ramified base places give one place of the same degree; split give
    two; inert give one of twice the degree (recorded when 2d <= d_max).
    Base places are scanned through degree d_max so that every cover
    place of degree <= d_max is seen.
    """
    if d_max < 1:
        raise ValueError("census degree bound must be >= 1")
    problems = validate_standard_form(cover)
    if problems:
        raise InvalidCoverError("; ".join(problems))
    B = [0] * d_max
    for d in range(1, d_max + 1):
        for place in places_of_degree(cover.field, d):
            kind = splitting_type(cover, place)
            if kind == "ramified":
                B[d - 1] += 1
            elif kind == "split":
                B[d - 1] += 2
            elif 2 * d <= d_max:
                B[2 * d - 1] += 1
    census = PlaceCensus(tuple(B))
    _check_constant_field(cover, census)
    return census


def _check_constant_field(cover: CoverModel, census: PlaceCensus):
    # A cover that secretly extends the constant field splits every place
    # and blows through the Weil bound at degree 1.
    q = cover.field.order
    g = cover_genus(cover)
    n1 = census.b(1)
    if (n1 - (q + 1)) ** 2 > 4 * g * g * q:
        raise InvalidCoverError(
            f"N_1 = {n1} violates the Weil bound: constant field extension?")
