"""Projective curve models: multivariate evaluation, point enumeration,
Frobenius point degrees, smoothness probing, and exact point counts.

Points are canonical representatives: the leftmost nonzero coordinate is
scaled to 1.  Enumeration order is ascending lexicographic on the
coordinate tuple under the element ordering, which makes witness
tie-breaks deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .gf import GF, FieldError, element_str, embed, make_field, parse_element


class SingularModelError(ValueError):
    """The smoothness probe found singular points on the model."""


@dataclass(frozen=True)
class MultiPoly:
    """Sparse homogeneous-friendly multivariate polynomial."""

    field: GF
    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]  # ((exponents, coeff), ...)

    @staticmethod
    def build(field: GF, nvars: int, term_map: dict[tuple[int, ...], int]) -> "MultiPoly":
        items = []
        for exps, c in term_map.items():
            if len(exps) != nvars:
                raise ValueError("exponent vector length mismatch")
            if c:
                items.append((tuple(exps), c))
        items.sort(reverse=True)
        return MultiPoly(field, nvars, tuple(items))

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=-1)

    @property
    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) <= 1

    def partial(self, var: int) -> "MultiPoly":
        p = self.field.p
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.terms:
            e = exps[var]
            if e % p == 0:
                continue
            new = list(exps)
            new[var] = e - 1
            key = tuple(new)
            prev = out.get(key, 0)
            out[key] = self.field.add(prev, self.field.mul((e % p), c))
        return MultiPoly.build(self.field, self.nvars, out)

    def __call__(self, coords, coord_field: GF | None = None) -> int:
        F = coord_field or self.field
        if len(coords) != self.nvars:
            raise ValueError("coordinate dimension mismatch")
        acc = 0
        for exps, c in self.terms:
            t = embed(c, self.field, F)
            for v, e in enumerate(exps):
                if e:
                    t = F.mul(t, F.pow(coords[v], e))
                    if not t:
                        break
            acc = F.add(acc, t)
        return acc

    def __str__(self):
        return format_multipoly(self)


@dataclass(frozen=True)
class PlaneCurve:
    """One homogeneous polynomial in 3 variables (catalog use: quartics)."""

    poly: MultiPoly

    def __post_init__(self):
        if self.poly.nvars != 3 or not self.poly.is_homogeneous:
            raise ValueError("plane model needs a homogeneous 3-variable polynomial")

    @property
    def field(self):
        return self.poly.field

    @property
    def dim(self):
        return 2

    @property
    def polys(self):
        return (self.poly,)

    @property
    def genus(self) -> int:
        d = self.poly.degree
        return (d - 1) * (d - 2) // 2


@dataclass(frozen=True)
class SpaceCurve:
    """Cubic-and-quadric intersection in P^3 (canonical genus-4 model)."""

    cubic: MultiPoly
    quadric: MultiPoly

    def __post_init__(self):
        for poly, d in ((self.cubic, 3), (self.quadric, 2)):
            if poly.nvars != 4 or not poly.is_homogeneous or poly.degree != d:
                raise ValueError(f"expected a homogeneous degree-{d} form in 4 variables")
        if self.cubic.field is not self.quadric.field:
            raise FieldError("cubic and quadric over different fields")

    @property
    def field(self):
        return self.cubic.field

    @property
    def dim(self):
        return 3

    @property
    def polys(self):
        return (self.quadric, self.cubic)  # cheaper form first for short-circuits

    @property
    def genus(self) -> int:
        # complete intersection of degrees (2,3) in P^3
        return 4


def projective_points(dim: int, field: GF):
    """Every point of P^dim over the field exactly once, normalized, in
    ascending lexicographic coordinate order."""
    q = field.order
    for lead in range(dim, -1, -1):
        free = dim - lead
        prefix = (0,) * lead + (1,)
        if free == 0:
            yield prefix
            continue
        counters = [0] * free
        while True:
            yield prefix + tuple(counters)
            i = free - 1
            while i >= 0:
                counters[i] += 1
                if counters[i] < q:
                    break
                counters[i] = 0
                i -= 1
            if i < 0:
                break


def projective_point_count(dim: int, q: int) -> int:
    return (q ** (dim + 1) - 1) // (q - 1)


def normalize_point(coords, field: GF):
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("the zero vector is not a projective point")
    if lead == 1:
        return tuple(coords)
    s = field.inv(lead)
    return tuple(field.mul(s, c) for c in coords)


def point_degree(coords, field: GF, base: GF) -> int:
    """Size of the Frobenius (x -> x^q_base) orbit of the normalized point."""
    if field.p != base.p or field.k % base.k != 0:
        raise FieldError("point field is not an extension of the base")
    coords = normalize_point(coords, field)
    m = field.k // base.k
    for d in range(1, m + 1):
        if m % d:
            continue
        if all(field.frobenius(c, base.k * d) == c for c in coords):
            return d
    raise AssertionError("orbit size must divide the extension degree")


def frobenius_point(coords, field: GF, base: GF):
    return tuple(field.frobenius(c, base.k) for c in coords)


def _extension(model_field: GF, m: int) -> GF:
    return make_field(model_field.p, model_field.k * m)


def _compiled(poly: MultiPoly, ext: GF):
    return tuple((embed(c, poly.field, ext),
                  tuple((v, e) for v, e in enumerate(exps) if e))
                 for exps, c in poly.terms)


def points_on_model(model, ext: GF):
    """Normalized points of the common zero locus over the given field."""
    compiled = [_compiled(p, ext) for p in model.polys]
    maxdeg = max(p.degree for p in model.polys)
    pw = [[ext.pow(c, e) for e in range(maxdeg + 1)] for c in ext.elements()]
    mul, add = ext.mul, ext.add
    out = []
    for pt in projective_points(model.dim, ext):
        ok = True
        for terms in compiled:
            acc = 0
            for coef, ves in terms:
                t = coef
                for v, e in ves:
                    t = mul(t, pw[pt[v]][e])
                    if not t:
                        break
                acc = add(acc, t)
            if acc:
                ok = False
                break
        if ok:
            out.append(pt)
    return out


@lru_cache(maxsize=None)
def smoothness_probe(model, m_probe: int = 6):
    """Points over GF(q^m), m <= m_probe, where the Jacobian drops rank.

    Empty tuple means the probe passed.  Results are (m, point) pairs.
    """
    if m_probe < 1:
        raise ValueError("probe depth must be >= 1")
    jac = tuple(tuple(p.partial(v) for v in range(p.nvars)) for p in model.polys)
    bad = []
    for m in range(1, m_probe + 1):
        ext = _extension(model.field, m)
        for pt in points_on_model(model, ext):
            rows = [tuple(d(pt, ext) for d in row) for row in jac]
            if _rank_lt_codim(rows, ext, len(model.polys)):
                bad.append((m, pt))
    return tuple(bad)


def _rank_lt_codim(rows, ext: GF, codim: int) -> bool:
    if codim == 1:
        return all(v == 0 for v in rows[0])
    r1, r2 = rows
    n = len(r1)
    for i in range(n):
        for j in range(i + 1, n):
            if ext.sub(ext.mul(r1[i], r2[j]), ext.mul(r1[j], r2[i])):
                return False
    return True


def curve_point_counts(model, m_max: int, probe_depth: int = 6) -> list[int]:
    """N_m for m = 1..m_max by direct enumeration (smooth-probed models only)."""
    bad = smoothness_probe(model, probe_depth)
    if bad:
        raise SingularModelError(
            f"model failed the smoothness probe at {bad[0]} "
            f"({len(bad)} singular point(s) up to depth {probe_depth})")
    return [len(points_on_model(model, _extension(model.field, m)))
            for m in range(1, m_max + 1)]


@lru_cache(maxsize=None)
def min_point_degree(model, d_max: int):
    """(degree, witness, witness field) for the least-degree point with
    degree <= d_max, or None.  The witness is the lexicographically
    smallest normalized point at that degree."""
    base = model.field
    for d in range(1, d_max + 1):
        ext = _extension(base, d)
        for pt in points_on_model(model, ext):
            if point_degree(pt, ext, base) == d:
                return d, pt, ext
    return None


# ---------------------------------------------------------------------------
# text format for multivariate polynomials

def format_multipoly(poly: MultiPoly, varnames: tuple[str, ...] | None = None,
                     symbol: str = "a") -> str:
    names = varnames or tuple(f"x{i + 1}" for i in range(poly.nvars))
    if not poly.terms:
        return "0"
    parts = []
    for exps, c in poly.terms:
        factors = []
        if c != 1 or not any(exps):
            s = element_str(poly.field, c, symbol)
            factors.append(f"({s})" if "+" in s else s)
        for v, e in enumerate(exps):
            if e == 1:
                factors.append(names[v])
            elif e > 1:
                factors.append(f"{names[v]}^{e}")
        parts.append("*".join(factors))
    return "+".join(parts)


def parse_multipoly(s: str, field: GF, varnames: tuple[str, ...],
                    symbol: str = "a") -> MultiPoly:
    """Parse sums of monomials; '*' optional between factors."""
    s = s.replace(" ", "").replace("*", "")
    nvars = len(varnames)
    var_re = "|".join(re.escape(v) for v in sorted(varnames, key=len, reverse=True))
    factor_re = re.compile(rf"({var_re})(?:\^(\d+))?")
    terms: dict[tuple[int, ...], int] = {}
    for part in s.split("+"):
        if not part:
            raise ValueError(f"malformed polynomial {s!r}")
        exps = [0] * nvars
        pos = 0
        coef_src = []
        while pos < len(part):
            m = factor_re.match(part, pos)
            if m:
                v = varnames.index(m.group(1))
                exps[v] += int(m.group(2) or 1)
                pos = m.end()
            else:
                coef_src.append(part[pos])
                pos += 1
        head = "".join(coef_src)
        if head.startswith("(") and head.endswith(")"):
            head = head[1:-1]
        c = parse_element(head, field, symbol) if head else 1
        key = tuple(exps)
        terms[key] = field.add(terms.get(key, 0), c)
    return MultiPoly.build(field, nvars, terms)


def format_point(coords, field: GF, symbol: str = "a") -> str:
    return "(" + ":".join(element_str(field, c, symbol) for c in coords) + ")"


def parse_point(s: str, symbol_fields: dict[str, GF], default_field: GF):
    """Parse '(c1:c2:...)' where coordinates may use generator symbols.

    symbol_fields maps a symbol (e.g. 'a', 'b') to its field; the point
    field is the field of the symbol that occurs, else default_field.
    """
    body = s.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(":")]
    field = default_field
    for sym, fld in symbol_fields.items():
        if any(sym in p for p in parts):
            field = fld
            break
    sym = next((k for k, v in symbol_fields.items() if v is field), "a")
    return tuple(parse_element(p, field, sym) for p in parts), field
