"""Projective curve models: multivariate evaluation, point enumeration,
Frobenius point degrees, smoothness probing, and exact point counts.

Points are canonical representatives: the leftmost nonzero coordinate is
scaled to 1.  Enumeration order is ascending lexicographic on the
coordinate tuple under the element ordering, which makes witness
tie-breaks deterministic.

Points on a model are found fiber by fiber rather than by testing all of
P^n.  Every point other than (0:...:0:1) is a prefix (x_1:...:x_{n-1})
of P^{n-1} followed by a last coordinate z, so for each prefix the form
of least degree in x_n becomes a polynomial in z.  When that degree is at
most 2 (the quadric of a space curve, or a plane form like a conic) its
roots come in closed form from a value-to-roots table of the extension
field: z^2 + z = v and square roots in characteristic 2, the completed
square in characteristic 3, with a vanishing leading coefficient handled
explicitly.  Otherwise (plane quartics) z is scanned.  The remaining forms
are checked at the roots only.

Only one prefix per Frobenius orbit is solved.  The model is defined over
GF(q), so x -> x^q fixes its embedded coefficients and maps the points
over a prefix onto the points over its conjugate prefix.  The walk keeps
a prefix only when it is the smallest member of its orbit (applying x^q
coordinatewise from it meets no smaller prefix before returning), solves
its fiber, and adds the conjugate points by the same map.  The list is
then sorted: normalized tuples in ascending order are exactly
``projective_points`` order, (0:...:0:1) first, so witnesses and reports
do not depend on the walk.  The power and x^q tables are built once per
extension field and shared by every model.

The point list is computed once per (model, extension field) and shared
by ``smoothness_probe``, ``curve_point_counts`` and ``min_point_degree``;
``points_on_model`` hands each caller its own copy.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .gf import (MAX_K, GF, FieldError, element_str, embed, make_field,
                 parse_element)
from .records import record


class SingularModelError(ValueError):
    """The smoothness probe found singular points on the model."""


class MultiPoly(record("MultiPoly", "field nvars terms")):
    """Sparse homogeneous-friendly multivariate polynomial; ``terms`` is
    ((exponents, coeff), ...)."""

    __slots__ = ()

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


class _ProjectiveCurve:
    """What plane and space curves share: point counts by enumeration."""

    __slots__ = ()

    @property
    def cross_check_depth(self) -> int:
        return min(2 * self.genus, 6)

    def counts(self, n: int, probe_depth: int = 6) -> list[int]:
        return curve_point_counts(self, n, probe_depth)

    def enumeration_size(self, n: int, probe_depth: int = 6) -> int:
        """Candidates of the largest enumeration ``counts(n, probe_depth)``
        starts: the prefixes of P^{dim-1}, times the field order when the
        fiber is scanned rather than solved (degree > 2 in the last
        variable).  Fields beyond GF(p^MAX_K) stop the run before that."""
        m = min(max(n, probe_depth), MAX_K // self.field.k)
        order = self.field.order ** m
        prefixes = projective_point_count(self.dim - 1, order)
        fiber = min(max((e[-1] for e, _ in f.terms), default=0) for f in self.polys)
        return prefixes if fiber <= 2 else prefixes * order


class PlaneCurve(_ProjectiveCurve, record("PlaneCurve", "poly")):
    """One homogeneous polynomial in 3 variables (catalog use: quartics)."""

    __slots__ = ()

    def __new__(cls, poly: MultiPoly):
        if poly.nvars != 3 or not poly.is_homogeneous:
            raise ValueError("plane model needs a homogeneous 3-variable polynomial")
        return super().__new__(cls, poly)

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


class SpaceCurve(_ProjectiveCurve, record("SpaceCurve", "cubic quadric")):
    """Cubic-and-quadric intersection in P^3 (canonical genus-4 model)."""

    __slots__ = ()

    def __new__(cls, cubic: MultiPoly, quadric: MultiPoly):
        for poly, d in ((cubic, 3), (quadric, 2)):
            if poly.nvars != 4 or not poly.is_homogeneous or poly.degree != d:
                raise ValueError(f"expected a homogeneous degree-{d} form in 4 variables")
        if cubic.field is not quadric.field:
            raise FieldError("cubic and quadric over different fields")
        return super().__new__(cls, cubic, quadric)

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


def _extension(model_field: GF, m: int) -> GF:
    return make_field(model_field.p, model_field.k * m)


def _fibered(poly: MultiPoly, ext: GF):
    """The form as a polynomial in its last variable: entry e holds the
    terms (coefficient in ext, ((variable, exponent), ...)) of the
    coefficient of x_n^e, a form in the other variables."""
    last = poly.nvars - 1
    fib = [[] for _ in range(max((e[last] for e, _ in poly.terms), default=0) + 1)]
    for exps, c in poly.terms:
        fib[exps[last]].append((embed(c, poly.field, ext),
                                tuple((v, e) for v, e in enumerate(exps[:last]) if e)))
    return fib


@lru_cache(maxsize=None)
def _quadratic_solver(ext: GF):
    """solve(c, b, a): the roots of a*z^2 + b*z + c in ext, ascending, or
    None when the polynomial is zero and every z is a root.  Built from
    one value-to-roots table over ext."""
    mul, inv, order = ext.mul, ext.inv, ext.order
    roots_of = [[] for _ in range(order)]
    if ext.p == 2:
        # w^2 + w = v has two roots w, w + 1 or none; sqrt is a bijection
        sqrt = [0] * order
        for w in ext.elements():
            sq = mul(w, w)
            sqrt[sq] = w
            roots_of[sq ^ w].append(w)

        def solve(c, b, a):
            if not a:
                if not b:
                    return None if not c else []
                return [mul(c, inv(b))]
            if not b:
                return [sqrt[mul(c, inv(a))]]
            # z = (b/a) w turns the equation into w^2 + w = ac/b^2
            s = mul(b, inv(a))
            return sorted(mul(s, w) for w in roots_of[mul(mul(a, c), inv(mul(b, b)))])
    else:
        for s in ext.elements():
            roots_of[mul(s, s)].append(s)
        sub = ext.sub

        def solve(c, b, a):
            if not a:
                if not b:
                    return None if not c else []
                return [ext.neg(mul(c, inv(b)))]
            # p = 3: 2a = -a and 4 = 1, so z = (b -+ sqrt(b^2 - ac)) / a
            ia = inv(a)
            return sorted({mul(sub(b, s), ia)
                           for s in roots_of[sub(mul(b, b), mul(a, c))]})
    return solve


@lru_cache(maxsize=None)
def _power_table(ext: GF, maxdeg: int) -> tuple:
    """pw[c][e] = c^e for every element c of ext and 0 <= e <= maxdeg."""
    return tuple(tuple(ext.pow(c, e) for e in range(maxdeg + 1))
                 for c in ext.elements())


@lru_cache(maxsize=None)
def _frobenius_table(ext: GF, q: int) -> tuple:
    """frob[c] = c^q for every element c of ext."""
    return tuple(ext.pow(c, q) for c in ext.elements())


@lru_cache(maxsize=None)
def _model_points(model, ext: GF) -> tuple:
    n = model.dim
    fibs = [_fibered(p, ext) for p in model.polys]
    # solve the form of least degree in x_n, check the others at its roots
    key = min(range(len(fibs)), key=lambda i: len(fibs[i]))
    fib, others = fibs[key], fibs[:key] + fibs[key + 1:]
    solve = None
    if len(fib) <= 3:
        fib = fib + [[]] * (3 - len(fib))  # coefficients c, b, a
        solve = _quadratic_solver(ext)
    pw = _power_table(ext, max(p.degree for p in model.polys))
    # x -> x^q fixes the embedded coefficients, so it permutes the fibers
    frob = _frobenius_table(ext, model.field.order)
    mul, add = ext.mul, ext.add
    line = ext.elements()

    def coeffs(f, prefix):
        out = []
        for terms in f:
            acc = 0
            for coef, ves in terms:
                t = coef
                for v, e in ves:
                    t = mul(t, pw[prefix[v]][e])
                    if not t:
                        break
                acc = add(acc, t)
            out.append(acc)
        return out

    def value(cs, z):
        acc = 0
        for c in reversed(cs):
            acc = add(mul(acc, z), c)
        return acc

    origin = (0,) * n
    out = []
    if all(not value(coeffs(f, origin), 1) for f in fibs):
        out.append(origin + (1,))
    for prefix in projective_points(n - 1, ext):
        # solve only the smallest prefix of each Frobenius orbit
        orbit = [prefix]
        c = tuple([frob[x] for x in prefix])
        while c > prefix:
            orbit.append(c)
            c = tuple([frob[x] for x in c])
        if c < prefix:
            continue
        cs = coeffs(fib, prefix)
        if solve is not None:
            roots = solve(*cs)
            if roots is None:
                roots = line
        else:
            roots = [z for z in line if not value(cs, z)]
        if not roots:
            continue
        rest = [coeffs(f, prefix) for f in others]
        zs = [z for z in roots if all(not value(r, z) for r in rest)]
        # the fiber over a conjugate prefix holds the conjugate roots
        for conj in orbit:
            out.extend(conj + (z,) for z in zs)
            zs = [frob[z] for z in zs]
    # normalized tuples sort in projective_points order
    out.sort()
    return tuple(out)


def points_on_model(model, ext: GF) -> list:
    """Normalized points of the common zero locus over the given field,
    in projective_points order.  Each call returns a fresh list; the
    enumeration itself runs once per (model, field)."""
    return list(_model_points(model, ext))


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
    text, s = s, s.replace(" ", "").replace("*", "")
    nvars = len(varnames)
    var_re = "|".join(re.escape(v) for v in sorted(varnames, key=len, reverse=True))
    factor_re = re.compile(rf"({var_re})(?:\^(\d+))?")
    terms: dict[tuple[int, ...], int] = {}
    for part in s.split("+"):
        if not part:
            raise ValueError(f"empty term in polynomial {text!r}")
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
        try:
            c = parse_element(head, field, symbol) if head else 1
        except ValueError as exc:
            raise ValueError(f"bad term {part!r} in polynomial {text!r}: {exc}") from None
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
