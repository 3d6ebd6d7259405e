"""Projective curve models: multivariate evaluation, point enumeration,
Frobenius point degrees, smoothness probing, and exact point counts.

``ProjectiveCurve`` is the one model whose points are enumerated: n - 2
homogeneous forms in n variables over one field (a plane quartic, or the
quadric and cubic of a genus-4 curve in P^3), with the genus of a smooth
complete intersection, 2g - 2 = (prod d_i)(sum d_i - n).  The walk below
takes the forms alone, so a surface such as table64's cubic is walked as
the one form it is.

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
over a prefix onto the points over its conjugate prefix.  The least prefix
of each orbit is walked directly, not found among all prefixes.  A prefix
is a head (all its coordinates but the last, y) followed by y; it is
least in its orbit iff its head is least in its own orbit, of size s, and
y is least among its conjugates under the head's stabiliser x -> x^(q^s)
(``gf.orbit_representatives``, which also gives the orbit sizes).  Each
head is put into each fibered form once, leaving polynomials in y; one
``GF.values`` call per polynomial gives the form's coefficients in z at
every y of the head.  The solved form's roots are checked against the
other forms by ``GF.values`` too, and the points over the conjugate
prefixes come from the x^q table (``gf.frobenius_table``).

The walk is computed once per (forms, extension field) and keeps each
point over a least prefix with the size of the prefix's orbit.
``points_on_model`` expands those into their conjugates and sorts them
in ascending lexicographic order of normalized tuples, (0:...:0:1)
first, so witnesses and reports do not depend on the walk.
``curve_point_counts`` and ``min_point_degree`` read that list.
``min_point_degree`` computes no point's degree: the first GF(q^d),
d = 1, 2, ..., with any point holds only points of degree d, so its
first point is the witness.

The smoothness probe needs no expansion: the partial derivatives have
coefficients in GF(q), so the Jacobian drops rank at a point iff it does
at the point's conjugates.  It evaluates them once per point of the walk,
from their terms embedded in the extension field once per field, with
``GF.evaluate``, and expands only the singular points.

Forms are read from text by ``parse_multipoly`` and written by
``format_multipoly``, wrappers over the one polynomial reader and writer,
``polyring.read_terms`` and ``polyring.format_terms``.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod

from .gf import (FIELD_MAX, GF, FieldError, embed, extension_order,
                 frobenius_table, make_field, orbit_representatives)
from .polyring import format_terms, read_terms
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


class ProjectiveCurve(record("ProjectiveCurve", "polys")):
    """The curve in P^(n-1) cut out by n - 2 homogeneous forms in n
    variables over one field, kept sorted by degree (then by terms), so a
    quadric comes before a cubic and the same forms in any order give one
    model.  Its genus is the adjunction formula's for a smooth complete
    intersection: 2g - 2 = (prod d_i)(sum d_i - n)."""

    __slots__ = ()

    def __new__(cls, polys):
        polys = tuple(sorted(polys, key=lambda f: (f.degree, f.terms)))
        n = len(polys) + 2
        if not polys or any(f.nvars != n or not f.is_homogeneous or f.degree < 1
                            for f in polys):
            raise ValueError("a curve in P^(n-1) needs n - 2 homogeneous forms of "
                             "positive degree in n variables")
        if any(f.field is not polys[0].field for f in polys):
            raise FieldError("forms over different fields")
        return super().__new__(cls, polys)

    @property
    def field(self) -> GF:
        return self.polys[0].field

    @property
    def dim(self) -> int:
        return len(self.polys) + 1

    @property
    def genus(self) -> int:
        degrees = [f.degree for f in self.polys]
        return prod(degrees) * (sum(degrees) - self.dim - 1) // 2 + 1

    @property
    def cross_check_depth(self) -> int:
        return min(2 * self.genus, 6)

    def counts(self, n: int) -> list[int]:
        return curve_point_counts(self, n)

    def enumeration_size(self, n: int) -> int:
        """Candidates of the largest enumeration ``counts(n)`` starts, the
        ``walk_size`` of its deepest field, the probe's included."""
        return walk_size(self.polys, max(n, PROBE_DEPTH))


def projective_point_count(dim: int, q: int) -> int:
    return (q ** (dim + 1) - 1) // (q - 1)


# The largest walk a run may start (``walk_size``); a run beyond it is
# refused before the walk.  It is the largest field order, so a cover's
# walk of GF(q^m) fits exactly when make_field builds GF(q^m).  It admits
# curves to GF(2^8) and covers to GF(2^17), GF(3^10) and GF(4^8); the
# slowest of these, ``places --curve i`` and ``--curve iii`` at
# ``--max-place-degree 17``, take about 0.4 s each on a 2-core VM.
ENUMERATION_BUDGET = FIELD_MAX

# The smoothness probe before every point count walks GF(q^m), m <= PROBE_DEPTH.
PROBE_DEPTH = 6


def walk_size(polys, m: int) -> int:
    """Candidates the walk of the forms in n variables over GF(q^m)
    tries: the prefixes of P^(n-2), times the field order when the fiber
    is scanned rather than solved (degree > 2 in the last variable).
    Past the field limit, m is capped as ``extension_order`` says."""
    order = extension_order(polys[0].field, m)
    prefixes = projective_point_count(polys[0].nvars - 2, order)
    fiber = min(max((e[-1] for e, _ in f.terms), default=0) for f in polys)
    return prefixes if fiber <= 2 else prefixes * order


class BudgetError(ValueError):
    """A walk would enumerate more candidates than ENUMERATION_BUDGET."""


def check_budget(size: int):
    """Refuse a walk of ``size`` candidates beyond ENUMERATION_BUDGET."""
    if size > ENUMERATION_BUDGET:
        raise BudgetError(f"the run would enumerate {size} candidates in one "
                         f"field, beyond the budget of {ENUMERATION_BUDGET}")


def normalize_point(coords, field: GF):
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("the zero vector is not a projective point")
    if lead == 1:
        return tuple(coords)
    s = field.inv(lead)
    return tuple(field.mul(s, c) for c in coords)


def point_degree(coords, field: GF, base: GF) -> int:
    """Size of the Frobenius (x -> x^q_base) orbit of the normalized point:
    the lcm of the orbit sizes of its coordinates."""
    if field.p != base.p or field.k % base.k != 0:
        raise FieldError("point field is not an extension of the base")
    frob = frobenius_table(field, base.order)
    degree = 1
    for c in normalize_point(coords, field):
        x, size = frob[c], 1
        while x != c:
            x, size = frob[x], size + 1
        degree = lcm(degree, size)
    return degree


def _extension(model_field: GF, m: int) -> GF:
    return make_field(model_field.p, model_field.k * m)


def _fibered(poly: MultiPoly, ext: GF):
    """The form as a polynomial in its last variable z: entry e holds the
    terms (coefficient in ext, ((head variable, exponent), ...), exponent
    of y) of the coefficient of z^e, a form in the head variables and y,
    the variable before z."""
    y = poly.nvars - 2
    fib = [[] for _ in range(max((e[-1] for e, _ in poly.terms), default=0) + 1)]
    for exps, c in poly.terms:
        fib[exps[-1]].append((embed(c, poly.field, ext),
                              tuple((v, e) for v, e in enumerate(exps[:y]) if e),
                              exps[y]))
    return fib


def _restrict(fib, head, ext: GF):
    """The coefficients of z^e of a fibered form at the prefixes
    (head : y), as polynomials in y, little-endian."""
    mul, pow_ = ext.mul, ext.pow
    lines = []
    for terms in fib:
        line = []
        for coef, ves, ey in terms:
            for v, e in ves:
                coef = mul(coef, pow_(head[v], e))
            if coef:
                line.extend([0] * (ey + 1 - len(line)))
                line[ey] = ext.add(line[ey], coef)
        lines.append(line)
    return lines


def _representatives(dim: int, ext: GF, q: int) -> list:
    """(point, orbit size) for the least point of every orbit of x -> x^q
    on P^dim over ext.  A point other than (0:...:0:1) is a head in
    P^(dim-1) followed by y; it is least in its orbit iff its head is,
    with orbit size s, and y is least under the head's stabiliser
    x -> x^(q^s), with orbit size t.  The point's orbit size is s*t."""
    if dim == 0:
        return [((1,), 1)]
    out = [((0,) * dim + (1,), 1)]
    for head, s in _representatives(dim - 1, ext, q):
        out.extend((head + (y,), s * t) for y, t in orbit_representatives(ext, q ** s))
    return out


@lru_cache(maxsize=None)
def _quadratic_solver(ext: GF):
    """solve(c, b, a): the roots of a*z^2 + b*z + c in ext, or
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
            return [mul(s, w) for w in roots_of[mul(mul(a, c), inv(mul(b, b)))]]
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
            return list({mul(sub(b, s), ia) for s in roots_of[sub(mul(b, b), mul(a, c))]})
    return solve


@lru_cache(maxsize=None)
def _model_points(polys, ext: GF) -> tuple:
    """(point, n) for every common zero of the forms over the least
    prefix of each orbit of prefixes, n the size of that prefix orbit:
    the point and its first n - 1 images under x -> x^q are the points
    over the whole orbit."""
    n, q = polys[0].nvars - 1, polys[0].field.order
    fibs = [_fibered(p, ext) for p in polys]
    # solve the form of least degree in z, check the others at its roots
    key = min(range(len(fibs)), key=lambda i: len(fibs[i]))
    solve = None
    if len(fibs[key]) <= 3:
        fibs[key] += [[]] * (3 - len(fibs[key]))  # coefficients c, b, a
        solve = _quadratic_solver(ext)
    values, line = ext.values, ext.elements()
    # a form vanishes at (0:...:0:1) iff it has no z^d term
    on_origin = all(all(any(e[:-1]) for e, _ in p.terms) for p in polys)
    out = [((0,) * n + (1,), 1)] if on_origin else []
    # heads in P^(n-2) and the zero head, whose only prefix is (0:...:0:1)
    heads = [((0,) * (n - 1), 1, ((1, 1),))]
    heads += [(head, s, orbit_representatives(ext, q ** s))
              for head, s in _representatives(n - 2, ext, q)]
    for head, s, reps in heads:
        # every form's coefficients in z, at every y over the head
        ys = [y for y, _ in reps]
        cols = [list(zip(*[values(c, ys) for c in _restrict(f, head, ext)]))
                for f in fibs]
        main, others = cols[key], cols[:key] + cols[key + 1:]
        for i, (y, t) in enumerate(reps):
            if solve is not None:
                roots = solve(*main[i])
                if roots is None:
                    roots = line
            else:
                roots = [z for z, v in zip(line, values(main[i], line)) if not v]
            for f in others:
                if roots:
                    roots = [z for z, v in zip(roots, values(f[i], roots)) if not v]
            out.extend((head + (y, z), s * t) for z in roots)
    return tuple(out)


def _conjugates(point, n: int, frob) -> list:
    """The point and its images under the first n - 1 powers of x -> x^q."""
    out = [point]
    for _ in range(n - 1):
        point = tuple([frob[x] for x in point])
        out.append(point)
    return out


def points_on_model(model, ext: GF) -> list:
    """Normalized points of the common zero locus over the given field,
    in ascending lexicographic order of normalized tuples.  Each call
    returns a fresh list; the orbit walk itself runs once per (model,
    field)."""
    # the fiber over a conjugate prefix holds the conjugate points
    frob = frobenius_table(ext, model.field.order)
    out = [c for point, n in _model_points(model.polys, ext)
           for c in _conjugates(point, n, frob)]
    out.sort()
    return out


def _embedded_terms(poly: MultiPoly, ext: GF) -> tuple:
    """The terms of the form as (coefficient in ext, factors), as
    ``GF.evaluate`` takes them: the factors list variable v once per unit
    of its exponent."""
    return tuple((embed(c, poly.field, ext),
                  tuple(v for v, e in enumerate(exps) for _ in range(e)))
                 for exps, c in poly.terms)


@lru_cache(maxsize=None)
def smoothness_probe(model, m_probe: int = PROBE_DEPTH):
    """Points over GF(q^m), m <= m_probe, where the Jacobian drops rank.

    Empty tuple means the probe passed.  Results are (m, point) pairs,
    in ascending lexicographic order of normalized tuples for each m.
    The partial derivatives are taken once, embedded in each GF(q^m)
    once and evaluated at one point per orbit of the walk
    (``_model_points``): they are defined over GF(q), so a point is
    singular iff its conjugates are, and only the singular points are
    expanded into their conjugates.  A point is singular where the
    Jacobian, one gradient row per form, has rank (``GF.rank``) below
    the number of forms.
    """
    if m_probe < 1:
        raise ValueError("probe depth must be >= 1")
    partials = [[p.partial(v) for v in range(p.nvars)] for p in model.polys]
    bad = []
    for m in range(1, m_probe + 1):
        ext = _extension(model.field, m)
        jac = [[_embedded_terms(d, ext) for d in row] for row in partials]
        frob = frobenius_table(ext, model.field.order)
        singular = []
        for pt, n in _model_points(model.polys, ext):
            rows = [[ext.evaluate(d, pt) for d in row] for row in jac]
            if ext.rank(rows) < len(rows):
                singular += _conjugates(pt, n, frob)
        bad += [(m, pt) for pt in sorted(singular)]
    return tuple(bad)


def curve_point_counts(model, m_max: int) -> list[int]:
    """N_m for m = 1..m_max by direct enumeration (smooth-probed models only)."""
    bad = smoothness_probe(model)
    if bad:
        raise SingularModelError(
            f"model failed the smoothness probe at {bad[0]} "
            f"({len(bad)} singular point(s) up to depth {PROBE_DEPTH})")
    return [len(points_on_model(model, _extension(model.field, m)))
            for m in range(1, m_max + 1)]


@lru_cache(maxsize=None)
def min_point_degree(model, max_degree: int):
    """(degree, witness, witness field) for the least-degree point with
    degree <= max_degree, or None.  The witness is the lexicographically
    smallest normalized point at that degree.

    The fields are walked for d = 1, 2, ... in turn, so the first with
    any point holds no point of degree below d, and every point of
    GF(q^d) has degree dividing d: all of its points have degree d, and
    the witness is the first."""
    for d in range(1, max_degree + 1):
        ext = _extension(model.field, d)
        points = points_on_model(model, ext)
        if points:
            return d, points[0], ext
    return None


# ---------------------------------------------------------------------------
# text format for multivariate polynomials

def format_multipoly(poly: MultiPoly) -> str:
    """The form's text in x1..xn (``polyring.format_terms``)."""
    return format_terms(poly.field, poly.terms,
                        [f"x{i + 1}" for i in range(poly.nvars)], "*")


def parse_multipoly(s: str, field: GF, varnames: tuple[str, ...]) -> MultiPoly:
    """The form in ``varnames`` that the text describes (``polyring.read_terms``)."""
    return MultiPoly.build(field, len(varnames), read_terms(s, field, varnames))
