"""Univariate polynomials over a finite field, places of F_q(x), and
Moebius machinery (both the number-theoretic mu and fractional-linear
transport of places).

Places are Frobenius orbits: the places of degree d are the orbits
{a^(q^i)} of the elements a of exact degree d in GF(q^d), the place
polynomial is the product of (x - a^(q^i)), and the canonical residue
root is min(orbit).  ``monic_irreducibles``, one cached walk over the
least members of the orbits of x -> x^q on GF(q^d)
(``gf.orbit_representatives``), yields every place of degree d together
with its root, and the x^q table gives the rest of each orbit (Lidl &
Niederreiter, Finite Fields, ch. 2-3).  No place is proved irreducible
again; ``is_irreducible`` (Berlekamp's criterion) checks the walk
independently.

Polynomial text has one grammar, read by ``read_terms`` and written by
``format_terms``: terms joined by ``+`` and ``-``, each an optional
coefficient, in the modulus root ``a`` and parenthesised when a sum,
then only factors ``v`` or ``v^n`` (``x^3+a``, ``(a+1)x^2``,
``2x1x2^2``); spaces and ``*`` are ignored.
An element of GF(p^k) is text in the same grammar: a decimal integer in
the prime field, else its base-p digits as a polynomial in the modulus
root over GF(p) (``element_str``, ``parse_element``).  Parsing is exact
and serialization round-trips.
"""

from __future__ import annotations

import re
from functools import lru_cache
from types import MappingProxyType

from .gf import (GF, FieldError, _digits, embedding, frobenius_table, make_field,
                 orbit_representatives)


class PoleError(ValueError):
    """Evaluation was requested at a pole of the function."""


class TermError(ValueError):
    """A term that does not read, named once with its text; ``reason`` says why."""

    def __init__(self, term: str, text: str, reason):
        super().__init__(f"bad term {term!r} in polynomial {text!r}: {reason}")
        self.reason = reason


class Poly:
    """Univariate polynomial; coefficients little-endian, trailing zeros trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other):
        if self.field is not other.field:
            raise FieldError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        mul, add = F.mul, F.add
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return Poly(F, out)

    def scale(self, c: int):
        F = self.field
        return Poly(F, [F.mul(c, v) for v in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        F = self.field
        rem = list(self.coeffs)
        d = other.degree
        inv_lead = F.inv(other.coeffs[-1])
        quot = [0] * max(len(rem) - d, 0)
        low = other.coeffs[:d]  # the leading term cancels rem[i] exactly
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                f = F.mul(c, inv_lead)
                quot[i - d] = f
                for j, y in enumerate(low, i - d):
                    if y:
                        rem[j] = F.sub(rem[j], F.mul(f, y))
        return Poly(F, quot), Poly(F, rem[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        r = Poly.one(self.field)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def eval_in(self, x: int, ext: GF) -> int:
        """Evaluate at a point of an extension field (coefficients embedded)."""
        image = embedding(self.field, ext)
        return ext.horner([image[c] for c in self.coeffs], x)

    def values_in(self, xs, ext: GF) -> list[int]:
        """Evaluate at each of the points xs of an extension field."""
        image = embedding(self.field, ext)
        return ext.values([image[c] for c in self.coeffs], xs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"Poly({self.field!r}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def is_irreducible(f: Poly) -> bool:
    """True iff f is irreducible over its base field.

    Berlekamp's criterion (Berlekamp 1967; Lidl & Niederreiter, Finite
    Fields, ch. 4): f of degree d >= 2 is irreducible iff gcd(f, f') = 1
    and Q - I has rank d - 1 (``GF.rank``).  Q is the matrix of the
    GF(q)-linear map r -> r^q on GF(q)[x]/(f), whose column i is x^(iq);
    its fixed points are the r with f | r^q - r, and for square-free f
    they are a space of dimension the number of irreducible factors.
    """
    d = f.degree
    if d < 1:
        raise ValueError("irreducibility is undefined for constants")
    if d == 1:
        return True
    F = f.field
    derivative = Poly(F, [F.mul(i % F.p, c) for i, c in enumerate(f.coeffs)][1:])
    if poly_gcd(f, derivative).degree > 0:  # a repeated factor, or f' = 0
        return False
    # the columns of Q - I as rows: a transpose has the same rank
    rows = [[F.sub(v, int(i == j)) for i, v in enumerate(col)]
            for j, col in enumerate(_q_power_matrix(f))]
    return F.rank(rows) == d - 1


def _q_power_matrix(f: Poly) -> list[list[int]]:
    """The columns x^(iq) mod f, i = 0..d-1, of length d = deg f."""
    F, d = f.field, f.degree
    xq = Poly.x(F)
    for _ in range(F.k):  # q = p^k
        xq = xq ** F.p % f
    cols = [Poly.one(F)]
    while len(cols) < d:
        cols.append(cols[-1] * xq % f)
    return [list(c.coeffs) + [0] * (d - len(c.coeffs)) for c in cols]


@lru_cache(maxsize=None)
def monic_irreducibles(field: GF, d: int) -> MappingProxyType:
    """{place polynomial: canonical root} for every monic irreducible of
    degree exactly d, ascending in the element ordering of coefficient
    vectors, as a read-only mapping; ``make_field`` refuses d < 1.  The
    roots are the least members of the orbits of x -> x^q on GF(q^d) of
    size d; each place polynomial is the product of (x - r) over the
    orbit of its root."""
    R = make_field(field.p, field.k * d)
    preimage = {v: a for a, v in enumerate(embedding(field, R))}
    q = field.order
    frob = frobenius_table(R, q)
    found = []
    for alpha, size in orbit_representatives(R, q):
        if size < d:  # of lower degree
            continue
        orbit = [alpha]
        for _ in range(d - 1):
            orbit.append(frob[orbit[-1]])
        found.append((Poly(field, [preimage[c] for c in R.from_roots(orbit)]), alpha))
    found.sort(key=lambda item: item[0].coeffs[::-1])
    return MappingProxyType(dict(found))


def moebius_mu(n: int) -> int:
    if n < 1:
        raise ValueError("mu is defined for positive integers")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over GF(q) (Moebius formula)."""
    total = sum(moebius_mu(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    if total % d:
        raise ArithmeticError(f"Moebius sum {total} is not divisible by {d}")
    return total // d


class Place:
    """A place of F_q(x): a monic irreducible polynomial or the infinite place."""

    __slots__ = ("field", "poly")

    def __init__(self, field: GF, poly: Poly | None = None):
        if poly is not None:
            if poly.field is not field:
                raise FieldError("place polynomial over the wrong field")
            if not poly.is_monic:
                raise ValueError("place polynomial must be monic")
        self.field = field
        self.poly = poly

    @classmethod
    def infinite(cls, field: GF):
        return cls(field, None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def __eq__(self, other):
        return (isinstance(other, Place) and self.field is other.field
                and self.poly == other.poly)

    def __hash__(self):
        return hash((id(self.field), self.poly))

    def __repr__(self):
        body = "infinity" if self.poly is None else format_poly(self.poly)
        return f"Place({body})"


def places_of_degree(field: GF, d: int):
    """Finite places of degree d, ascending; the infinite place last for d=1."""
    out = [Place(field, f) for f in monic_irreducibles(field, d)]
    if d == 1:
        out.append(Place.infinite(field))
    return out


class RationalFunction:
    """Quotient of polynomials kept in reduced form (den monic, coprime)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        if num.field is not den.field:
            raise FieldError("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = divmod(num, g)[0], divmod(den, g)[0]
        lead_inv = num.field.inv(den.coeffs[-1])
        self.num = num.scale(lead_inv)
        self.den = den.scale(lead_inv)

    @property
    def field(self) -> GF:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({format_rational(self)!r})"

    def __str__(self):
        return format_rational(self)


def place_valuation(f: RationalFunction, place: Place) -> int:
    """Valuation of f at the place; at infinity deg(den) - deg(num)."""
    if f.is_zero:
        raise ValueError("the zero function has no valuation")
    if place.is_infinite:
        return f.den.degree - f.num.degree
    u = place.poly

    def mult(g: Poly) -> int:
        m = 0
        while True:
            quo, rem = divmod(g, u)
            if not rem.is_zero:
                return m
            g, m = quo, m + 1

    return mult(f.num) - mult(f.den)


@lru_cache(maxsize=None)
def residue_field(place: Place):
    """(residue field, canonical root of the place polynomial in it).

    The canonical root is the smallest element of the polynomial's
    Frobenius orbit.  For the infinite place the residue field is the
    base field and the root is None.
    """
    F = place.field
    if place.is_infinite:
        return F, None
    d = place.poly.degree
    return make_field(F.p, F.k * d), monic_irreducibles(F, d)[place.poly]


def residue(f: RationalFunction, place: Place) -> int:
    """Residue of f at the place, as an element of the residue field.

    Raises PoleError at a pole; returns 0 for positive valuation.  A
    finite place is a pole exactly when the denominator vanishes at its
    root, because numerator and denominator are coprime.
    """
    if place.is_infinite:
        if f.num.degree > f.den.degree:
            raise PoleError(f"{f} has a pole at {place}")
        if f.num.degree < f.den.degree:
            return 0
        F = f.field
        return F.mul(f.num.coeffs[-1], F.inv(f.den.coeffs[-1]))
    R, root = residue_field(place)
    den_val = f.den.eval_in(root, R)
    if den_val == 0:
        raise PoleError(f"{f} has a pole at {place}")
    return R.mul(f.num.eval_in(root, R), R.inv(den_val))


def unit_residue(f: RationalFunction, place: Place) -> int:
    """Residue of f * (uniformizer ** -v) at the place, a nonzero element."""
    v = place_valuation(f, place)
    if v == 0:
        return residue(f, place)
    if place.is_infinite:
        # v_inf(x) = -1: multiplying the numerator by x^v shifts v_inf by -v
        t = Poly.x(f.field)
        g = RationalFunction(f.num * (t ** v), f.den) if v > 0 \
            else RationalFunction(f.num, f.den * (t ** (-v)))
    else:
        u = place.poly
        g = RationalFunction(f.num, f.den * (u ** v)) if v > 0 \
            else RationalFunction(f.num * (u ** (-v)), f.den)
    return residue(g, place)


def moebius_transport(place: Place, m: tuple[int, int, int, int]) -> Place:
    """Image of a place under the substitution x -> (a*x + b)/(c*x + d).

    Computed by substituting the map into the place polynomial and
    clearing denominators; see the verification report for how this
    convention interacts with point pushforward.
    """
    F = place.field
    a, b, c, d = m
    det = F.sub(F.mul(a, d), F.mul(b, c))
    if det == 0:
        raise ValueError("degenerate fractional-linear map")
    if place.is_infinite:
        if c == 0:
            return place
        return Place(F, Poly(F, (F.mul(d, F.inv(c)), 1)))
    u = place.poly
    n = u.degree
    num = Poly(F, (b, a))
    den = Poly(F, (d, c))
    acc = Poly.zero(F)
    for i, coef in enumerate(u.coeffs):
        if coef:
            acc = acc + ((num ** i) * (den ** (n - i))).scale(coef)
    # only if n = 1: the lead c^n*u(a/c), or a^n if c = 0, is not 0 as det != 0 and u has no root
    if acc.degree < n:
        return Place.infinite(F)
    return Place(F, acc.monic())


# ---------------------------------------------------------------------------
# text format

def format_poly(f: Poly, var: str = "x") -> str:
    return format_terms(f.field, [((i,), c) for i, c in enumerate(f.coeffs)][::-1], (var,))


def format_terms(field: GF, terms, names, sep: str = "") -> str:
    """Text of the (exponents, coefficient) terms, in the order given, in
    the grammar that ``read_terms`` reads: zero terms are skipped and no
    term left gives ``0``; a coefficient 1 is omitted before a factor, any
    other is written by ``element_str``, in parentheses when it is a sum
    and a factor follows; factors are ``v`` or ``v^e``; ``sep`` joins the
    coefficient and the factors and ``+`` joins the terms."""
    parts = []
    for exps, c in terms:
        if not c:
            continue
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e]
        if c != 1 or not factors:
            s = element_str(field, c)
            factors.insert(0, f"({s})" if factors and "+" in s else s)
        parts.append(sep.join(factors))
    return "+".join(parts) or "0"


def element_str(field: GF, a: int, symbol: str = "a") -> str:
    """An element as text: in a prime field its integer, else its base-p
    digits as a polynomial in the modulus root ``symbol`` over GF(p)."""
    if field.k == 1:
        return str(a)
    return format_poly(Poly(make_field(field.p, 1), _digits(a, field.p, field.k)), symbol)


def parse_element(s: str, field: GF, symbol: str = "a") -> int:
    """The element that the text describes: a decimal integer mod p, or,
    outside a prime field, a polynomial in the modulus root ``symbol``
    over GF(p) (``read_terms``), evaluated at that root, which is the
    int p."""
    p = field.p
    if s.isascii() and s.isdigit():
        return int(s) % p
    if field.k == 1:
        raise ValueError(f"{s!r} is not an integer")
    value = 0
    for (e,), c in read_terms(s, make_field(p, 1), (symbol,)).items():
        value = field.add(value, field.mul(c, field.pow(p, e)))
    return value


def read_terms(s: str, field: GF, varnames) -> dict:
    """{exponents: coefficient} of polynomial text in ``varnames`` (see the
    module docstring), like terms summed.  A term that does not read,
    also in its coefficient, raises ``TermError`` naming it and the text."""
    text = _text(s).replace(" ", "").replace("*", "")
    if not text:
        raise ValueError("empty polynomial string")
    factor, term_form, index = _term_patterns(tuple(varnames))
    terms: dict[tuple[int, ...], int] = {}
    for sign, term in _split_terms(text):
        m = term_form.match(term)
        try:
            if not term:
                raise ValueError("empty term")
            if m.end() < len(term):
                raise ValueError(f"unexpected {term[m.end():]!r}"
                                 + (f" after {m[0]!r}" if m[0] else ""))
            c = parse_element(m[1].strip("()"), field) if m[1] else 1
            exps = [0] * len(varnames)
            for v, n in factor.findall(m[2]):
                exps[index[v]] += _exponent(n) if n else 1
        except ValueError as exc:
            raise TermError(term, s, getattr(exc, "reason", exc)) from None
        key = tuple(exps)
        terms[key] = field.add(terms.get(key, 0), field.neg(c) if sign < 0 else c)
    return terms


def _exponent(digits: str, where: str = "") -> int:
    """int(digits).  Where int() refuses that many digits (Python's limit
    on decimal text), the ValueError says so in ffcn's words, after ``where``."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{where}exponent of {len(digits)} digits is too long to read") from None


@lru_cache(maxsize=None)
def _term_patterns(varnames: tuple[str, ...]):
    """For ``read_terms``: the pattern of a factor v or v^n, the pattern of
    a term (a coefficient, in parentheses or up to the first name, then
    factors), and each name's index in a read-only mapping.  Names match
    longest first; with no names, no factor matches."""
    names = sorted(filter(None, varnames), key=len, reverse=True)
    name = "(?:" + ("|".join(map(re.escape, names)) or "(?!)") + ")"
    return (re.compile(rf"({name})(?:\^(\d+))?"),
            re.compile(rf"(\([^()]*\)|(?:(?!{name})[^()])*)((?:{name}(?:\^\d+)?)*)"),
            MappingProxyType({v: i for i, v in enumerate(varnames)}))


def _text(s) -> str:
    if not isinstance(s, str):
        raise ValueError(f"a polynomial must be text, not {s!r}")
    return s


def parse_poly(s: str, field: GF, check_degree=None) -> Poly:
    """The polynomial in x that the text describes.  ``check_degree``,
    if given, is called with the degree before the coefficient list is
    built, and raises to refuse it."""
    terms = read_terms(s, field, ("x",))
    degree = max(e for (e,) in terms)
    if check_degree is not None:
        check_degree(degree)
    out = [0] * (degree + 1)
    for (e,), c in terms.items():
        out[e] = c
    return Poly(field, out)


def _split_terms(s: str):
    """Yield (sign, term) for the terms of s, split at + and - outside
    parentheses; a leading + or - is the sign of the first term."""
    sign, start = {"-": (-1, 1), "+": (1, 1)}.get(s[:1], (1, 0))
    depth = 0
    for m in re.finditer(r"[-+()]", s):
        ch, i = m[0], m.start()
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and i:
            yield sign, s[start:i]
            sign, start = (1 if ch == "+" else -1), i + 1
    yield sign, s[start:]


def format_rational(f: RationalFunction) -> str:
    num = format_poly(f.num)
    if f.den.degree == 0:
        return num
    return f"({num})/({format_poly(f.den)})"


def parse_rational(s: str, field: GF, check_degree=None) -> RationalFunction:
    """num or num/den, where each side is a polynomial or a power (poly)^n.
    ``check_degree`` is called as in ``parse_poly``, and on the degree of
    each power before it is expanded."""
    text, s = s, _text(s).replace(" ", "")
    num, slash, den = _split_fraction(s)
    num = _parse_power(num, field, check_degree)
    if not slash:
        return RationalFunction(num)
    den = _parse_power(den, field, check_degree)
    if den.is_zero:
        raise ValueError(f"zero denominator in rational function {text!r}")
    return RationalFunction(num, den)


def _split_fraction(s: str):
    """(num, "/", den) split at the first / outside parentheses, or
    (s, "", "") when there is none."""
    depth = 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if ch == "/" and depth == 0:
            return s[:i], "/", s[i + 1:]
    return s, "", ""


def _parse_power(s: str, field: GF, check_degree) -> Poly:
    """The polynomial that 'poly' or '(s)^n' describes, dropping any
    parentheses that enclose all of s; ``check_degree`` is called on the
    degree of the power before it is expanded."""
    n = 1
    while s.startswith("("):
        depth = 0
        for i, ch in enumerate(s):
            depth += (ch == "(") - (ch == ")")
            if not depth:
                break
        rest = s[i + 1:]
        if depth or rest[:1] not in ("", "^"):
            break  # not one parenthesised group: a term such as (a+1)x
        if rest:
            exp = re.fullmatch(r"\^(\d+)", rest)
            if exp is None:
                raise ValueError(f"bad exponent {rest[1:]!r} in power {s!r}")
            n *= _exponent(exp[1], f"bad power {s!r}: ")
        s = s[1:i]
    poly = parse_poly(s, field, check_degree)
    if check_degree is not None:
        check_degree(poly.degree * n)
    return poly ** n
