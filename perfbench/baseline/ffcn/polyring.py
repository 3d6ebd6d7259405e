"""Univariate polynomials over a finite field, places of F_q(x), and
Moebius machinery (both the number-theoretic mu and fractional-linear
transport of places).

Polynomial text format: sums of monomials like ``x^4+x+1``; coefficients
outside the prime field are written in the modulus-root symbol ``a``
(e.g. ``x^3+a``, ``(a+1)x^2``).  Parsing is exact and serialization
round-trips.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import GF, FieldError, element_str, embed, make_field, parse_element


class PoleError(ValueError):
    """Evaluation was requested at a pole of the function."""


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

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

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

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

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
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                f = F.mul(c, inv_lead)
                quot[i - d] = f
                for j, y in enumerate(other.coeffs):
                    rem[i - d + j] = F.sub(rem[i - d + j], F.mul(f, y))
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

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

    def __call__(self, x: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def eval_in(self, x: int, ext: GF) -> int:
        """Evaluate at a point of an extension field (coefficients embedded)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = ext.add(ext.mul(acc, x), embed(c, self.field, ext))
        return acc

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


@lru_cache(maxsize=None)
def is_irreducible(f: Poly) -> bool:
    """True iff f is irreducible over its base field.

    Power test: f of degree d is irreducible iff it has no irreducible
    factor of degree <= d/2, detected via gcd(x^(q^e) - x, f) for
    e = 1..d/2 along the Frobenius chain.
    """
    d = f.degree
    if d < 1:
        raise ValueError("irreducibility is undefined for constants")
    if d == 1:
        return True
    F = f.field
    f = f.monic()
    x = Poly.x(F)
    r = x
    for e in range(1, d // 2 + 1):
        for _ in range(F.k):
            r = _pth_power_mod(r, f)
        if poly_gcd(r - x, f).degree > 0:
            return False
    return True


def _pth_power_mod(r: Poly, m: Poly) -> Poly:
    F = r.field
    p = F.p
    if r.is_zero:
        return r
    spread = [0] * (p * r.degree + 1)
    for i, c in enumerate(r.coeffs):
        if c:
            spread[p * i] = F.pow(c, p)
    return Poly(F, spread) % m


@lru_cache(maxsize=None)
def monic_irreducibles(field: GF, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree exactly d, ascending in the
    element ordering of coefficient vectors."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    q = field.order
    if d == 1:
        return tuple(Poly(field, (c, 1)) for c in range(q))
    out = []
    elems = list(field.elements())
    for code in range(q ** d):
        coeffs = []
        n = code
        for _ in range(d):
            coeffs.append(n % q)
            n //= q
        if coeffs[0] == 0:  # divisible by x
            continue
        coeffs.append(1)
        f = Poly(field, coeffs)
        if any(f(e) == 0 for e in elems):  # linear-factor prefilter
            continue
        if d <= 3 or _irreducible_no_small_factor(f):
            out.append(f)
    return tuple(out)


def _irreducible_no_small_factor(f: Poly) -> bool:
    # f is known to have no linear factors; check degrees 2..d/2
    F = f.field
    d = f.degree
    x = Poly.x(F)
    r = x
    for _ in range(F.k):
        r = _pth_power_mod(r, f)
    for e in range(2, d // 2 + 1):
        for _ in range(F.k):
            r = _pth_power_mod(r, f)
        if poly_gcd(r - x, f).degree > 0:
            return False
    return True


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
    assert total % d == 0
    return total // d


class Place:
    """A place of F_q(x): a monic irreducible polynomial or the infinite place."""

    __slots__ = ("field", "poly")

    def __init__(self, field: GF, poly: Poly | None = None, _checked: bool = False):
        if poly is not None:
            if poly.field is not field:
                raise FieldError("place polynomial over the wrong field")
            if not poly.is_monic:
                raise ValueError("place polynomial must be monic")
            if not _checked and not is_irreducible(poly):
                raise ValueError(f"{poly} is not irreducible")
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


def places_of_degree(field: GF, d: int, include_infinite: bool = True):
    """Finite places of degree d, ascending; the infinite place last for d=1."""
    out = [Place(field, f, _checked=True) for f in monic_irreducibles(field, d)]
    if d == 1 and include_infinite:
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
                num, den = num // g, den // g
        lead_inv = num.field.inv(den.coeffs[-1])
        self.num = num.scale(lead_inv)
        self.den = den.scale(lead_inv)

    @property
    def field(self) -> GF:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

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

    For the infinite place the residue field is the base field and the
    root is None.
    """
    F = place.field
    if place.is_infinite:
        return F, None
    d = place.poly.degree
    R = make_field(F.p, F.k * d)
    for x in R.elements():
        if place.poly.eval_in(x, R) == 0:
            return R, x
    raise AssertionError("place polynomial has no root in its residue field")


def residue(f: RationalFunction, place: Place) -> int:
    """Residue of f at the place, as an element of the residue field.

    Raises PoleError when the valuation is negative; returns 0 for
    positive valuation.
    """
    if place_valuation(f, place) < 0:
        raise PoleError(f"{f} has a pole at {place}")
    if place.is_infinite:
        if f.num.degree < f.den.degree:
            return 0
        F = f.field
        return F.mul(f.num.coeffs[-1], F.inv(f.den.coeffs[-1]))
    R, root = residue_field(place)
    den_val = f.den.eval_in(root, R)
    if den_val == 0:  # pragma: no cover - excluded by reduced form + valuation
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
        return Place(F, Poly(F, (F.mul(d, F.inv(c)), 1)), _checked=True)
    u = place.poly
    n = u.degree
    num = Poly(F, (b, a))
    den = Poly(F, (d, c))
    acc = Poly.zero(F)
    for i, coef in enumerate(u.coeffs):
        if coef:
            acc = acc + ((num ** i) * (den ** (n - i))).scale(coef)
    if acc.degree < n:
        assert n == 1, "degree can only drop for rational places"
        return Place.infinite(F)
    return Place(F, acc.monic(), _checked=True)


# ---------------------------------------------------------------------------
# text format

def format_poly(f: Poly, var: str = "x", symbol: str = "a") -> str:
    if f.is_zero:
        return "0"
    F = f.field
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(element_str(F, c, symbol))
            continue
        if c == 1:
            coef = ""
        else:
            s = element_str(F, c, symbol)
            coef = f"({s})" if "+" in s else s
        xpart = var if i == 1 else f"{var}^{i}"
        parts.append(f"{coef}{xpart}")
    return "+".join(parts)


def parse_poly(s: str, field: GF, var: str = "x", symbol: str = "a") -> Poly:
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    coeffs: dict[int, int] = {}
    for sign, term in _split_terms(s):
        if not term:
            raise ValueError(f"malformed polynomial {s!r}")
        if var in term:
            head, _, tail = term.partition(var)
            exp = int(tail[1:]) if tail.startswith("^") else (1 if not tail else None)
            if exp is None:
                raise ValueError(f"bad term {term!r}")
        else:
            head, exp = term, 0
        head = head.rstrip("*")
        if head.startswith("(") and head.endswith(")"):
            head = head[1:-1]
        c = parse_element(head, field, symbol) if head else 1
        if sign < 0:
            c = field.neg(c)
        coeffs[exp] = field.add(coeffs.get(exp, 0), c)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly(field, out)


def _split_terms(s: str):
    """Yield (sign, term) splitting on top-level + and -."""
    depth = 0
    sign, cur = 1, []
    first = True
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and not first:
            yield sign, "".join(cur)
            sign, cur = (1 if ch == "+" else -1), []
            continue
        if first and ch == "-":
            sign = -1
            first = False
            continue
        cur.append(ch)
        first = False
    yield sign, "".join(cur)


def format_rational(f: RationalFunction, var: str = "x", symbol: str = "a") -> str:
    num = format_poly(f.num, var, symbol)
    if f.den.degree == 0:
        return num
    return f"({num})/({format_poly(f.den, var, symbol)})"


def parse_rational(s: str, field: GF, var: str = "x", symbol: str = "a") -> RationalFunction:
    s = s.replace(" ", "")
    parts = _split_fraction(s)
    if len(parts) == 1:
        return RationalFunction(parse_poly(_strip_parens(parts[0]), field, var, symbol))
    num, den = parts
    dpoly, dexp = _parse_power(den, field, var, symbol)
    return RationalFunction(parse_poly(_strip_parens(num), field, var, symbol),
                            dpoly ** dexp)


def _split_fraction(s: str):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return [s[:i], s[i + 1:]]
    return [s]


def _strip_parens(s: str) -> str:
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        ok = True
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i < len(s) - 1:
                    ok = False
                    break
        if not ok:
            break
        s = s[1:-1]
    return s


def _parse_power(s: str, field: GF, var: str, symbol: str):
    """Parse '(poly)^n' or 'poly' denominators."""
    if s.startswith("(") and ")^" in s:
        body, _, exp = s.rpartition(")^")
        return parse_poly(_strip_parens(body + ")"), field, var, symbol), int(exp)
    return parse_poly(_strip_parens(s), field, var, symbol), 1
