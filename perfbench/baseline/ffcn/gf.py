"""Exact arithmetic in small finite fields GF(p^k) with p in {2, 3}.

Elements are plain ints in ``range(p**k)``: the base-p digits of the int,
least significant first, are the coordinates of the element in the
polynomial basis ``1, t, ..., t**(k-1)``, where ``t`` is a root of the
field modulus.  That integer value is also the canonical element
ordering used for every tie-break in this library.  The modulus is the
lexicographically smallest monic irreducible of degree k over GF(p)
under the same ordering, so fields are reproducible across runs with no
external tables.
"""

from __future__ import annotations

from functools import lru_cache

SUPPORTED_P = (2, 3)
MAX_K = 20

# exp/log tables are built lazily for fields up to this order
_TABLE_MAX = 1 << 16


class FieldError(ValueError):
    """Unsupported field construction or illegal field operation."""


def _digits(n: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def _undigits(ds, p: int) -> int:
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p (coefficient lists, little-endian), used only
# for the canonical-modulus search

def _zp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _zp_mod(f, m, p):
    f = list(f)
    dm = len(m) - 1
    for i in range(len(f) - 1, dm - 1, -1):
        c = f[i]
        if c:
            for j in range(dm + 1):
                f[i - dm + j] = (f[i - dm + j] - c * m[j]) % p
    del f[dm:]
    return _zp_trim(f)


def _zp_gcd_is_one(f, g, p):
    f, g = list(f), list(g)
    while g:
        # remainder of f by g
        dg = len(g) - 1
        inv_lead = pow(g[-1], p - 2, p)
        r = list(f)
        for i in range(len(r) - 1, dg - 1, -1):
            if len(r) - 1 < dg:
                break
            c = (r[-1] * inv_lead) % p
            for j in range(dg + 1):
                r[len(r) - 1 - dg + j] = (r[len(r) - 1 - dg + j] - c * g[j]) % p
            _zp_trim(r)
            if len(r) - 1 < dg:
                break
        f, g = g, r
    return len(f) == 1 and f[0] != 0


def _zp_pth_power_mod(r, m, p):
    # (sum c_i x^i)^p = sum c_i x^(p*i) over Z_p
    spread = [0] * (p * (len(r) - 1) + 1) if r else []
    for i, c in enumerate(r):
        spread[p * i] = c
    return _zp_mod(spread, m, p)


def _zp_is_irreducible(m, p: int) -> bool:
    """Power test for a monic polynomial m over Z_p."""
    d = len(m) - 1
    if d == 1:
        return True
    if m[0] == 0:  # divisible by x
        return False
    r = [0, 1]  # x
    x = [0, 1]
    for e in range(1, d + 1):
        r = _zp_pth_power_mod(r, m, p)
        if e <= d // 2:
            la = max(len(r), 2)
            diff = [((r[i] if i < len(r) else 0) - (x[i] if i < 2 else 0)) % p
                    for i in range(la)]
            _zp_trim(diff)
            if not diff:
                # m divides x^(p^e) - x: all factors have degree dividing e < d
                return False
            if not _zp_gcd_is_one(m, diff, p):
                return False
    return r == x


class GF:
    """The finite field GF(p^k).  Construct via :func:`make_field` (cached).

    All operations take and return plain ints encoding elements as
    described in the module docstring.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = modulus  # k+1 coefficients, little-endian, monic
        self._exp = None
        self._log = None
        self._embed_roots: dict[tuple[int, int], int] = {}

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    def elements(self):
        return range(self.order)

    # -- core arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        da, db = _digits(a, 3, self.k), _digits(b, 3, self.k)
        return _undigits([(x + y) % 3 for x, y in zip(da, db)], 3)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return _undigits([(-x) % 3 for x in _digits(a, 3, self.k)], 3)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def _raw_mul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        if a == 0 or b == 0:
            return 0
        if k == 1:
            return (a * b) % p
        da, db = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        m = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * m[j]) % p
        return _undigits(prod[:k], p)

    def _raw_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return r

    def _ensure_tables(self):
        if self._exp is not None or self.order > _TABLE_MAX:
            return
        q = self.order
        g = self._find_generator()
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        e = 1
        for i in range(q - 1):
            exp[i] = e
            log[e] = i
            e = self._raw_mul(e, g)
        for i in range(q - 1):
            exp[q - 1 + i] = exp[i]
        self._exp = exp
        self._log = log

    def _find_generator(self) -> int:
        q = self.order
        if q == 2:
            return 1
        cofactors = [(q - 1) // f for f in _prime_factors(q - 1)]
        for g in range(2, q):
            if all(self._raw_pow(g, c) != 1 for c in cofactors):
                return g
        raise AssertionError("no generator found")  # pragma: no cover

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        self._ensure_tables()
        if self._exp is None:
            return self._raw_mul(a, b)
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        self._ensure_tables()
        if self._exp is None:
            return self._raw_pow(a, self.order - 2)
        return self._exp[self.order - 1 - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 0 if n else 1
        self._ensure_tables()
        if self._exp is None:
            return self._raw_pow(a, n % (self.order - 1))
        return self._exp[(self._log[a] * n) % (self.order - 1)]

    # -- Galois structure ---------------------------------------------------

    def frobenius(self, a: int, iterations: int = 1) -> int:
        """a ** (p ** iterations)."""
        if iterations < 0:
            raise FieldError("negative Frobenius iteration count")
        for _ in range(iterations % self.k):
            a = self.pow(a, self.p)
        return a

    def trace(self, a: int) -> int:
        """Absolute trace into GF(p), returned as an int in range(p)."""
        s, x = 0, a
        for _ in range(self.k):
            s = self.add(s, x)
            x = self.pow(x, self.p)
        assert s < self.p, "trace landed outside the prime field"
        return s

    def solve_artin_schreier(self, c: int):
        """Smallest z with z**p - z == c, or None if the trace obstructs."""
        if self.trace(c) != 0:
            return None
        p, k = self.p, self.k
        # z -> z^p - z is GF(p)-linear; solve by Gaussian elimination on the
        # k x k matrix whose columns are images of the basis t^j.
        cols = [_digits(self.sub(self.pow(p ** j, p), p ** j), p, k)
                for j in range(k)]
        rows = [[cols[j][i] for j in range(k)] + [_digits(c, p, k)[i]]
                for i in range(k)]
        piv_col_of_row = []
        r = 0
        for col in range(k):
            piv = next((i for i in range(r, k) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv_lead = pow(rows[r][col], p - 2, p)
            rows[r] = [(v * inv_lead) % p for v in rows[r]]
            for i in range(k):
                if i != r and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
            piv_col_of_row.append(col)
            r += 1
        if any(rows[i][k] for i in range(r, k)):
            return None  # unreachable when trace(c) == 0
        z_digits = [0] * k
        for i, col in enumerate(piv_col_of_row):
            z_digits[col] = rows[i][k]
        z0 = _undigits(z_digits, p)
        # kernel is GF(p); minimize over the p translates
        return min(self.add(z0, c0) for c0 in range(p))

    def quadratic_character(self, a: int) -> int:
        """1 for a nonzero square, -1 for a nonsquare, 0 for zero."""
        if self.p == 2:
            raise FieldError("quadratic character undefined in characteristic 2")
        if a == 0:
            return 0
        return 1 if self.pow(a, (self.order - 1) // 2) == 1 else -1


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> GF:
    """Canonical GF(p^k); instances are cached, so identity comparisons work."""
    if p not in SUPPORTED_P:
        raise FieldError(f"unsupported characteristic {p}")
    if not 1 <= k <= MAX_K:
        raise FieldError(f"extension degree {k} out of range 1..{MAX_K}")
    if k == 1:
        return GF(p, 1, (0, 1))
    for c in range(p ** k):
        m = tuple(_digits(c, p, k)) + (1,)
        if _zp_is_irreducible(list(m), p):
            return GF(p, k, m)
    raise AssertionError("no irreducible modulus found")  # pragma: no cover


def embed(a: int, src: GF, dst: GF) -> int:
    """Ring-homomorphic embedding GF(p^d) -> GF(p^(d*m)), fixing GF(p).

    The modulus root of the source maps to its smallest root in the
    target under the element ordering, so the map is deterministic.
    """
    if src is dst:
        return a
    if src.p != dst.p:
        raise FieldError("embedding across characteristics")
    if dst.k % src.k != 0:
        raise FieldError(f"{src} does not embed in {dst}: degree mismatch")
    root = _subfield_root(src, dst)
    val = 0
    for d in reversed(_digits(a, src.p, src.k)):
        val = dst.add(dst.mul(val, root), d)
    return val


def _subfield_root(src: GF, dst: GF) -> int:
    key = (src.p, src.k)
    root = dst._embed_roots.get(key)
    if root is None:
        mod = src.modulus
        for x in dst.elements():
            acc = 0
            for c in reversed(mod):
                acc = dst.add(dst.mul(acc, x), c)
            if acc == 0:
                root = x
                break
        else:  # pragma: no cover - impossible when degrees divide
            raise FieldError("modulus has no root in target field")
        dst._embed_roots[key] = root
    return root


def conjugate_subfield_roots(src: GF, dst: GF) -> list[int]:
    """All roots of the source modulus in the target field, ascending."""
    roots = []
    for x in dst.elements():
        acc = 0
        for c in reversed(src.modulus):
            acc = dst.add(dst.mul(acc, x), c)
        if acc == 0:
            roots.append(x)
    return roots


def element_str(field: GF, a: int, symbol: str = "a") -> str:
    """Render an element as a polynomial in the modulus root."""
    if a == 0:
        return "0"
    parts = []
    for i in reversed(range(field.k)):
        d = _digits(a, field.p, field.k)[i]
        if not d:
            continue
        coef = "" if d == 1 else str(d)
        if i == 0:
            parts.append(str(d))
        elif i == 1:
            parts.append(f"{coef}{symbol}")
        else:
            parts.append(f"{coef}{symbol}^{i}")
    return "+".join(parts)


def parse_element(s: str, field: GF, symbol: str = "a") -> int:
    """Parse the output of :func:`element_str` (sums of c*symbol^i terms)."""
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty element string")
    val = 0
    root = field.p if field.k > 1 else None
    for term in s.replace("-", "+-").split("+"):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        if symbol in term:
            head, _, tail = term.partition(symbol)
            coef = int(head) if head else 1
            exp = int(tail[1:]) if tail.startswith("^") else (1 if not tail else None)
            if exp is None:
                raise ValueError(f"bad element term {term!r}")
            if root is None:
                raise ValueError(f"symbol {symbol!r} in a prime-field element")
            t = field.mul(coef % field.p, field.pow(root, exp))
        else:
            t = int(term) % field.p
        t = field.neg(t) if sign < 0 else t
        val = field.add(val, t)
    return val


class Element:
    """Thin wrapper pairing a value with its field; guards mixed-field ops."""

    __slots__ = ("field", "val")

    def __init__(self, field: GF, val: int):
        if not 0 <= val < field.order:
            raise FieldError(f"value {val} outside {field}")
        self.field = field
        self.val = val

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.field is not self.field:
                raise FieldError("operands from different fields")
            return other.val
        if isinstance(other, int):
            if other % self.field.p != other:
                raise FieldError("int operand must be a prime-field value")
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Element(self.field, self.field.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Element(self.field, self.field.sub(self.val, v))

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Element(self.field, self.field.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is NotImplemented else Element(self.field, self.field.mul(self.val, self.field.inv(v)))

    def __pow__(self, n: int):
        return Element(self.field, self.field.pow(self.val, n))

    def __neg__(self):
        return Element(self.field, self.field.neg(self.val))

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.field is other.field and self.val == other.val
        if isinstance(other, int):
            return self.val == other
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __repr__(self):
        return f"Element({self.field!r}, {element_str(self.field, self.val)})"
