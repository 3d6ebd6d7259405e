"""Exact arithmetic in small finite fields GF(p^k) with p in {2, 3}.

Elements are plain ints in ``range(p**k)``: the base-p digits of the int,
least significant first, are the coordinates of the element in the
polynomial basis ``1, t, ..., t**(k-1)``, where ``t`` is a root of the
field modulus.  That integer value is also the canonical element
ordering used for every tie-break in this library.  The modulus is the
lexicographically smallest monic irreducible of degree k over GF(p)
under the same ordering, so fields are reproducible across runs with no
external tables.  It is found by running Rabin's irreducibility test in
the quotient ring of each candidate in turn, skipping the candidates
with a root in GF(p).

:func:`make_field` builds fields of order up to ``FIELD_MAX`` = 2^17,
the enumeration budget, and refuses larger ones: GF(2^17), GF(3^10) and
GF(4^8) are the largest.  Once the modulus is found, it picks the
smallest generator g of the multiplicative group and builds the tables
``exp[i] = g^i`` and ``log[g^i] = i``.  Then ``mul``, ``inv`` and
``pow`` are table lookups: a*b is ``exp[log[a] + log[b]]``.  ``log[0]``
points into a run of zeros after two periods of ``exp``, so a product
with zero needs no test.  For p = 2, ``add`` and ``sub`` are xor and
``neg`` is the identity.  For p = 3 ``add`` uses the Zech logarithm
``zech[n] = log(1 + g^n)``: a + b = a*(1 + b/a) is
``exp[log[a] + zech[log[b] - log[a]]]``; -a is ``exp[log[a] + (q-1)/2]``,
and a - b is a + (-b).  Where 1 + g^n = 0, ``zech[n]`` is ``log[0]`` and
lands in the zeros.

Only the candidate rings of the modulus search have no tables.  Their
product is ``_raw_mul``: a shift/xor product of ints for p = 2, reduced
as it goes by the modulus held as a bitmask, and a product of base-3
digit lists for p = 3.  With ``_raw_pow`` it tests the candidates,
finds the generator and builds the tables.

The tables are built by stepping e -> e*g through the powers of g.  The
step uses that e -> e*g is GF(p)-linear: with e split into its low and
high h digits, e*g is the sum of two precomputed images, so only the
p^h + p^(k-h) images are products.  For p = 2 the sum is one xor.  For
p = 3 each half of the sum is one lookup in a table of digit-wise sums of
h-digit numbers; a digit-list product per step would dominate the build
(about 1 s for GF(3^10)).

Evaluation is table-driven too.  ``GF.horner`` evaluates a polynomial at
an element by lookups (xor for p = 2, Zech sums for p = 3), ``GF.values``
at a list of elements in one pass per coefficient, ``GF.evaluate`` a
multivariate form given by its terms through sums of logs, and
``GF.from_roots`` multiplies out the product of (x - r).  The trace for
p = 2 is GF(2)-linear: the parity of ``a & mask``, where bit i of the
mask is the trace of t^i.

The Frobenius map a -> a^q (q a power of p) is one cached table per
field and q, ``frobenius_table``.  ``orbit_representatives`` walks that
table once and returns the least member of each orbit with the orbit's
size.  Places of GF(q)(x) and points of curves are enumerated from these
least members.
"""

from __future__ import annotations

from functools import lru_cache

SUPPORTED_P = (2, 3)
# the largest field order make_field builds; it equals the enumeration
# budget, so that no run the budget admits needs a larger field
FIELD_MAX = 1 << 17
# a log for zero in GF.evaluate: past any sum of logs of nonzero elements,
# which are below FIELD_MAX each
_FAR = 1 << 40


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
        self._mask = _undigits(modulus, 2) if p == 2 else None
        self._generator = None
        self._exp = self._log = self._zech = None
        self._trace_mask = None

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
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self._exp[self._log[a] + (self.order - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def _raw_mul(self, a: int, b: int) -> int:
        if self.p == 2:
            if a < b:
                a, b = b, a  # one step per bit of the smaller factor
            r, top, mask = 0, 1 << self.k, self._mask
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mask
            return r
        if a == 0 or b == 0:
            return 0
        k = self.k
        da, db = _digits(a, 3, k), _digits(b, 3, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % 3
        m = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * m[j]) % 3
        return _undigits(prod[:k], 3)

    def _raw_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, a)
            n >>= 1
            if n:
                a = self._raw_mul(a, a)
        return r

    def _find_generator(self) -> int:
        q = self.order
        if q == 2:
            return 1
        cofactors = [(q - 1) // f for f in _prime_factors(q - 1)]
        # the multiplicative group of a field is cyclic, so a generator exists
        return next(g for g in range(2, q)
                    if all(self._raw_pow(g, c) != 1 for c in cofactors))

    def _build_tables(self):
        """exp and log, and for p = 3 zech, from the field's generator.

        ``exp`` holds two periods of g^i, so a sum of two logs needs no
        reduction, then zeros for the sentinel ``log[0] = 2(q-1)``.
        ``zech`` holds one period: it is indexed by a difference of two
        logs below q - 1, and a negative index wraps to the same residue."""
        q = self.order
        zero = 2 * (q - 1)
        exp = [0] * (2 * zero + 1)
        log = [zero] * q
        for i, e in enumerate(self._generator_powers()):
            exp[i] = exp[i + q - 1] = e
            log[e] = i
        self._exp, self._log = exp, log
        if self.p == 3:
            # 1 + e changes only the constant digit of e
            self._zech = [log[e + 1 if e % 3 < 2 else e - 2] for e in exp[:q - 1]]

    def _generator_powers(self):
        """g^0, g^1, ..., g^(q-2), stepped as the module docstring says."""
        g, mul = self._generator, self._raw_mul
        h = (self.k + 1) // 2
        if self.p == 2:
            low = (1 << h) - 1
            lo_img = [mul(lo, g) for lo in range(1 << h)]
            hi_img = [mul(hi << h, g) for hi in range(1 << (self.k - h))]
            e = 1
            for _ in range(self.order - 1):
                yield e
                e = lo_img[e & low] ^ hi_img[e >> h]
            return
        B = 3 ** h
        # add[x*B + y] = x + y digit by digit, for x, y < B; each round
        # gives x and y one more significant digit
        add, w = [0], 1
        for _ in range(h):
            rows = [add[x * w:(x + 1) * w] for x in range(w)]
            add = [a + w * ((xd + yd) % 3) for xd in range(3) for row in rows
                   for yd in range(3) for a in row]
            w *= 3
        # the high and low halves of lo*g, times B so that they index add,
        # and the high and low halves of (B*hi)*g
        lo_img = [(B * (x // B), B * (x % B)) for x in (mul(lo, g) for lo in range(B))]
        hi_img = [divmod(mul(B * hi, g), B) for hi in range(3 ** (self.k - h))]
        lo, hi = 1, 0
        for _ in range(self.order - 1):
            yield lo + B * hi
            a, b = lo_img[lo]
            c, d = hi_img[hi]
            lo, hi = add[b + d], add[a + c]

    def horner(self, coeffs, x: int) -> int:
        """coeffs[0] + coeffs[1]*x + coeffs[2]*x^2 + ..., by Horner's rule.

        acc*x is ``exp[log[acc] + log[x]]``; for p = 2 the sum is xor, for
        p = 3 it is a Zech sum.  A product with zero lands in the zeros of
        ``exp`` (p = 2) or at or past ``log[0]`` (p = 3)."""
        exp, log = self._exp, self._log
        lx, acc = log[x], 0
        if self.p == 2:
            for c in reversed(coeffs):
                acc = exp[log[acc] + lx] ^ c
            return acc
        zech, n = self._zech, self.order - 1
        for c in reversed(coeffs):
            lt = log[acc] + lx  # the log of acc*x
            if lt >= 2 * n:
                acc = c
                continue
            if lt >= n:
                lt -= n  # a Zech sum takes a log below q - 1, as in add
            acc = exp[lt + zech[log[c] - lt]] if c else exp[lt]
        return acc

    def values(self, coeffs, xs) -> list[int]:
        """[horner(coeffs, x) for x in xs]; for p = 2, one pass of
        lookups over all of xs per coefficient.  Below four points, Horner
        per point is the cheaper of the two."""
        if self.p == 3 or len(xs) < 4:
            return [self.horner(coeffs, x) for x in xs]
        exp, log = self._exp, self._log
        lxs = [log[x] for x in xs]
        vals = [0] * len(lxs)
        for c in reversed(coeffs):
            vals = [exp[log[v] + lx] ^ c for v, lx in zip(vals, lxs)]
        return vals

    def evaluate(self, terms, coords) -> int:
        """The sum over terms (c, factors) of c times the product of
        coords[v] for v in factors, by sums of logs: a zero coordinate's
        log is pushed past any sum of logs of nonzero ones."""
        exp, log, n, p = self._exp, self._log, self.order - 1, self.p
        acc = 0
        lx = [log[x] if x else _FAR for x in coords]
        for c, factors in terms:
            s = log[c] if c else _FAR
            for v in factors:
                s += lx[v]
            if s < _FAR:
                acc = acc ^ exp[s % n] if p == 2 else self.add(acc, exp[s % n])
        return acc

    def from_roots(self, roots) -> list[int]:
        """The coefficients of the product of (x - r) over the roots,
        little-endian: each root multiplies in place, from the top."""
        prod = [1]
        exp, log = self._exp, self._log
        for r in roots:
            r = self.neg(r)
            prod.append(0)
            if self.p == 3:
                for i in range(len(prod) - 1, 0, -1):
                    prod[i] = self.horner((prod[i - 1], prod[i]), r)
            else:
                lr = log[r]
                for i in range(len(prod) - 1, 0, -1):
                    prod[i] = prod[i - 1] ^ exp[lr + log[prod[i]]]
            prod[0] = self.mul(prod[0], r)
        return prod

    def mul(self, a: int, b: int) -> int:
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return self._exp[self.order - 1 - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 0 if n else 1
        return self._exp[(self._log[a] * n) % (self.order - 1)]

    # -- Galois structure ---------------------------------------------------

    def trace(self, a: int) -> int:
        """Absolute trace into GF(p), returned as an int in range(p).

        For p = 2 the trace is GF(2)-linear, so it is the parity of
        ``a & mask``, where bit i of the mask is the trace of t^i."""
        if self.p == 2:
            return (a & self._trace_mask).bit_count() & 1
        return self._trace_sum(a)

    def _trace_sum(self, a: int) -> int:
        """The trace as the sum of the conjugates a^(p^i)."""
        s, x = 0, a
        for _ in range(self.k):
            s = self.add(s, x)
            x = self.pow(x, self.p)
        return s  # a trace lies in GF(p)

    def quadratic_character(self, a: int) -> int:
        """1 for a nonzero square, -1 for a nonsquare, 0 for zero."""
        if self.p == 2:
            raise FieldError("quadratic character undefined in characteristic 2")
        if a == 0:
            return 0
        return 1 if self.pow(a, (self.order - 1) // 2) == 1 else -1


def _is_field(ring: GF) -> bool:
    """Rabin's test, run in the quotient ring Z_p[t]/(m) of a candidate
    modulus m: m is irreducible iff t^(p^k) = t and t^(p^(k/r)) - t is a
    unit for every prime r | k, and an element whose (p^k - 1)-th power is
    1 is a unit.  Ring operations only: the ring has no tables."""
    p, k, t = ring.p, ring.k, ring.p
    if ring._raw_pow(t, ring.order) != t:
        return False
    for r in _prime_factors(k):
        x = ring._raw_pow(t, p ** (k // r))
        # x - t: t = p is the digit 1 in place 1, which wraps from 0 to p - 1
        x = x - p if x // p % p else x + p * (p - 1)
        if ring._raw_pow(x, ring.order - 1) != 1:
            return False
    return True


def extension_order(field: GF, m: int) -> int:
    """The order of GF(q^m), q the order of the field, for m up to the bit
    length of FIELD_MAX.  Past it every such field is beyond FIELD_MAX, so
    m is capped there: the result stays beyond it, and no huge power is
    computed."""
    return field.order ** min(m, FIELD_MAX.bit_length())


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> GF:
    """Canonical GF(p^k); instances are cached, so identity comparisons work."""
    if p not in SUPPORTED_P:
        raise FieldError(f"unsupported characteristic {p}")
    if k < 1:
        raise FieldError(f"extension degree {k} is below 1")
    # p^k > FIELD_MAX once k passes its bit length, as p >= 2
    if k >= FIELD_MAX.bit_length() or p ** k > FIELD_MAX:
        raise FieldError(f"GF({p}^{k}) has more than FIELD_MAX = {FIELD_MAX} elements")
    if k == 1:
        F = GF(p, 1, (0, 1))
    else:
        # a candidate with a root in GF(p) has a linear factor: skip it
        moduli = (tuple(_digits(c, p, k)) + (1,) for c in range(p ** k))
        candidates = (GF(p, k, m) for m in moduli
                      if all(_undigits(m, a) % p for a in range(p)))
        F = next(R for R in candidates if _is_field(R))
    F._generator = F._find_generator()
    F._build_tables()
    if p == 2:
        F._trace_mask = sum(F._trace_sum(1 << i) << i for i in range(k))
    return F


def embed(a: int, src: GF, dst: GF) -> int:
    """Ring-homomorphic embedding GF(p^d) -> GF(p^(d*m)), fixing GF(p).

    The modulus root of the source maps to its smallest root in the
    target under the element ordering, so the map is deterministic.
    """
    if src is dst:
        return a
    return embedding(src, dst)[a]


@lru_cache(maxsize=None)
def embedding(src: GF, dst: GF) -> tuple[int, ...]:
    """The table of :func:`embed`: entry a is the image of a in dst."""
    if src.p != dst.p:
        raise FieldError("embedding across characteristics")
    if dst.k % src.k != 0:
        raise FieldError(f"{src} does not embed in {dst}: degree mismatch")
    # the image of src in dst is 0 and the (q-1)-th roots of unity,
    # the powers of h below; the modulus root maps to the smallest root
    q = src.order
    h = dst.pow(dst._generator, (dst.order - 1) // (q - 1))
    subfield, x = [0], 1
    for _ in range(q - 1):
        subfield.append(x)
        x = dst.mul(x, h)

    root = min(x for x in subfield if not dst.horner(src.modulus, x))
    # the image of sum d_i t^i is sum d_i root^i, built digit by digit
    table = [0]
    for i in range(src.k):
        power = dst.pow(root, i)
        table = [dst.add(t, dst.mul(c, power)) for c in range(src.p) for t in table]
    return tuple(table)


@lru_cache(maxsize=None)
def frobenius_table(field: GF, q: int) -> tuple[int, ...]:
    """frob[a] = a^q for every element a of the field, q a power of p.

    For p = 2, a -> a^q is GF(2)-linear: the image of a is the xor of the
    images of the bits t^i of a, built one bit at a time.  For p = 3 the
    log of a^q is q times the log of a."""
    if field.p == 2:
        table = [0]
        for i in range(field.k):
            image = field.pow(1 << i, q)
            table += [t ^ image for t in table]
        return tuple(table)
    exp, log, n = field._exp, field._log, field.order - 1
    return (0,) + tuple([exp[log[a] * q % n] for a in range(1, field.order)])


@lru_cache(maxsize=None)
def orbit_representatives(field: GF, q: int) -> tuple[tuple[int, int], ...]:
    """(least member, orbit size) of every orbit of a -> a^q on the
    field, ascending; q is a power of p.  An element is least when the
    walk through its orbit meets no smaller one before returning."""
    frob = frobenius_table(field, q)
    out = []
    for a in range(field.order):
        x, size = frob[a], 1
        while x > a:
            x, size = frob[x], size + 1
        if x == a:
            out.append((a, size))
    return tuple(out)
