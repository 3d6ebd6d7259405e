"""Exact arithmetic in small finite fields GF(p^k) with p in {2, 3}.

Elements are plain ints in ``range(p**k)``: the base-p digits of the int,
least significant first, are the coordinates of the element in the
polynomial basis ``1, t, ..., t**(k-1)``, where ``t`` is a root of the
field modulus.  That integer value is also the canonical element
ordering used for every tie-break in this library, so fields are
reproducible across runs with no external tables.

:func:`make_field` builds fields of order up to ``FIELD_MAX`` = 2^17,
the enumeration budget, and refuses larger ones: GF(2^17), GF(3^10) and
GF(4^8) are the largest.  GF(p) has the modulus t and the generator
p - 1.  For k >= 2 it walks the monic candidates m of degree k, ordered
by their lower coefficients read as an element, and skips those with a
root in GF(p), so that every t + c is a unit of Z_p[t]/(m).  In each
candidate it walks the powers of g = t, t + 1, ..., t + p - 1 in turn.
The modulus is the first candidate in which some g has p^k - 1 distinct
powers, and the first such g is the generator: its powers are the table
``exp[i] = g^i``.  The walk also proves m irreducible: p^k - 1 distinct
powers of a unit are p^k - 1 distinct units, so every nonzero residue is
a unit.  A walk stops when it returns to 1, within p^k - 1 steps, as a
unit of a ring of p^k elements has order below p^k.  Where that order r
does not divide p^k - 1, m is reducible, and its other g are skipped.

A step e -> e*g multiplies by t and adds c*e.  For p = 2, e*t is a
shift, with the modulus xored in when it overflows, and for g = t + 1 e
is xored in as well.  For p = 3, e*t is a digit shift, with the top
digit d folded back as -d times the lower coefficients of m.  The step
is GF(3)-linear, so e*g is the digit-wise sum of the images of the low
and high half-words of e, each image built once per walk.  Digit-wise
sums are lookups in a table of sums of half-words.  With a digit loop
per step, GF(3^9) and GF(3^10) took about 0.87 s to build instead of
0.11 s.

Then ``mul``, ``inv`` and ``pow`` are table lookups, with
``log[g^i] = i``: a*b is ``exp[log[a] + log[b]]``.  ``log[0]``
points into a run of zeros after two periods of ``exp``, so a product
with zero needs no test.  For p = 2, ``add`` and ``sub`` are xor and
``neg`` is the identity.  For p = 3 ``add`` uses the Zech logarithm
``zech[n] = log(1 + g^n)``: a + b = a*(1 + b/a) is
``exp[log[a] + zech[log[b] - log[a]]]``; -a is ``exp[log[a] + (q-1)/2]``,
and a - b is a + (-b).  Where 1 + g^n = 0, ``zech[n]`` is ``log[0]`` and
lands in the zeros.

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
from itertools import repeat

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


class GF:
    """The finite field GF(p^k).  Construct via :func:`make_field` (cached).

    All operations take and return plain ints encoding elements as
    described in the module docstring.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...], powers: list[int]):
        """The field with this modulus (k+1 coefficients, little-endian,
        monic) and the powers g^0, ..., g^(q-2) of its generator g.

        ``exp``, the list ``powers`` extended in place (so no copy of it
        is alive), holds two periods of g^i, so a sum of two logs needs no
        reduction, then zeros for the sentinel ``log[0] = 2(q-1)``.
        ``zech`` holds one period: it is indexed by a difference of two
        logs below q - 1, and a negative index wraps to the same residue."""
        self.p = p
        self.k = k
        self.order = q = p ** k
        self.modulus = modulus
        zero = 2 * (q - 1)
        self._log = log = [zero] * q
        for i, e in enumerate(powers):
            log[e] = i
        self._zech = self._trace_bits = None
        if p == 3:
            # 1 + e changes only the constant digit of e
            self._zech = [log[e + 1 if e % 3 < 2 else e - 2] for e in powers]
        self._exp = exp = powers
        exp += exp
        exp += repeat(0, zero + 1)
        if p == 2:
            self._trace_bits = sum(self._trace_sum(1 << i) << i for i in range(k))

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
            return (a & self._trace_bits).bit_count() & 1
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


@lru_cache(maxsize=None)
def _digit_sums(h: int) -> tuple[int, ...]:
    """add[x*B + y] = x + y digit by digit, for x, y < B = 3^h; each round
    gives x and y one more significant digit."""
    add, w = [0], 1
    for _ in range(h):
        rows = [add[x * w:(x + 1) * w] for x in range(w)]
        add = [a + w * ((xd + yd) % 3) for xd in range(3) for row in rows
               for yd in range(3) for a in row]
        w *= 3
    return tuple(add)


def _walk(p: int, modulus: tuple[int, ...], c: int) -> list[int]:
    """The powers 1, g, g^2, ... of g = t + c in Z_p[t]/(modulus), up to
    the first return to 1 and at most p^k - 1 of them, stepped as the
    module docstring says."""
    k = len(modulus) - 1
    powers = []
    if p == 2:
        mask, top, e = _undigits(modulus, 2), 1 << k, 1
        for _ in range(top - 1):
            powers.append(e)
            et = e << 1
            if et & top:
                et ^= mask
            e = et ^ e if c else et
            if e == 1:
                break
        return powers
    # e = lo + B*hi, its low h digits and its high k - h.  e -> e*g is
    # GF(3)-linear, so e*g is the digit-wise sum of the images of lo and
    # B*hi, each held as its (high, low) halves
    h = (k + 1) // 2
    B, top_place = 3 ** h, 3 ** (k - h - 1)  # the place of hi's top digit
    add = _digit_sums(h)

    def dsum(x, y):  # x + y digit by digit, for x, y < 3^k
        (xh, xl), (yh, yl) = divmod(x, B), divmod(y, B)
        return B * add[B * xh + yh] + add[B * xl + yl]

    scale = [add[(B + 1) * x] if c == 2 else c * x for x in range(B)]  # c*x; 2x is x + x
    fold = [_undigits([-d * a % 3 for a in modulus[:k]], 3) for d in range(3)]
    # lo*t is 3*lo; B*hi*t is 3*B*hi with its top digit folded back.  The
    # halves of lo's image are times B, so that each sum is one lookup
    lo_img = [(B * (y // B), B * (y % B))
              for y in (dsum(3 * x, scale[x]) for x in range(B))]
    hi_img = [divmod(dsum(dsum(3 * B * (x % top_place), fold[x // top_place]), B * scale[x]), B)
              for x in range(3 ** (k - h))]
    lo, hi = 1, 0
    for _ in range(3 ** k - 1):
        powers.append(lo + B * hi)
        lo_hi, lo_lo = lo_img[lo]
        hi_hi, hi_lo = hi_img[hi]
        lo, hi = add[lo_lo + hi_lo], add[lo_hi + hi_hi]
        if lo == 1 and hi == 0:
            break
    return powers


def _primitive_powers(p: int, modulus: tuple[int, ...]) -> list[int] | None:
    """The walk of the first g = t + c with p^k - 1 distinct powers in
    Z_p[t]/(modulus), which is then a field, or None if there is none."""
    # a candidate with a root -c in GF(p) has the factor t + c
    if not all(_undigits(modulus, a) % p for a in range(p)):
        return None
    n = p ** (len(modulus) - 1) - 1
    for c in range(p):
        powers = _walk(p, modulus, c)
        if len(powers) == n:
            return powers
        if n % len(powers):
            return None  # in a field, the order of g divides p^k - 1
    return None


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
        return GF(p, 1, (0, 1), [pow(p - 1, i, p) for i in range(p - 1)])
    for n in range(p ** k):
        modulus = tuple(_digits(n, p, k)) + (1,)
        powers = _primitive_powers(p, modulus)
        if powers:
            # a primitive polynomial of degree k exists, so this is reached
            return GF(p, k, modulus, powers)


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
    h = dst._exp[(dst.order - 1) // (q - 1)]
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
