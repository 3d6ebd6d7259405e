"""Zeta L-polynomials from point counts, class numbers, census/count
conversions, and the small arithmetic identities used by the genus-4
uniqueness argument.  ``analyse_counts`` is the one zeta pipeline of
``ffc verify``, ``ffc zeta`` and the table64 survivor.

Everything here is exact integer arithmetic; a non-integral intermediate
is a hard error by design, since it is the detector for singular models
and miscounted points, and ``analyse_counts`` reports it as a problem line.

``analyse_counts`` also proves that L is a Weil polynomial, as a curve's
must be: every inverse root alpha has |alpha| = sqrt(q).  That holds iff
every root of the degree-g polynomial R with T^g R(T + q/T) = T^(2g) L(1/T)
is real and lies in [-2 sqrt(q), 2 sqrt(q)] (``real_weil_polynomial``,
``roots_in_weil_interval``).  The test takes the square-free part of R,
divides out its roots at the ends, and counts the roots strictly inside
with a Sturm sequence; each sign at +-2 sqrt(q) is an exact sign in
Z[sqrt(q)].  It stays in integers (pseudo-remainders, primitive parts),
so no rational-number module is imported.

The Weil test is the one criterion that L is a curve's, so the records
``PointCounts``, ``LPoly`` and ``PlaceCensus`` check nothing: the L of
``l_polynomial`` has a_0 = 1, degree 2g and the functional equation by
construction, a Weil polynomial extends to counts within the Weil
bound and has L(1) >= 1, and a nonnegative census makes every count
nonnegative.  Only counts past the cross-check depth are bounded on
their own (``analyse_counts``).
"""

from __future__ import annotations

from math import gcd

from .polyring import moebius_mu
from .records import record


class CountInconsistencyError(ValueError):
    """Point counts are not those of a curve of the asserted genus."""


class PointCounts(record("PointCounts", "q g counts")):
    """N_1..N_m over GF(q^n) for a curve of asserted genus g."""

    __slots__ = ()

    def power_sums(self) -> list[int]:
        return [self.q ** n + 1 - N for n, N in enumerate(self.counts, start=1)]


class LPoly(record("LPoly", "q g coeffs")):
    """Integer numerator of the zeta function: a_0..a_2g, a_0 = 1."""

    __slots__ = ()


class PlaceCensus(record("PlaceCensus", "counts")):
    """B_d = number of places of degree exactly d, for d = 1..max_degree."""

    __slots__ = ()

    @property
    def max_degree(self) -> int:
        return len(self.counts)

    def b(self, d: int) -> int:
        if not 1 <= d <= self.max_degree:
            raise ValueError(f"census only covers degrees 1..{self.max_degree}")
        return self.counts[d - 1]

    def as_dict(self) -> dict[int, int]:
        return {d: b for d, b in enumerate(self.counts, start=1)}


def l_polynomial(counts: PointCounts) -> LPoly:
    """Reconstruct L(t) from N_1..N_g via Newton's identities.

    Power sums S_n = q^n + 1 - N_n determine the elementary symmetric
    functions e_1..e_g of the 2g inverse roots; a_i = (-1)^i e_i and the
    upper half follows from the functional equation.
    """
    g, q = counts.g, counts.q
    if len(counts.counts) < g:
        raise ValueError(f"need counts through N_{g} to reconstruct L")
    S = counts.power_sums()
    e = [1]
    for n in range(1, g + 1):
        acc = sum((-1) ** i * e[i] * S[n - i - 1] for i in range(n))
        num = (-1) ** (n + 1) * acc
        if num % n:
            raise CountInconsistencyError(
                f"Newton identity gives non-integer e_{n} = {num}/{n}")
        e.append(num // n)
    a = [(-1) ** i * e[i] for i in range(g + 1)]
    a += [q ** (i - g) * a[2 * g - i] for i in range(g + 1, 2 * g + 1)]
    return LPoly(q, g, tuple(a))


def class_number(L: LPoly) -> int:
    """h = L(1), the product of 1 - alpha over the inverse roots alpha of L;
    positive when L is a Weil polynomial, as |alpha| = sqrt(q) > 1."""
    return sum(L.coeffs)


def extend_counts(L: LPoly, up_to: int) -> PointCounts:
    """N_1..N_up_to from the power-sum recurrence induced by L."""
    g, q = L.g, L.q
    e = [(-1) ** i * L.coeffs[i] for i in range(2 * g + 1)]
    S: list[int] = []
    for n in range(1, up_to + 1):
        acc = sum((-1) ** (i + 1) * e[i] * S[n - i - 1]
                  for i in range(1, min(n - 1, 2 * g) + 1))
        if n <= 2 * g:
            acc += (-1) ** (n + 1) * n * e[n]
        S.append(acc)
    return PointCounts(q, g, tuple(q ** n + 1 - s for n, s in enumerate(S, start=1)))


def census_from_counts(counts) -> PlaceCensus:
    """Moebius inversion B_n = (1/n) * sum_{d|n} mu(n/d) N_d of N_1..N_m."""
    N = tuple(counts)
    B = []
    for n in range(1, len(N) + 1):
        tot = sum(moebius_mu(n // d) * N[d - 1] for d in range(1, n + 1) if n % d == 0)
        if tot % n or tot < 0:
            raise CountInconsistencyError(
                f"census inversion gives B_{n} = {tot}/{n}")
        B.append(tot // n)
    return PlaceCensus(tuple(B))


# ---------------------------------------------------------------------------
# the Weil test; integer polynomials are coefficient lists, lowest degree
# first, with no trailing zeros ([] is zero)

def real_weil_polynomial(L: LPoly) -> list[int]:
    """The monic R of degree g with T^g R(T + q/T) = T^(2g) L(1/T), whose
    roots are alpha + q/alpha over the inverse roots alpha of L:
    R = a_g + sum_k a_(g-k) D_k, where D_k(T + q/T) = T^k + (q/T)^k, so
    D_0 = 2, D_1 = x and D_(k+1) = x D_k - q D_(k-1)."""
    q, g, a = L.q, L.g, L.coeffs
    R = [a[g]] + [0] * g
    prev, cur = [2], [0, 1]
    for k in range(1, g + 1):
        for i, c in enumerate(cur):
            R[i] += a[g - k] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= q * c
        prev, cur = cur, nxt
    return R


def roots_in_weil_interval(R, q: int) -> bool:
    """Whether every root of the nonzero integer polynomial R is real and
    lies in [-2 sqrt(q), 2 sqrt(q)].  The square-free part of R, less its
    roots at the ends (its gcd with x^2 - 4q), must have as many roots
    strictly inside as its degree; a Sturm sequence counts them."""
    S = _exact_quotient(R, _gcd(R, _derivative(R)))
    S = _exact_quotient(S, _gcd(S, [-4 * q, 0, 1]))
    seq, nxt = [S], _derivative(S)
    while nxt:  # then minus each remainder, up to a positive factor
        seq.append(nxt)
        nxt = _primitive([-c for c in _remainder(seq[-2], nxt)])
    inside = _sign_changes(seq, q, -2) - _sign_changes(seq, q, 2)
    return inside == len(S) - 1


def _derivative(p):
    return [k * c for k, c in enumerate(p)][1:]


def _primitive(p):
    """p over the gcd of its coefficients, so with the same signs."""
    content = gcd(*p)
    return [c // content for c in p] if content else p


def _remainder(a, b):
    """A positive multiple of the remainder of a by b: each step scales by
    |lead(b)| rather than lead(b), so the signs are the remainder's."""
    r, m, s = list(a), abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(r) >= len(b):
        c, shift = s * r[-1], len(r) - len(b)
        r = [m * x for x in r]
        for i, x in enumerate(b):
            r[shift + i] -= c * x
        while r and not r[-1]:
            r.pop()
    return r


def _gcd(a, b):
    """The gcd over Q of a (nonzero) and b, primitive with a positive
    leading coefficient."""
    while b:
        a, b = b, _primitive(_remainder(a, b))
    return _primitive(a if a[-1] > 0 else [-c for c in a])


def _exact_quotient(a, b):
    """a / b for a primitive b that divides a over Q: by Gauss's lemma the
    quotient is integral, so each step divides exactly."""
    a, quo = list(a), [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(quo))):
        quo[k] = c = a[k + len(b) - 1] // b[-1]
        for i, x in enumerate(b):
            a[k + i] -= c * x
    return quo


def _sign_changes(seq, q: int, c: int) -> int:
    """Sign changes along seq at x = c sqrt(q), zeros skipped."""
    signs = [s for s in (_sign_at(p, q, c) for p in seq) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sign_at(p, q: int, c: int) -> int:
    """The sign of p(c sqrt(q)) = u + v sqrt(q), u and v integers: the
    sign they share, else that of the larger of u^2 and q v^2."""
    u = v = 0
    for k, x in enumerate(p):
        term = x * c ** k * q ** (k // 2)
        if k % 2:
            v += term
        else:
            u += term
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    d = u * u - q * v * v
    return su if d > 0 else sv if d < 0 else 0


def analyse_counts(q: int, g: int, counts, through: int):
    """(l_coeffs, h, census, cross_checked, problems) of N_1..N_m (m >= g)
    for a curve of genus g over GF(q): L from N_1..N_g, h = L(1), the
    degrees g < d <= through where N_d meets the L-extension, and the
    Moebius-inverted census.  Each failure is a problem line, in this
    order: a non-integral Newton coefficient (L is then (), h 0, nothing
    is cross-checked), an L that is not a Weil polynomial, a cross-check
    mismatch, and past ``through``, where nothing is cross-checked, a
    count beyond the Weil bound or a negative count in the L-extension;
    then a non-integral or negative census (which is then ()).
    """
    problems, l_coeffs, h, checked, census = [], (), 0, [], ()
    try:
        L = l_polynomial(PointCounts(q, g, counts))
    except CountInconsistencyError as exc:
        problems.append(str(exc))
    else:
        l_coeffs, h = L.coeffs, class_number(L)
        if not roots_in_weil_interval(real_weil_polynomial(L), q):
            problems.append("L is not a Weil polynomial: not every inverse root "
                            f"has absolute value sqrt({q})")
        extended = extend_counts(L, len(counts)).counts
        for m in range(g + 1, len(counts) + 1):
            N, E = counts[m - 1], extended[m - 1]
            if m > through:  # not cross-checked: the Weil bound, squared, and E's sign
                if (N - (q ** m + 1)) ** 2 > 4 * g ** 2 * q ** m:
                    problems.append(f"N_{m}={N} violates the Weil bound for g={g}, q={q}")
                if E < 0:
                    problems.append(f"L-extension: negative count N_{m}")
            elif N != E:
                problems.append(f"N_{m}: enumeration {N} vs L-extension {E}")
            else:
                checked.append(m)
    try:
        census = census_from_counts(counts).counts
    except CountInconsistencyError as exc:
        problems.append(str(exc))
    return l_coeffs, h, census, tuple(checked), tuple(problems)


def census_to_counts(census: PlaceCensus, up_to: int) -> list[int]:
    """N_m = sum_{d|m} d * B_d for m <= up_to."""
    if up_to > census.max_degree:
        raise ValueError(
            f"census truncated at degree {census.max_degree}, need {up_to}")
    return [sum(d * census.b(d) for d in range(1, m + 1) if m % d == 0)
            for m in range(1, up_to + 1)]


def hurwitz_different_degree(g_cover: int, g_base: int, n: int) -> int:
    """deg Diff from the Hurwitz genus formula: 2g_K - 2 - n(2g_F - 2)."""
    return 2 * g_cover - 2 - n * (2 * g_base - 2)


def cyclic_extension_count(h: int, q: int, t: int, d: int) -> int:
    """Number of degree-d cyclic extensions with conductor dividing a
    fixed degree-t place: d when d divides h*(q^t - 1)/(q - 1), else 0."""
    bound = h * (q ** t - 1) // (q - 1)
    return d if bound % d == 0 else 0
