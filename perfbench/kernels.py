"""GF(p^k) kernel micro-timings through the public ``GF`` methods and ``embed``.

    python kernels.py SEED

Times a seeded batch of elements per kernel after the field's tables are
built, as the median over repetitions of the batch, in ns per operation
(the loop that feeds the batch is included).  Every result of the batch
is checked against an independent reference: carry-less multiplication
modulo the field modulus for p = 2, digit-wise addition for p = 3, and
the ring-homomorphism laws for ``embed``.  Prints one JSON object with
``metrics`` and ``problems``; exits 1 if any check failed.
"""

import json
import random
import statistics
import sys
import time

from ffcn.gf import embed, make_field

BATCH = 10000
REPEATS = 7


def _modulus_int(field) -> int:
    return sum(c << i for i, c in enumerate(field.modulus))


def clmul_mod(a: int, b: int, modulus: int, k: int) -> int:
    """a * b in GF(2)[t] / (modulus), elements as bit vectors."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> k) & 1:
            a ^= modulus
    return r


def add_digits(a: int, b: int, p: int, k: int) -> int:
    out, scale = 0, 1
    for _ in range(k):
        out += ((a % p + b % p) % p) * scale
        a, b, scale = a // p, b // p, scale * p
    return out


def _time_batch(op, xs, ys) -> tuple[float, list]:
    runs = []
    out = None
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        out = [op(a, b) for a, b in zip(xs, ys)]
        runs.append((time.perf_counter_ns() - t0) / len(xs))
    return statistics.median(runs), out


def _binary_kernel(rng, name, p, k, op_name, problems):
    field = make_field(p, k)
    q = field.order
    nonzero = op_name in ("mul", "inv")
    xs = [rng.randrange(1 if nonzero else 0, q) for _ in range(BATCH)]
    ys = [rng.randrange(1 if nonzero else 0, q) for _ in range(BATCH)]
    field.mul(1, 1)  # builds exp/log tables where the field has them
    if op_name == "inv":
        ns, out = _time_batch(lambda a, _b: field.inv(a), xs, ys)
    else:
        ns, out = _time_batch(getattr(field, op_name), xs, ys)
    m = _modulus_int(field)
    if op_name == "inv" and p == 2:
        ok = all(clmul_mod(a, r, m, k) == 1 for a, r in zip(xs, out))
    elif op_name == "mul" and p == 2:
        ok = out == [clmul_mod(a, b, m, k) for a, b in zip(xs, ys)]
    elif op_name == "add":
        ok = out == [add_digits(a, b, p, k) for a, b in zip(xs, ys)]
    else:
        raise ValueError(f"no reference for {op_name} over GF({p}^{k})")
    if not ok:
        problems.append(f"{name}: results differ from the reference")
    return ns


def _embed_kernel(rng, name, problems):
    src, dst = make_field(2, 2), make_field(2, 12)
    xs = [rng.randrange(src.order) for _ in range(BATCH)]
    embed(1, src, dst)  # finds and caches the subfield root
    ns, out = _time_batch(lambda a, _b: embed(a, src, dst), xs, xs)
    image = [embed(a, src, dst) for a in range(src.order)]
    ms, md = _modulus_int(src), _modulus_int(dst)
    ok = image[0] == 0 and image[1] == 1 and len(set(image)) == src.order
    for a in range(src.order):
        for b in range(src.order):
            ok = ok and image[a ^ b] == image[a] ^ image[b]
            ok = ok and (image[clmul_mod(a, b, ms, src.k)]
                         == clmul_mod(image[a], image[b], md, dst.k))
    if not ok or out != [image[a] for a in xs]:
        problems.append(f"{name}: embed is not a field embedding")
    return ns


KERNELS = (
    ("gf.mul_ns.q16", 2, 4, "mul"),
    ("gf.mul_ns.q64", 2, 6, "mul"),
    ("gf.mul_ns.q4096", 2, 12, "mul"),
    ("gf.inv_ns.q64", 2, 6, "inv"),
    ("gf.add_ns.q243", 3, 5, "add"),
    ("gf.add_ns.q729", 3, 6, "add"),
)
EMBED = "gf.embed_ns.q4-q4096"


def main(argv) -> int:
    rng = random.Random(int(argv[1]))
    problems: list[str] = []
    metrics = {name: _binary_kernel(rng, name, p, k, op, problems)
               for name, p, k, op in KERNELS}
    metrics[EMBED] = _embed_kernel(rng, EMBED, problems)
    print(json.dumps({"metrics": metrics, "problems": problems}, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
