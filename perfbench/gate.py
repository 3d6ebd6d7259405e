"""Correctness gate for the benchmark workloads.

The checks use the paper's claims and this file's own integer arithmetic
(Newton identities, Moebius inversion, Weil bounds), never the program's
own ``status`` fields or its zeta module.  Each ``check_*`` function takes
a workload's raw stdout and returns a list of problems; an empty list
means the run is correct.
"""

from __future__ import annotations

import hashlib
import json

# The paper's catalog: curve id -> (q, genus).  Every curve has h = 1.
CATALOG_CLAIMS = {
    "i": (2, 1), "ii": (2, 2), "iii": (2, 2), "iv": (2, 3),
    "v": (2, 3), "vi": (3, 1), "vii": (4, 1), "viii": (2, 4),
}

# The 64-row search: one survivor, family 2, mask 1011, with no point of
# degree below 4; its census B_1..B_5 and N_5.
SURVIVOR = {"family": 2, "mask": "1011"}
SURVIVOR_CENSUS = [0, 0, 0, 1, 3]
SURVIVOR_N5 = 15
SURVIVOR_GENUS = 4

COVER_CENSUS_DEGREE = 6


# ---------------------------------------------------------------------------
# integer zeta arithmetic, written independently of ffcn.zeta

def _mu(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def l_from_counts(q: int, g: int, counts) -> list[int]:
    """L(t) = sum a_i t^i from N_1..N_g.

    With S_m = q^m + 1 - N_m the power sums of the inverse roots,
    t L'(t) = -L(t) sum S_m t^m gives m a_m = -sum_{i<m} a_i S_{m-i}.
    Raises ValueError when an a_m is not an integer.
    """
    S = [q ** m + 1 - counts[m - 1] for m in range(1, g + 1)]
    a = [1]
    for m in range(1, g + 1):
        num = -sum(a[i] * S[m - i - 1] for i in range(m))
        if num % m:
            raise ValueError(f"a_{m} = {num}/{m} is not an integer")
        a.append(num // m)
    return a + [q ** (i - g) * a[2 * g - i] for i in range(g + 1, 2 * g + 1)]


def counts_from_l(q: int, a, up_to: int) -> list[int]:
    """N_1..N_up_to from L by the same power-sum recurrence."""
    deg = len(a) - 1
    S: list[int] = []
    for m in range(1, up_to + 1):
        s = -(m * a[m] if m <= deg else 0)
        s -= sum(a[i] * S[m - i - 1] for i in range(1, min(m - 1, deg) + 1))
        S.append(s)
    return [q ** m + 1 - s for m, s in enumerate(S, start=1)]


def counts_from_census(census, up_to: int) -> list[int]:
    """N_m = sum over d | m of d * B_d."""
    return [sum(d * census[d - 1] for d in range(1, m + 1) if m % d == 0)
            for m in range(1, up_to + 1)]


def census_from_counts(counts) -> list[int]:
    """B_n = (1/n) sum over d | n of mu(n/d) N_d; ValueError if not integral."""
    out = []
    for n in range(1, len(counts) + 1):
        tot = sum(_mu(n // d) * counts[d - 1] for d in range(1, n + 1) if n % d == 0)
        if tot % n or tot < 0:
            raise ValueError(f"B_{n} = {tot}/{n}")
        out.append(tot // n)
    return out


def zeta_problems(label: str, q: int, g: int, counts, l_coeffs) -> list[str]:
    """Weil bounds, the functional equation, L rebuilt from N_1..N_g, and
    every further N_m reproduced by L."""
    problems = []
    for m, n in enumerate(counts, start=1):
        if (n - q ** m - 1) ** 2 > 4 * g * g * q ** m:
            problems.append(f"{label}: N_{m} = {n} violates the Weil bound")
    a = list(l_coeffs)
    if len(a) != 2 * g + 1 or a[0] != 1:
        return problems + [f"{label}: L has the wrong shape {a}"]
    if any(a[2 * g - i] != q ** (g - i) * a[i] for i in range(g + 1)):
        problems.append(f"{label}: functional equation fails for L = {a}")
    if len(counts) < g:
        return problems + [f"{label}: only {len(counts)} counts for genus {g}"]
    try:
        rebuilt = l_from_counts(q, g, counts)
    except ValueError as exc:
        return problems + [f"{label}: {exc}"]
    if rebuilt != a:
        problems.append(f"{label}: L from N_1..N_{g} is {rebuilt}, report says {a}")
    extended = counts_from_l(q, rebuilt, len(counts))
    if extended != list(counts):
        problems.append(f"{label}: L predicts {extended}, enumeration gave {list(counts)}")
    return problems


# ---------------------------------------------------------------------------
# report digests

def _strip_provenance(obj):
    if isinstance(obj, dict):
        return {k: _strip_provenance(v) for k, v in obj.items() if k != "provenance"}
    if isinstance(obj, list):
        return [_strip_provenance(v) for v in obj]
    return obj


def _render(obj) -> str:
    # the program's JSON report format: indent 2, sorted keys, final newline
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_report(stdout: bytes):
    """(report, problems): the JSON report, and whether it is rendered
    byte for byte in the program's report format."""
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if _render(report).encode() != stdout:
        return report, ["stdout is not in the canonical report rendering"]
    return report, []


def report_digest(report) -> str:
    """sha256 of the canonical rendering, without any ``provenance`` block
    (deterministic run facts the report may carry in later versions)."""
    return hashlib.sha256(_render(_strip_provenance(report)).encode()).hexdigest()


def _digest_problems(report, expected: str | None) -> list[str]:
    if expected is None:
        return []
    got = report_digest(report)
    return [] if got == expected else [f"report digest {got[:12]} != expected {expected[:12]}"]


# ---------------------------------------------------------------------------
# per-workload checks

def check_catalog(stdout: bytes, expected_digest: str | None) -> list[str]:
    """`ffc verify --format json`: all eight curves with the claimed genus,
    h = 1 recomputed from L, and every count consistent with L."""
    report, problems = parse_report(stdout)
    if report is None:
        return problems
    curves = report.get("curves", [])
    ids = [c.get("id") for c in curves]
    if ids != list(CATALOG_CLAIMS):
        return problems + [f"curve ids {ids} != {list(CATALOG_CLAIMS)}"]
    for c in curves:
        q, g = CATALOG_CLAIMS[c["id"]]
        label = f"curve {c['id']}"
        if c["genus_computed"] != g:
            problems.append(f"{label}: genus {c['genus_computed']} != {g}")
            continue
        problems += zeta_problems(label, q, g, c["counts"], c["l_coeffs"])
        if sum(c["l_coeffs"]) != 1:
            problems.append(f"{label}: h = L(1) = {sum(c['l_coeffs'])} != 1")
        try:
            census = census_from_counts(c["counts"])
        except ValueError as exc:
            problems.append(f"{label}: census inversion {exc}")
            continue
        if c["census"] != census[:len(c["census"])] or not c["census"]:
            problems.append(f"{label}: census {c['census']} != {census}")
    return problems + _digest_problems(report, expected_digest)


def check_table64(stdout: bytes, expected_digest: str | None) -> list[str]:
    """`ffc table64 --format json`: 64 rows pass, one survivor (family 2,
    mask 1011) whose least point degree is 4, census (0,0,0,1,3), N_5 = 15."""
    report, problems = parse_report(stdout)
    if report is None:
        return problems
    rows = report.get("rows", [])
    keys = sorted((r["family"], r["mask"]) for r in rows)
    want = sorted((f, format(m, "04b")) for f in (1, 2, 3, 4) for m in range(16))
    if keys != want:
        return problems + ["the 64 (family, mask) rows are not all present once"]
    failing = [(r["family"], r["mask"]) for r in rows if r["status"] != "pass" or r["problems"]]
    if failing:
        problems.append(f"rows not passing: {failing}")
    survivors = []
    for r in rows:
        deg = r["computed_min_degree"]
        if deg == "" or deg >= 4:
            survivors.append({"family": r["family"], "mask": r["mask"]})
        elif not 1 <= deg <= 3:
            problems.append(f"row {r['family']}/{r['mask']}: min degree {deg}")
    if survivors != [SURVIVOR]:
        problems.append(f"rows without a point of degree < 4: {survivors}")
    summary = report.get("summary", {})
    if summary.get("survivors") != [SURVIVOR]:
        problems.append(f"summary survivors {summary.get('survivors')}")
    an = summary.get("survivor_analysis")
    if not an:
        return problems + ["no survivor analysis"]
    counts = an["counts"]
    if len(counts) < 5 or counts[4] != SURVIVOR_N5:
        problems.append(f"survivor N_5 from {counts} != {SURVIVOR_N5}")
    problems += zeta_problems("survivor", 2, SURVIVOR_GENUS, counts, an["l_coeffs"])
    try:
        census = census_from_counts(counts)
    except ValueError as exc:
        census = [f"not integral: {exc}"]
    if census != SURVIVOR_CENSUS or an["census"] != SURVIVOR_CENSUS:
        problems.append(f"survivor census {an['census']} (recomputed {census}) "
                        f"!= {SURVIVOR_CENSUS}")
    return problems + _digest_problems(report, expected_digest)


def check_covers(stdout: bytes, inputs, expected_digest: str | None,
                 catalog_digest: str | None) -> list[str]:
    """Cover census report: one record per input cover, in input order.

    For each cover, N_m = sum d B_d from the census; L is rebuilt from
    N_1..N_g and must reproduce N_m through degree 6.  The catalog covers
    must have h = 1, and their records alone must match ``catalog_digest``
    whatever the other inputs are.
    """
    report, problems = parse_report(stdout)
    if report is None:
        return problems
    records = report.get("covers", [])
    if [r.get("id") for r in records] != [c["id"] for c in inputs]:
        return problems + ["cover records do not match the inputs"]
    for rec, inp in zip(records, inputs):
        label = f"cover {inp['id']}"
        census = rec["census"]
        if len(census) != COVER_CENSUS_DEGREE:
            problems.append(f"{label}: census has {len(census)} degrees")
            continue
        if rec["genus"] != inp["genus"]:
            problems.append(f"{label}: genus {rec['genus']} != {inp['genus']}")
            continue
        counts = counts_from_census(census, COVER_CENSUS_DEGREE)
        problems += zeta_problems(label, inp["q"], inp["genus"], counts, rec["l_coeffs"])
        if rec["extended_counts"] != counts or rec["census_from_counts"] != census:
            problems.append(f"{label}: the program's zeta round trip disagrees "
                            f"with its census")
        if inp.get("catalog") and sum(rec["l_coeffs"]) != 1:
            problems.append(f"{label}: h = {sum(rec['l_coeffs'])} != 1")
        if rec["h"] != sum(rec["l_coeffs"]):
            problems.append(f"{label}: h {rec['h']} != L(1)")
    catalog = {"covers": [r for r, i in zip(records, inputs) if i.get("catalog")]}
    problems += _digest_problems(catalog, catalog_digest)
    return problems + _digest_problems(report, expected_digest)
