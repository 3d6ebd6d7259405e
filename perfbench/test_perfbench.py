"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the real workloads (about two minutes on a 2-core machine).
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import covergen
import gate
import run

sys.path.insert(0, str(run.SRC))
import kernels  # noqa: E402  (imports ffcn from the checkout)


@pytest.fixture(scope="module")
def bench():
    b = run.Bench(time.perf_counter(), run.ALL_LIMIT_S)
    yield b
    b.close()


def _run(bench, name, seed=covergen.DEFAULT_SEED):
    return bench.start(run.WORKLOADS[name], seed, 0.0)


@pytest.fixture(scope="module")
def outputs(bench):
    """stdout of one untraced sample of each serial workload."""
    out = {}
    for name in ("catalog_verify", "table64_search"):
        r = _run(bench, name)
        s = bench.sample(r, bench.target(r))
        assert not r.problems, r.problems
        out[name] = s.stdout
    return out


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == [n for n in run.WORKLOADS if n in names]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", ["table64_search", "catalog_verify", "cover_census"])
def test_count_pass_repeats_exactly(bench, name):
    r = _run(bench, name)
    _, first = bench.trace_pass(r, "counts")
    _, second = bench.trace_pass(r, "counts")
    assert not r.problems, r.problems
    assert first == second
    assert not run.self_check(r.workload, [], first)


def test_non_default_seed_passes_the_gate(bench):
    seed = covergen.DEFAULT_SEED + 6
    r = _run(bench, "cover_census", seed)
    assert r.inputs != covergen.draw_covers(covergen.DEFAULT_SEED)
    bench.sample(r, bench.target(r))
    assert r.attempted == 1 and not r.problems, r.problems


def test_baseline_copy_passes_the_gate(bench):
    r = _run(bench, "table64_search")
    bench.sample(r, bench.target(r), run.BASELINE)
    assert r.attempted == 1 and not r.problems, r.problems


def test_times_are_scaled_by_the_baseline():
    base = {"setup_s": [0.2, 0.3, 0.2], "wall_s": [3.0, 2.0], "cpu_s": [2.9, 2.1],
            "peak_rss_mb": [17.0, 17.2]}
    same = run.end_to_end_metrics("table64_search", base, base)
    wall, cpu = run.BASELINE_S["table64_search"]
    assert same == pytest.approx({"setup_s": run.BASELINE_SETUP_S, "wall_s": wall,
                                  "cpu_s": cpu, "peak_rss_mb": 17.1})
    slower = dict(base, wall_s=[3.3, 2.2], peak_rss_mb=[20.0])
    m = run.end_to_end_metrics("table64_search", slower, base)
    assert m["wall_s"] == pytest.approx(1.1 * wall)
    assert m["setup_s"] == pytest.approx(same["setup_s"])
    assert m["peak_rss_mb"] == 20.0
    # one outlying sample does not move the estimate much
    assert run.ratio([1.0, 1.0, 1.0, 5.0], [1.0, 1.0, 1.0]) == 1.0


def test_gate_rejects_wrong_catalog_reports(outputs):
    good = json.loads(outputs["catalog_verify"])
    digest = run.EXPECTED["catalog_verify"]
    assert gate.check_catalog(outputs["catalog_verify"], digest) == []

    def problems_after(edit):
        report = json.loads(outputs["catalog_verify"])
        edit(report)
        return gate.check_catalog(gate._render(report).encode(), None)

    curves = {c["id"]: i for i, c in enumerate(good["curves"])}
    viii, vii = curves["viii"], curves["vii"]
    assert problems_after(lambda r: r["curves"][viii]["counts"].__setitem__(5, 91))
    assert problems_after(lambda r: r["curves"][vii]["l_coeffs"].__setitem__(1, -3))
    assert problems_after(lambda r: r["curves"][viii].__setitem__("genus_computed", 3))
    assert problems_after(lambda r: r["curves"][0]["census"].__setitem__(0, 9))
    assert problems_after(lambda r: r["curves"].pop())
    # a report that passes every check but differs in any byte
    assert gate.check_catalog(outputs["catalog_verify"].replace(b'"pass"', b'"PASS"'),
                              digest)
    assert gate.check_catalog(outputs["catalog_verify"].replace(b"\n", b"\r\n"), None)


def test_gate_rejects_wrong_table64_reports(outputs):
    assert gate.check_table64(outputs["table64_search"], run.EXPECTED["table64_search"]) == []

    def problems_after(edit):
        report = json.loads(outputs["table64_search"])
        edit(report)
        return gate.check_table64(gate._render(report).encode(), None)

    an = ("summary", "survivor_analysis")
    assert problems_after(lambda r: r[an[0]][an[1]]["counts"].__setitem__(4, 16))
    assert problems_after(lambda r: r[an[0]][an[1]]["census"].__setitem__(4, 4))
    assert problems_after(lambda r: r["rows"][0].__setitem__("computed_min_degree", 4))
    assert problems_after(lambda r: r["rows"][5].__setitem__("status", "fail"))


def test_cover_generator_is_seeded_and_in_standard_form():
    a, b = covergen.draw_covers(5), covergen.draw_covers(5)
    assert a == b and a != covergen.draw_covers(6)
    assert [c["id"] for c in a[:2]] == ["vii", "vi"]
    for field in ("vii", "vi"):
        fs = [c["f"] for c in a if c["id"].startswith(field + "-")]
        assert len(fs) == covergen.COVERS_PER_FIELD == len(set(fs))
        assert a[0 if field == "vii" else 1]["f"] not in fs
    # (x + 1)^2 (x + 2) and x^3 are not squarefree over GF(3); x^3 + 2x + 2 is
    assert not covergen._squarefree_mod_p((2, 2, 1, 1), 3)
    assert not covergen._squarefree_mod_p((0, 0, 0, 1), 3)
    assert covergen._squarefree_mod_p((2, 2, 0, 1), 3)
    assert covergen.poly_str((3, 2, 0, 1), 2, 2) == "x^3+ax+(a+1)"


def test_kernel_references_catch_a_wrong_kernel(monkeypatch):
    import random

    from ffcn.gf import GF
    assert kernels.clmul_mod(2, 2, 0b111, 2) == 3  # a^2 = a + 1 in GF(4)
    assert kernels.add_digits(5, 7, 3, 2) == 0  # (2 + t) + (1 + 2t) = 0 in GF(9)
    problems = []
    kernels._binary_kernel(random.Random(1), "mul", 2, 6, "mul", problems)
    assert problems == []
    real_mul = GF.mul
    monkeypatch.setattr(GF, "mul", lambda self, a, b: real_mul(self, a, b) ^ (a == b == 3))
    kernels._binary_kernel(random.Random(1), "mul", 2, 6, "mul", problems)
    assert problems


def test_without_the_program_the_benchmark_exits_nonzero():
    bare = run.WORK / "bare-test"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog_verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
