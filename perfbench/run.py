"""The ffcn benchmark: time from starting ``ffc`` to the verdict on the
paper's claims, with per-layer spans and exact work counts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Every sample is a fresh process, because the program's lru caches and
GF tables are built per process and a user pays for them on every run.
``--trace 0`` measures the end-to-end metrics with nothing installed in
the program, in alternation with the seed commit's ffcn kept in
``baseline/``, and scales the program's times by the baseline's (see
BASELINE_S); ``--trace 1`` runs the traced and counting passes and the GF
kernel timings and reports the per-layer metrics.  Every output is
checked by ``gate.py``.  With one workload the last line of stdout is
the JSON result; ``--workload all`` prints one row per workload instead.
See NOTES.md for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import covergen
import gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline"  # holds ffcn/ as it was at the seed commit
WORK = ROOT / ".perfbench_work"
EXPECTED = json.loads((BENCH / "expected.json").read_text())

# one workload's run must end within 180 s: its processes are killed at
# this limit, and it stops starting samples once the next one would end
# after its deadline
RUN_LIMIT_S = 170.0
ALL_LIMIT_S = 3600.0  # --workload all
MIN_ROUNDS = 2
MIN_STARTS = 2
STARTS_SHARE = 0.1

# The machine's speed drifts by up to half over minutes, alike for the
# program and for a copy of it (NOTES.md, Noise).  So every run measures
# the program and the baseline copy of the seed commit's ffcn in
# alternation, and reports the program's time scaled by the baseline's
# time on the benchmark's reference machine over the baseline's time in
# this run.  These are the seed commit's medians there (NOTES.md,
# Baseline); per workload, (wall_s, cpu_s).
BASELINE_SETUP_S = 0.113
BASELINE_S = {"catalog_verify": (3.14, 3.14), "table64_search": (1.52, 1.52),
              "cover_census": (8.30, 8.29), "catalog_verify_2w": (2.64, 3.11)}


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    ffc_args: tuple[str, ...] | None  # None: the cover census script
    fires: frozenset  # layer groups whose spans must fire; all others must not


CATALOG_LAYERS = frozenset({"varieties", "polyring", "covers", "zeta", "catalog", "cli"})
WORKLOADS = {w.name: w for w in (
    Workload("catalog_verify", 1, ("verify", "--format", "json"), CATALOG_LAYERS),
    Workload("table64_search", 1, ("table64", "--format", "json"),
             frozenset({"varieties", "witness", "zeta", "table64", "cli"})),
    Workload("cover_census", 1, None, frozenset({"polyring", "covers", "zeta"})),
    Workload("catalog_verify_2w", 2, ("verify", "--format", "json"), CATALOG_LAYERS),
)}

# layer group -> names whose call counts the span self-check reads
LAYER_SPANS = {
    "varieties": ("varieties.points_on_model", "varieties.smoothness_probe",
                  "varieties.curve_point_counts"),
    "witness": ("varieties.min_point_degree",),
    "polyring": ("polyring.residue_field", "polyring.monic_irreducibles",
                 "polyring.Poly.eval_in"),
    "covers": ("covers.place_census", "covers.splitting_type", "covers.cover_genus"),
    "zeta": ("zeta.l_polynomial", "zeta.extend_counts", "zeta.census_from_counts"),
    "table64": ("table64.verify_row", "table64.find_survivors", "table64.survivor_analysis"),
    "catalog": ("catalog.verify_curve",),
    "cli": ("cli.main",),
}
CURVE_IDS = tuple(gate.CATALOG_CLAIMS)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> unit, in report order; where each value comes from
# is in per_layer_metrics()
PER_LAYER = (
    [("varieties.points_on_model." + m, u) for m, u in (
        ("calls", "count"), ("self_s", "s"), ("points_searched", "count"),
        ("points_found", "count"), ("yield", "ratio"))]
    + [(f"varieties.points_on_model.q{2 ** m}.self_s", "s") for m in range(1, 7)]
    + [("varieties.smoothness_probe.misses", "count"), ("varieties.smoothness_probe.self_s", "s"),
       ("varieties.min_point_degree.hits", "count"), ("varieties.min_point_degree.misses", "count"),
       ("varieties.min_point_degree.self_s", "s"), ("varieties.curve_point_counts.calls", "count")]
    + [("polyring.residue_field." + m, u) for m, u in (
        ("misses", "count"), ("self_s", "s"), ("roots_tried", "count"), ("yield", "ratio"))]
    + [("polyring.monic_irreducibles." + m, u) for m, u in (
        ("misses", "count"), ("self_s", "s"), ("candidates", "count"), ("found", "count"),
        ("yield", "ratio"))]
    + [("polyring.Poly.eval_in.calls", "count")]
    + [(f"gf.{op}.calls", "count") for op in ("mul", "add", "inv", "pow", "embed")]
    + [("gf.make_field.misses", "count")]
    + [(name, "ns") for name in ("gf.mul_ns.q16", "gf.mul_ns.q64", "gf.mul_ns.q4096",
                                 "gf.inv_ns.q64", "gf.add_ns.q243", "gf.add_ns.q729",
                                 "gf.embed_ns.q4-q4096")]
    + [("covers.place_census.calls", "count"), ("covers.place_census.self_s", "s"),
       ("covers.splitting_type.calls", "count"), ("covers.splitting_type.self_s", "s"),
       ("covers.cover_genus.calls", "count")]
    + [(f"zeta.{fn}.self_s", "s") for fn in ("l_polynomial", "extend_counts", "census_from_counts")]
    + [("table64.verify_row.self_s", "s"), ("table64.find_survivors.s", "s"),
       ("table64.survivor_analysis.s", "s")]
    + [(f"catalog.verify_curve.{cid}.s", "s") for cid in CURVE_IDS]
    + [("catalog.verify_curve.max_share", "ratio"), ("cli.main.self_s", "s"),
       ("cli.report_bytes", "bytes"), ("trace.overhead_s", "s")]
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or it does not start)."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


@dataclass
class Run:
    """One workload's state within a benchmark invocation."""

    workload: Workload
    seed: int
    deadline: float
    dir: Path
    inputs: list | None = None
    setups: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    baseline_setups: list = field(default_factory=list)
    baseline_samples: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _env(threads: int, path: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(path), PYTHONHASHSEED="0", FFC_THREADS=str(threads),
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    return env


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Launcher:
    """The small process (launcher.py) that starts every measured process,
    so that their peak RSS is their own and not this benchmark's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True)

    def spawn(self, argv, env, tag: Path, limit: float) -> Sample:
        """Run one process group to completion, killing it after ``limit``
        seconds; wall, CPU and peak RSS from wait4, which covers the
        children it reaped (the CLI's pool)."""
        out, err = Path(f"{tag}.out"), Path(f"{tag}.err")
        request = {"argv": argv, "env": env, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        pid = int(self.proc.stdout.readline())
        timer = threading.Timer(max(limit, 1.0), _kill_group, (pid,))
        timer.start()
        try:
            res = json.loads(self.proc.stdout.readline())
        finally:
            timer.cancel()
        _kill_group(pid)  # pool workers orphaned by a killed parent
        return Sample(res["wall_s"], res["cpu_s"], res["maxrss_kb"] / 1024,
                      os.waitstatus_to_exitcode(res["status"]),
                      out.read_bytes(), err.read_bytes())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


class Bench:
    """Starts processes and measures workloads, within an overall time
    limit in seconds from ``t_start``.  ``close`` stops its launcher."""

    def __init__(self, t_start: float, limit: float = RUN_LIMIT_S):
        self.t_start = t_start
        self.limit = limit
        self.n = 0
        self.launcher = Launcher()

    def close(self):
        self.launcher.close()

    def remaining(self) -> float:
        return self.limit - (time.perf_counter() - self.t_start)

    def run(self, cmd, threads: int, where: Path, path: Path = SRC) -> Sample:
        """``cmd`` with ffcn imported from ``path``: the program or the baseline."""
        self.n += 1
        return self.launcher.spawn(cmd, _env(threads, path), where / f"p{self.n}",
                                   self.remaining())

    # -- one workload ----------------------------------------------------

    def start(self, w: Workload, seed: int, seconds: float) -> Run:
        where = WORK / f"{w.name}-{os.getpid()}"
        where.mkdir(parents=True, exist_ok=True)
        run = Run(w, seed, time.perf_counter() + seconds, where)
        if w.ffc_args is None:
            run.inputs = covergen.draw_covers(seed)
            (where / "covers.json").write_text(json.dumps(run.inputs))
        return run

    def target(self, run: Run) -> list[str]:
        """The workload's program arguments after the interpreter."""
        if run.workload.ffc_args is None:
            return [str(BENCH / "cover_census.py"), str(run.dir / "covers.json")]
        return ["-m", "ffcn.cli", *run.workload.ffc_args]

    def traced_target(self, run: Run, mode: str, out: Path) -> list[str]:
        head = [str(BENCH / "tracer.py"), mode, str(out)]
        if run.workload.ffc_args is None:
            return head + ["--script", *self.target(run)]
        return head + ["--cli", *run.workload.ffc_args]

    def sample(self, run: Run, argv, path: Path = SRC) -> Sample:
        s = self.run([sys.executable, *argv], run.workload.threads, run.dir, path)
        run.attempted += 1
        problems = check(run, s)
        if problems:
            run.failed += 1
            run.problems.extend(problems)
        return s

    def setup_time(self, run: Run, path: Path) -> float:
        s = self.run([sys.executable, "-m", "ffcn.cli", "--version"], 1, run.dir, path)
        if s.returncode != 0:
            raise BenchError(f"ffc --version failed: {s.stderr.decode(errors='replace')}")
        return s.wall_s

    def warm_up(self, run: Run):
        """The first starts in a checkout compile bytecode: not measured."""
        self.setup_time(run, SRC)
        self.setup_time(run, BASELINE)

    def want_more(self, run: Run, done: int, last: float) -> bool:
        if self.remaining() < 2 * last:
            return False
        return done < MIN_ROUNDS or time.perf_counter() + last < run.deadline

    def measure_round(self, run: Run):
        """A workload sample of the program and one of the baseline, then
        setup starts of both in pairs for STARTS_SHARE of that time.  Which
        goes first alternates from round to round."""
        sides = [(SRC, run.samples, run.setups),
                 (BASELINE, run.baseline_samples, run.baseline_setups)]
        if len(run.samples) % 2:
            sides.reverse()
        t0 = time.perf_counter()
        for path, samples, _ in sides:
            samples.append(self.sample(run, self.target(run), path))
        until = time.perf_counter() + STARTS_SHARE * (time.perf_counter() - t0)
        pairs = 0
        while pairs < MIN_STARTS or time.perf_counter() < until:
            for path, _, setups in sides:
                setups.append(self.setup_time(run, path))
            pairs += 1

    def trace_pass(self, run: Run, mode: str) -> tuple[Sample, dict]:
        out = run.dir / f"{mode}-{self.n + 1}.json"
        s = self.sample(run, self.traced_target(run, mode, out))
        values: dict = {}
        for path in run.dir.glob(out.name + "*"):  # OUT.json and OUT.json.<pid>
            if path.suffix != ".tmp":
                for k, v in json.loads(path.read_text()).items():
                    values[k] = values.get(k, 0) + v
        return s, values

    def trace(self, run: Run) -> dict:
        """Untraced and traced samples in pairs, one count pass, kernels."""
        plain, spans = [], []
        while True:
            t0 = time.perf_counter()
            plain.append(self.sample(run, self.target(run)))
            spans.append(self.trace_pass(run, "spans"))
            last = time.perf_counter() - t0
            # keep the count pass and kernel timings inside the run
            if time.perf_counter() + 3 * last > run.deadline or self.remaining() < 4 * last:
                break
        _, counts = self.trace_pass(run, "counts")
        kern = self.run([sys.executable, str(BENCH / "kernels.py"), str(run.seed)], 1, run.dir)
        run.attempted += 1
        kernels = {}
        if kern.returncode != 0:
            run.failed += 1
            run.problems.append(f"kernels: {kern.stdout.decode()} {kern.stderr.decode()}")
        else:
            kernels = json.loads(kern.stdout)["metrics"]
        run.problems.extend(self_check(run.workload, [v for _, v in spans], counts))
        return per_layer_metrics(plain, spans, counts, kernels)


def check(run: Run, s: Sample) -> list[str]:
    name = run.workload.name
    if s.returncode != 0:
        return [f"{name}: exit code {s.returncode}: "
                f"{s.stderr.decode(errors='replace')[-500:]}"]
    if run.workload.ffc_args is None:
        expected = EXPECTED["cover_census"]
        digest = expected["digest"] if run.seed == expected["seed"] else None
        return gate.check_covers(s.stdout, run.inputs, digest, expected["catalog_digest"])
    if run.workload.ffc_args[0] == "verify":
        return gate.check_catalog(s.stdout, EXPECTED["catalog_verify"])
    return gate.check_table64(s.stdout, EXPECTED["table64_search"])


def self_check(w: Workload, span_passes: list[dict], counts: dict) -> list[str]:
    """Each layer the workload should reach fired in every pass; every
    other layer stayed silent."""
    problems = []
    for group, names in LAYER_SPANS.items():
        for name in names:
            seen = [p.get(name + ".calls", 0) for p in span_passes
                    if name != "polyring.Poly.eval_in"] + [counts.get(name + ".calls", 0)]
            if group in w.fires and not all(seen):
                problems.append(f"self-check: {name} did not fire on {w.name}")
            if group not in w.fires and any(seen):
                problems.append(f"self-check: {name} fired on {w.name}")
    if "catalog" in w.fires:
        for cid in CURVE_IDS:
            if not all(p.get(f"catalog.verify_curve.{cid}.s") for p in span_passes):
                problems.append(f"self-check: no span for curve {cid}")
    if not counts.get("gf.mul.calls"):
        problems.append("self-check: no GF multiplications counted")
    return problems


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(plain, spans, counts, kernels) -> dict:
    def span(key):  # median over traced passes
        return statistics.median(v.get(key, 0.0) for _, v in spans)

    out = {}
    for name, _ in PER_LAYER:
        if name.endswith((".self_s", ".s")):
            out[name] = span(name)
        elif name in kernels:
            out[name] = kernels[name]
        else:
            out[name] = counts.get(name, 0)
    pm = "varieties.points_on_model."
    out[pm + "yield"] = _ratio(counts.get(pm + "points_found", 0),
                               counts.get(pm + "points_searched", 0))
    rf = "polyring.residue_field."
    out[rf + "yield"] = _ratio(out[rf + "misses"], out[rf + "roots_tried"])
    mi = "polyring.monic_irreducibles."
    out[mi + "yield"] = _ratio(out[mi + "found"], out[mi + "candidates"])
    curves = [out[f"catalog.verify_curve.{cid}.s"] for cid in CURVE_IDS]
    out["catalog.verify_curve.max_share"] = _ratio(max(curves), sum(curves))
    out["cli.report_bytes"] = len(plain[0].stdout)
    out["trace.overhead_s"] = (statistics.median(s.wall_s for s, _ in spans)
                               - statistics.median(s.wall_s for s in plain))
    return out


def _values(setups, samples) -> dict:
    return {"setup_s": setups, "wall_s": [s.wall_s for s in samples],
            "cpu_s": [s.cpu_s for s in samples],
            "peak_rss_mb": [s.peak_rss_mb for s in samples]}


def ratio(program, baseline) -> float:
    """How many times the baseline's time the program takes: the median
    over every pair of one program and one baseline sample (the
    Hodges-Lehmann estimate, on a log scale)."""
    return math.exp(statistics.median(math.log(p / b) for p in program for b in baseline))


def end_to_end_metrics(name: str, program: dict, baseline: dict) -> dict:
    """The program's times, as a ratio to the baseline's in the same run,
    times the baseline's on the reference machine; its median peak RSS."""
    wall, cpu = BASELINE_S[name]
    return {
        "setup_s": BASELINE_SETUP_S * ratio(program["setup_s"], baseline["setup_s"]),
        "wall_s": wall * ratio(program["wall_s"], baseline["wall_s"]),
        "cpu_s": cpu * ratio(program["cpu_s"], baseline["cpu_s"]),
        "peak_rss_mb": statistics.median(program["peak_rss_mb"]),
    }


def run_metrics(run: Run) -> tuple[dict, str]:
    """The end-to-end metrics of an untraced run, and a line with the
    medians as measured."""
    program = _values(run.setups, run.samples)
    baseline = _values(run.baseline_setups, run.baseline_samples)
    line = f"{run.workload.name}: medians as measured, program / baseline:" + ",".join(
        f" {k} {statistics.median(program[k]):.4f} / {statistics.median(baseline[k]):.4f}"
        for k in program)
    return end_to_end_metrics(run.workload.name, program, baseline), line


def _units(metrics: dict, units) -> dict:
    unit = dict(units)
    return {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}


def run_one(bench: Bench, name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = bench.start(WORKLOADS[name], seed, seconds)
    bench.warm_up(run)
    if trace:
        metrics = _units(bench.trace(run), PER_LAYER)
    else:
        while True:
            t0 = time.perf_counter()
            bench.measure_round(run)
            if not bench.want_more(run, len(run.samples), time.perf_counter() - t0):
                break
        metrics, line = run_metrics(run)
        print(line)
        metrics = _units(metrics, END_TO_END)
    for p in run.problems:
        sys.stderr.write(f"{name}: {p}\n")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": max(run.failed, 1 if run.problems else 0), "metrics": metrics}


def run_all(bench: Bench, seed: int, seconds: float, trace: bool):
    """Every workload; untraced rounds interleave the workloads, so that
    drift in machine speed lands on all of them alike."""
    if trace:
        for name in WORKLOADS:
            result = run_one(bench, name, seed, seconds, True)
            print(f"== {name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for k, m in result["metrics"].items():
                print(f"  {k:<44} {m['value']:>16.6g} {m['unit']}")
        return
    runs = [bench.start(w, seed, seconds * len(WORKLOADS)) for w in WORKLOADS.values()]
    bench.warm_up(runs[0])
    rounds = 0
    while True:
        t0 = time.perf_counter()
        for run in runs:
            bench.measure_round(run)
        rounds += 1
        if not bench.want_more(runs[0], rounds, time.perf_counter() - t0):
            break
    print(f"{'workload':<20} {'setup_s (s)':>12} {'wall_s (s)':>11} {'cpu_s (s)':>10} "
          f"{'peak_rss_mb (MB)':>17} {'fail_rate (1)':>14}  samples")
    for run in runs:
        m, _ = run_metrics(run)
        fail_rate = run.failed / run.attempted
        print(f"{run.workload.name:<20} {m['setup_s']:>12.4f} {m['wall_s']:>11.4f} "
              f"{m['cpu_s']:>10.4f} {m['peak_rss_mb']:>17.2f} {fail_rate:>14.3f}  "
              f"{len(run.samples)}")
        for p in run.problems:
            sys.stderr.write(f"{run.workload.name}: {p}\n")
    print("times scaled by the baseline copy (NOTES.md, End-to-end metrics); as measured:")
    for run in runs:
        print("  " + run_metrics(run)[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=covergen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "ffcn" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'ffcn'} is missing\n")
        return 2
    bench = Bench(t_start, ALL_LIMIT_S if ns.workload == "all" else RUN_LIMIT_S)
    try:
        if ns.workload == "all":
            run_all(bench, ns.seed, ns.seconds, bool(ns.trace))
            return 0
        result = run_one(bench, ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except BenchError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        bench.close()
        for path in WORK.glob(f"*-{os.getpid()}"):
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
