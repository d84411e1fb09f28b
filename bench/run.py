"""projpair benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run sets up its inputs (``bench/inputs.py`` in a fresh interpreter,
several times, timed), then repeats whole passes over the input pool
until S seconds have passed, checking every item against ground truth.
With ``--trace 1`` one more pass runs with the layer tracer installed
and the per-layer metrics are reported instead of the end-to-end ones.
See ``bench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported, here and in
# every child process, which inherits this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3
STARTUP_REPS = 5
NS_ARG = ",".join(str(n) for n in inputs.ODD_NS)

# (name, unit); the end-to-end metrics are printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("verified_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Span names whose call count, total or self seconds the traced run reports.
SPAN_METRICS = (
    ("linalg.matmul", ("calls", "s")),
    ("linalg.kernel_basis", ("calls", "s")),
    ("linalg.subspace_intersection", ("calls", "s")),
    ("linalg.rank", ("calls", "s")),
    ("linalg.restrict_operator", ("s",)),
    ("pairs.derived_ops", ("self_s",)),
    ("pairs.make_pair", ("s",)),
    ("fitting.fitting_decomposition", ("self_s",)),
    ("fitting.verify_fitting", ("s",)),
    ("index.index_report", ("self_s",)),
    ("index.compute_eigenspaces", ("s",)),
    ("pairfile.load_pair", ("s",)),
)
# Every per-layer metric and its unit; the traced run prints them all.
LAYER_UNITS = {
    **{
        f"{name}.{key}": "count" if key == "calls" else "s"
        for name, keys in SPAN_METRICS
        for key in keys
    },
    "linalg.max_entry_bits": "bits",
    "pairs.derived_ops.hit_ratio": "ratio",
    "fitting.restriction_failures": "count",
    "fitting.k_max": "count",
    "pairfile.save_pair.s": "s",
    "generators.gen.s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stderr=None) -> tuple[int, bytes, resource.struct_rusage]:
    """Run a child to completion; return its exit code, stdout and rusage."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=child_env())
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def set_up(workload: str, seed: int, work: str) -> tuple[list[float], list[dict], bool]:
    """Run the input generator SETUP_REPS times in fresh interpreters.

    Returns the wall time of each, their manifests, and whether every
    repetition wrote byte-identical files (same seed, same inputs).
    """
    walls, manifests = [], []
    for rep in range(SETUP_REPS):
        out = os.path.join(work, f"setup{rep}")
        argv = [sys.executable, os.path.join(BENCH_DIR, "inputs.py"),
                "--workload", workload, "--seed", str(seed), "--out", out]
        start = time.perf_counter()
        code, _, _ = run_child(argv)
        walls.append(time.perf_counter() - start)
        if code != 0:
            die(f"input generation failed with exit code {code}")
        manifests.append(read_json(os.path.join(out, "manifest.json")))
    identical = True
    for item in manifests[0]["items"]:
        blobs = set()
        for rep in range(SETUP_REPS):
            with open(os.path.join(work, f"setup{rep}", item["file"]), "rb") as handle:
                blobs.add(handle.read())
        identical = identical and len(blobs) == 1
    return walls, manifests, identical


def judge(verdicts: dict, index: int, expected: int) -> str:
    """verified, failed (the report flags a problem) or wrong (it does not)."""
    if len(verdicts) == 12 and all(verdicts.values()):
        return "verified" if index == expected else "wrong"
    return "failed"


class InProcess:
    """Items are loaded pairs; one item is one ``index_report`` call."""

    def __init__(self, manifest: dict, folder: str, pp) -> None:
        self.pp = pp
        self.cache = pp.pairs.derived_ops  # the lru_cache itself, even while traced
        self.pool = [
            (pp.pairfile.load_pair(os.path.join(folder, it["file"])), it["expected_index"])
            for it in manifest["items"]
        ]
        self.errors: dict[str, int] = {}

    def run(self, item) -> tuple[float, str]:
        pair, expected = item
        self.cache.cache_clear()
        start = time.perf_counter()
        try:
            rep = self.pp.index.index_report(pair, inputs.ODD_NS)
        except Exception as exc:  # an item that raises is a failed item; keep going
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            return time.perf_counter() - start, "failed"
        elapsed = time.perf_counter() - start
        return elapsed, judge(rep.verdicts, rep.index, expected)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def traced_pass(self, work: str) -> tuple[list[str], list[str], float]:
        tracer = spans.Tracer()
        hits = misses = 0
        outcomes = []
        tracer.install(self.pp)
        start = time.perf_counter()
        try:
            for i, item in enumerate(self.pool):
                tracer.item = i
                outcomes.append(self.run(item)[1])
                info = self.cache.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
        finally:
            wall = time.perf_counter() - start
            tracer.uninstall()
        path = os.path.join(work, "trace.json")
        tracer.dump(path, {"cache": {"hits": hits, "misses": misses}})
        return [path], outcomes, wall


class CliBatch:
    """Items are pair files; one item is one ``projpair verify`` process."""

    def __init__(self, manifest: dict, folder: str, pp) -> None:
        self.pool = []
        for it in manifest["items"]:
            path = os.path.join(folder, it["file"])
            try:
                rep = pp.index.index_report(pp.pairfile.load_pair(path), inputs.ODD_NS)
                want = (0 if rep.all_verdicts_true else 1, rep.to_json() + "\n")
            except pp.errors.ProjpairError:
                want = (2, "")
            self.pool.append((path, it["expected_index"], want))
        self.rss_mb = 0.0
        self.errors: dict[str, int] = {}

    def _argv(self, path: str, spans_out: str | None) -> list[str]:
        tail = ["verify", "--input", path, "--json", "--n", NS_ARG]
        if spans_out is None:
            return [sys.executable, "-m", "projpair.cli"] + tail
        return [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_out] + tail

    def run(self, item, spans_out: str | None = None) -> tuple[float, str]:
        path, expected, want = item
        start = time.perf_counter()
        code, out, usage = run_child(self._argv(path, spans_out), stderr=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024.0)
        text = out.decode("utf-8", "replace")
        if (code, text) != want:
            return elapsed, "wrong"
        if code == 2:
            self.errors["exit 2"] = self.errors.get("exit 2", 0) + 1
            return elapsed, "failed"
        doc = json.loads(text)
        return elapsed, judge(doc["verdicts"], doc["dims"]["e10"] - doc["dims"]["et01"], expected)

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def traced_pass(self, work: str) -> tuple[list[str], list[str], float]:
        paths, outcomes = [], []
        start = time.perf_counter()
        for i, item in enumerate(self.pool):
            paths.append(os.path.join(work, f"trace{i:03d}.json"))
            outcomes.append(self.run(item, paths[-1])[1])
        return paths, outcomes, time.perf_counter() - start


def timed_passes(runner, seconds: float) -> tuple[list[float], list[str], float, int]:
    """Whole passes over the pool until ``seconds`` have elapsed."""
    latencies, outcomes = [], []
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for item in runner.pool:
            elapsed, outcome = runner.run(item)
            latencies.append(elapsed)
            outcomes.append(outcome)
        passes += 1
    return latencies, outcomes, time.perf_counter() - start, passes


def layer_metrics(trace_paths: list[str], manifests: list[dict]) -> dict[str, float]:
    """Per-layer figures for one traced pass over the pool."""
    totals: dict[str, dict[str, float]] = {}
    counters = {"fitting.k_max": 0, "linalg.max_entry_bits": 0}
    hits = misses = failures = 0
    for path in trace_paths:
        doc = read_json(path)
        for name, row in spans.span_totals(doc["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        failures += sum(
            1 for s in doc["spans"]
            if s[3] == "fitting.fitting_decomposition" and s[6] == "RestrictionFailure"
        )
        for key in counters:
            counters[key] = max(counters[key], doc["counters"][key])
        hits += doc["cache"]["hits"]
        misses += doc["cache"]["misses"]
    out: dict[str, float] = {}
    for name, keys in SPAN_METRICS:
        for key in keys:
            out[f"{name}.{key}"] = totals.get(name, {}).get(key, 0)
    out["linalg.max_entry_bits"] = counters["linalg.max_entry_bits"]
    out["pairs.derived_ops.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["fitting.restriction_failures"] = failures
    out["fitting.k_max"] = counters["fitting.k_max"]
    out["pairfile.save_pair.s"] = statistics.median(m["timings"]["save_s"] for m in manifests)
    out["generators.gen.s"] = statistics.median(m["timings"]["gen_s"] for m in manifests)
    return out


def cli_startup_s() -> float:
    """Median wall time of a process that only imports projpair.cli."""
    walls = []
    for _ in range(STARTUP_REPS):
        start = time.perf_counter()
        code, _, _ = run_child([sys.executable, "-c", "import projpair.cli"])
        walls.append(time.perf_counter() - start)
        if code != 0:
            die("importing projpair.cli failed")
    return statistics.median(walls)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="projpair benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "projpair", "__init__.py")):
        die(f"projpair sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import projpair
    import projpair.index
    import projpair.pairfile
    import projpair.pairs

    machine = machine_info()
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup_walls, manifests, same_inputs = set_up(args.workload, args.seed, work)
        if not same_inputs:
            print("error: the same seed gave different input files", file=sys.stderr)
        kind = CliBatch if args.workload == "cli_batch" else InProcess
        runner = kind(manifests[0], os.path.join(work, "setup0"), projpair)

        latencies, outcomes, wall, passes = timed_passes(runner, args.seconds)
        if args.trace:
            trace_paths, traced_outcomes, traced_wall = runner.traced_pass(work)
            outcomes += traced_outcomes
            metrics = layer_metrics(trace_paths, manifests)
            metrics["cli.startup_s"] = cli_startup_s()
            metrics["trace.overhead_s"] = traced_wall - wall / passes
            metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] * passes / wall
            units = LAYER_UNITS
            merged = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            with open(merged, "w", encoding="utf-8") as handle:
                json.dump([read_json(p) for p in trace_paths], handle)
        else:
            verified = outcomes.count("verified")
            metrics = {
                "setup_s": statistics.median(setup_walls),
                "verified_per_s": verified / wall,
                "item_p50_ms": statistics.median(latencies) * 1000.0,
                "peak_rss_mb": runner.peak_rss_mb(),
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes)
    failed = attempted - outcomes.count("verified")
    correct = same_inputs and "wrong" not in outcomes
    n = len(latencies)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "items_timed": n,
        "timed_wall_s": wall,
        "failed_ratio": failed / attempted,
        "errors": runner.errors,
        "item_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000.0 if n >= 100 else None,
        "machine": machine,
    }
    print("summary: " + json.dumps(summary, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    record = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, "result": result}, handle, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
