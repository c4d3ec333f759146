"""Run the hngen benchmark: one workload per process, metrics and checks.

    python3 perfbench/run.py --workload train-smoke --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload in turn

Each workload runs in a fresh ``worker.py`` process with BLAS and OpenMP
threads pinned to 1. With ``--trace 0`` the run prints every end-to-end
metric that BENCHMARK.json declares; with ``--trace 1`` it prints the
per-layer table instead. Either way it checks the program's outputs, and
its last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The full record, with
the environment it ran in, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# before numpy loads, here and in every child
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RUN_LIMIT_S = 165  # worker time limit; the reference check follows it
IMPORT_REPEATS = 8  # before the worker and again after it
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hngen.cli\n"
    "print(time.perf_counter() - t0)\n"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def import_times() -> list[float]:
    """Times to import the package, each in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing hngen failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip()))
    return times


def source_record() -> dict:
    """Git commit when there is one, and a digest of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_worker(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", scale,
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_retrieval(raw: dict, seed: int, scale: str) -> list[str]:
    """Each MetricReport must equal the brute-force reference bit for bit."""
    sizes = inputs.TINY_RETRIEVAL if scale == "tiny" else {}
    z, labels = inputs.retrieval_inputs(seed, **sizes)
    expected = inputs.reference_report(z, labels, inputs.RETRIEVAL_KS)
    return [
        f"MetricReport of call {i} differs from the reference: {report} != {expected}"
        for i, report in enumerate(raw["reports"]) if report != expected
    ]


def end_to_end(raw: dict, import_s: float) -> dict:
    """Declared end-to-end metrics; a pass that completed no operation has none."""
    return {
        "setup_s": import_s + statistics.median(raw["build_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "items_per_s": raw.get("items_per_s"),
        "op_ms": raw.get("op_ms"),
    }


def assess(workload: str, seed: int, seconds: float, trace: int, scale: str,
           raw: dict, import_s: float, declared: dict) -> dict:
    """The run's record: checks, declared metrics and environment."""
    failures = list(raw["failures"])
    if workload == "retrieval-5k":
        failures += check_retrieval(raw, seed, scale)
    computed = raw["layers"] if trace else end_to_end(raw, import_s)
    wanted = declared["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if computed.get(m["name"]) is None]
    if missing:
        raise BenchError(f"{workload} did not measure {missing}")
    return {
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "env": {**raw["env"], **source_record()},
        "failures": failures,
        "import_s": import_s,
        "measured": computed,
        "worker": {k: v for k, v in raw.items() if k not in ("env", "layers")},
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, scale: str, declared: dict) -> dict:
    before = import_times()
    raw = run_worker(workload, seed, seconds, trace, scale)
    # tries on both sides of the run, so one slow moment of the host skews fewer
    import_s = statistics.median(before + import_times())
    record = assess(workload, seed, seconds, trace, scale, raw, import_s, declared)
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"BENCH_{workload}_seed{seed}_trace{trace}_{scale}.json"
    out_path.write_text(json.dumps(record, indent=1))
    print_table(record, declared["per_layer" if trace else "end_to_end"])
    return {key: record[key] for key in RESULT_KEYS}


def print_table(record: dict, wanted: list[dict]) -> None:
    worker = record["worker"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"({record['scale']})")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for m in wanted:
        print(f"  {m['name']:<40} {record['metrics'][m['name']]['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        n = worker["n_ops"]
        print(f"  {'op_ms_p50':<40} {worker['op_ms_p50']:>14.6g} ms ({n} ops)")
        print(f"  {'op_ms_p90':<40} {worker['op_ms_p90']:>14.6g} ms "
              f"({n - int(0.9 * n)} beyond it)")
        print(f"  {'items_per_s_run (whole run)':<40} {worker['items_per_s_run']:>14.6g} 1/s")
    for key, value in worker["extra"].items():
        print(f"  {key:<40} {value:>14.6g}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} ({failed}/{attempted})")


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hngen").is_dir():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    todo = names if args.workload == "all" else [args.workload]
    try:
        results = {
            w: run_one(w, args.seed, args.seconds, args.trace, args.scale, declared) for w in todo
        }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[todo[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
