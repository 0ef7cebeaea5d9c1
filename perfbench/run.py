"""The matchstat benchmark: one command that times a workload and checks its outputs.

    python3 perfbench/run.py --workload clt-n1000 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` there, in fresh interpreters, with one worker and one job at a
time.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it has the
per-layer metrics of a traced run, whose spans are written to
``.perfbench_out/``.  Workloads and metrics are listed in BENCHMARK.json
and described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REF_S
from metrics import end_to_end, per_layer
from tracing import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("clt-n1000", "exact-cold", "bijection-mix", "cli-session")
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    """The caller's environment minus anything that changes the load."""
    env = {k: v for k, v in os.environ.items() if k != "MATCHSTAT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(workload: str, seed: int, seconds: float, mode: str):
    """Start a worker in a fresh interpreter; return it and its set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    ready = proc.stdout.readline()
    setup_s = perf_counter() - t0
    if ready.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker for {workload} failed during set-up")
    return proc, setup_s


def finish_worker(proc) -> str:
    """Wait for a worker and return its last output line."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded its time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Time set-up in fresh interpreters, then run the measured worker."""
    setup = []
    for _ in range(SETUP_PROBES):
        proc, setup_s = start_worker(workload, seed, 0, "setup")
        finish_worker(proc)
        setup.append(setup_s)
    proc, setup_s = start_worker(workload, seed, seconds, "traced" if trace else "plain")
    setup.append(setup_s)
    record = json.loads(finish_worker(proc))
    record["setup"] = setup
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "matchstat" / "__init__.py").is_file():
        print(f"no matchstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    versions = record["versions"]
    if Path(versions["matchstat_file"]).resolve().parent != ROOT / "src" / "matchstat":
        print(f"matchstat was imported from {versions['matchstat_file']}", file=sys.stderr)
        return 2
    jobs = record["jobs"]
    own = [j for j in jobs if j["workload"] == args.workload]
    meta = {
        "workload": args.workload,
        "job": record["job"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "workers": 1,
        "python": versions["python"],
        "numpy": versions["numpy"],
        "matchstat": versions["matchstat"],
        "commit": git_commit(),
    }
    if args.trace:
        spans = [Span(*s) for s in record["spans"]]
        metrics = per_layer(spans, jobs, record["probes"], args.workload, record["clt_draws"])
        details = {}
    else:
        rss = record["rss_children_kb" if args.workload == "cli-session" else "rss_self_kb"]
        metrics, details = end_to_end(own, record["probes"], record["setup"], rss)
    failed = sum(1 for j in jobs if j["fail"])

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result = {
        "meta": meta,
        "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": jobs,
        "setup_s": record["setup"],
        "probes": record["probes"],
    }
    if args.trace:
        result["span_fields"] = list(Span.__dataclass_fields__)
        result["spans"] = record["spans"]
    out_file.write_text(json.dumps(result))

    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    if details:
        print(f"job_s.tail is p{details['tail_percentile']} of {details['samples']} jobs")
        print(
            f"job CPU times are scaled to a {REF_S * 1e3:g} ms reference loop, which took"
            f" {details['reference_loop_s.p50'] * 1e3:.3f} ms here; unscaled wall times:"
            f" jobs_per_s {details['unscaled_jobs_per_s']:.6g},"
            f" job_s.p50 {details['unscaled_job_s.p50']:.6g}"
        )
    print(f"results written to {out_file.relative_to(ROOT)}")
    # fail_ratio is 0 on a correct build, so no relative bound can apply to
    # it; the result line carries ok_ratio = 1 - fail_ratio instead
    reported = {k: (v, u) for k, (v, u) in metrics.items() if k != "fail_ratio"}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(jobs),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
