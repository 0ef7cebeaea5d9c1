"""One benchmark process: set up a workload, then run its jobs in a closed loop.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (import and generate inputs, then exit), ``plain``
(no spans) or ``traced``.  The worker prints ``READY`` once its
inputs exist, so the caller can time set-up from outside, and prints one
JSON object with the raw job records (and spans, when traced) as its
last line.  One client, one job at a time: each job starts when the
previous one and its check have finished.

A traced run splits the rounds of the input mix between the untraced and
the traced path, so both sides see the same mix and the ratio of their
median job times is the tracing overhead.  After its own jobs it runs one
traced round of every other workload, so every layer gets per-layer
numbers in every traced run.

Between timed jobs, at most every PROBE_GAP_S, the worker times a fixed
reference loop that uses no matchstat code; the metrics scale each job's
CPU time by the probes around it (hostspeed.host_scaled), since the clock
of a shared host swings by up to 1.75x within seconds.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import astuple
from time import perf_counter

import numpy as np

import matchstat as ms
from hostspeed import cpu_time, reference_time
from tracing import NullTracer, Tracer
from workloads import CLT_DRAWS, WORKLOADS

_NULL = NullTracer()
PROBE_GAP_S = 0.1


def probe(record: dict) -> float:
    """Record (wall start, reference_time) and return the wall time at its end."""
    t0 = perf_counter()
    record["probes"].append((t0, reference_time()))
    return perf_counter()


def run_job(wl, inp, k: int, tr, record: dict) -> None:
    traced = isinstance(tr, Tracer)
    tr.job, tr.cls = k, wl.cls(inp)
    fail: list[str] = []
    c0 = cpu_time()
    t0 = perf_counter()
    try:
        with tr.span("job." + wl.name):
            out = wl.run(inp, tr)
        t = perf_counter() - t0
        cpu = cpu_time() - c0
        fail = wl.check(inp, out)
        if traced:
            wl.replay(inp, out, tr)
    except Exception as exc:  # a failed job is counted, and the loop goes on
        t = perf_counter() - t0
        cpu = cpu_time() - c0
        layer = tr.innermost_failure()
        fail = [wl.layer if layer in (None, "job") else layer]
        print(f"job {k} of {wl.name} raised {exc!r}", file=sys.stderr)
    record["jobs"].append(
        {
            "k": k,
            "workload": wl.name,
            "cls": tr.cls,
            "t0": t0,
            "t": t,
            "cpu": cpu,
            "traced": traced,
            "fail": fail,
        }
    )


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    tracer = Tracer() if mode == "traced" else None
    record: dict = {"job": wl.unit, "clt_draws": CLT_DRAWS, "jobs": [], "probes": []}
    # a traced run needs one untraced and one traced round at least
    min_jobs = 2 * wl.round if tracer else 1
    deadline = perf_counter() + seconds
    k = 0
    probed = probe(record)
    while k < min_jobs or perf_counter() < deadline:
        if perf_counter() - probed >= PROBE_GAP_S:
            probed = probe(record)
        # Thue-Morse order over rounds: an aligned block of 2^j rounds splits
        # evenly on any function of j - 1 bits of the round index, so the
        # bit-reversed sizes of exact-cold land alike on both sides
        traced = tracer is not None and bin(k // wl.round).count("1") % 2 == 1
        run_job(wl, inputs[k % len(inputs)], k, tracer if traced else _NULL, record)
        k += 1
    probe(record)
    if tracer is not None:
        for other in WORKLOADS.values():
            if other is not wl:
                for inp in other.inputs(seed)[: other.round]:
                    run_job(other, inp, k, tracer, record)
                    k += 1
        record["spans"] = [astuple(s) for s in tracer.spans]
    usage = resource.getrusage
    record["rss_self_kb"] = usage(resource.RUSAGE_SELF).ru_maxrss
    record["rss_children_kb"] = usage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "matchstat": ms.__version__,
        "matchstat_file": ms.__file__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
