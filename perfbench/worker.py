"""One workload in a fresh process: set up, run the timed loop, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only] [--spans FILE]

Started by run.py, one at a time. A fresh process per run keeps the
library's process-global caches of one run from warming another. The last
line of stdout is a JSON object; `ready_at` is the CLOCK_MONOTONIC
reading (shared by all processes) just before the first timed operation,
so the parent can measure set-up from the moment it started this process.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from recorder import SETUP, WARMUP, WINDOW, PROBE, Recorder, tail  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: workload name -> module defining its `Workload` class
WORKLOADS = {
    "membership": "wl_membership",
    "roundtrip": "wl_roundtrip",
    "model-ops": "wl_modelops",
    "cli-oneshot": "wl_cli",
}

#: a run always completes this many whole passes, however short --seconds
MIN_PASSES = 2
#: in-process runs: the fastest chunks holding at least KEEP_OPS operations
#: give the end-to-end figures; 20000 puts the tail at p99.9, with 20 or
#: more samples beyond it
KEEP_OPS = 20000
#: cli-oneshot: the fastest CLASS_KEEP of each command's runs give them
CLASS_KEEP = 0.5


def fastest_chunks(passes, latencies, chunk_passes: int):
    """Latencies and wall seconds of the fastest chunks, enough of them to
    hold KEEP_OPS operations.

    `passes` holds (start, end, first op, end op) per pass; a chunk is
    `chunk_passes` consecutive passes, one full cycle of the workload's
    working set, so every chunk does the same work and holds the same
    number of operations. Load from other tenants of a shared host can
    slow stretches of seconds to minutes by up to 1.8 times; the fastest
    chunks measure the program rather than its neighbours, as timeit
    reports the best of its repeats.
    """
    chunks = [passes[i:i + chunk_passes]
              for i in range(0, len(passes) - chunk_passes + 1, chunk_passes)]

    def seconds(chunk):
        return sum(e - s for s, e, _, _ in chunk)

    chunks.sort(key=seconds)
    keep, lat = [], []
    for c in chunks:
        if len(lat) >= KEEP_OPS:
            break
        keep.append(c)
        lat += latencies[c[0][2]:c[-1][3]]
    return lat, sum(seconds(c) for c in keep), len(keep), len(chunks)


def fastest_per_class(latencies, classes):
    """The fastest CLASS_KEEP of each class's latencies, and their sum.

    Used where one operation lasts seconds, so that chunks of time would
    mix operations of different cost. Keeping the same share of every
    class keeps the mix of the pass.
    """
    by_class: "dict[str, list[float]]" = {}
    for c, x in zip(classes, latencies):
        by_class.setdefault(c, []).append(x)
    lat = []
    for xs in by_class.values():
        xs.sort()
        lat += xs[:math.ceil(len(xs) * CLASS_KEEP)]
    return lat, sum(lat), len(lat), len(latencies)


def use_checkout_source() -> None:
    """Import hfinterp from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hfinterp
    if Path(hfinterp.__file__).resolve().parent != src / "hfinterp":
        raise SystemExit(f"hfinterp imported from {hfinterp.__file__}, "
                         f"not from {src}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_only: bool = False) -> "tuple[dict, Recorder]":
    rec = Recorder(trace)
    t0 = time.monotonic()
    use_checkout_source()
    module = importlib.import_module(WORKLOADS[workload])
    t1 = time.monotonic()
    wl = module.Workload(seed, rec)
    t2 = time.monotonic()
    ack5 = None
    if wl.in_process:
        from hfinterp.order import ack_order
        s = time.perf_counter()
        ack_order(5)
        e = time.perf_counter()
        ack5 = e - s
        if rec.spans is not None:
            rec.spans.add_op("setup", SETUP,
                             [("order.ack_order5_cold", s, e, 1)])
    t3 = time.monotonic()
    rec.phase = WARMUP
    wl.warm_up(rec)
    out = {"start_at": T_START, "import_s": t1 - t0, "inputs_s": t2 - t1,
           "ack_order5_cold_s": ack5, "warmup_s": 0.0}
    if setup_only:
        out["ready_at"] = time.monotonic()
        out["warmup_s"] = out["ready_at"] - t3
        out.update(attempted=rec.attempted, failed=rec.failed,
                   failures=rec.failures)
        return out, rec

    rec.phase = WINDOW
    out["ready_at"] = ready = time.monotonic()
    out["warmup_s"] = ready - t3
    # in-process: at least two chunks, and as many operations left out of
    # the fastest chunks as kept in them
    min_passes, min_ops = MIN_PASSES, 0
    if wl.in_process:
        min_passes, min_ops = 2 * wl.chunk_passes, 2 * KEEP_OPS
    begin = time.perf_counter()
    passes = []
    while True:
        first, start = len(rec.latencies), time.perf_counter()
        wl.run_pass(rec)
        end = time.perf_counter()
        passes.append((start, end, first, len(rec.latencies)))
        elapsed = end - begin
        if elapsed >= seconds and len(passes) >= min_passes \
                and len(rec.latencies) >= min_ops:
            break
    rec.phase = PROBE
    if trace:
        wl.probe(rec)

    if wl.in_process:
        lat, busy, kept, of = fastest_chunks(passes, rec.latencies,
                                             wl.chunk_passes)
        kept_of = f"fastest {kept} of {of} chunks of {wl.chunk_passes} " \
            "passes"
    else:
        lat, busy, kept, of = fastest_per_class(rec.latencies,
                                                rec.classes())
        kept_of = f"fastest {kept} of {of} runs, the same share per command"
    pct, tail_value, beyond = tail(lat)
    rss_who = resource.RUSAGE_SELF if wl.in_process \
        else resource.RUSAGE_CHILDREN
    out.update({
        "passes": len(passes),
        "window_ops": len(rec.latencies),
        "window_s": elapsed,
        "window_ops_per_s": len(rec.latencies) / elapsed,
        "window_latency_p50_ms": statistics.median(rec.latencies) * 1e3,
        "kept": kept_of,
        "ops": len(lat),
        "ops_per_s": len(lat) / busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
        "rss_of": "this process" if wl.in_process
                  else "largest child process",
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
    })
    if trace:
        out["layers"] = rec.spans.layers()
        out["self_s"] = rec.spans.self_time()
        out["extra"] = wl.extra_metrics()
    return out, rec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the trace's spans to this CSV")
    args = ap.parse_args()
    out, rec = run(args.workload, args.seed, args.seconds,
                   bool(args.trace), args.setup_only)
    if args.spans and rec.spans is not None:
        rec.spans.write_csv(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
