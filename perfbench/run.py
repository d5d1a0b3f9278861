"""hfinterp benchmark: end-to-end and per-module metrics, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see the wl_*.py modules and BENCHMARK.json for why each one):
membership, roundtrip, model-ops, cli-oneshot. All inputs come from
--seed. Each workload runs in fresh worker processes started one after
another; each is a closed loop with one client on one thread: the next
operation starts when the last one returns. Every answer is checked
against an oracle; wrong answers and raises (BudgetExceeded included)
count as failed.

--trace 0 starts SETUP_RUNS workers: the first ones only set up, the last
also runs the timed loop. It prints the end-to-end metrics. setup_s runs
from starting a worker to its first timed operation. ops_per_s and the
latencies come from the least disturbed part of the window: for the
in-process workloads the fastest chunks of whole working-set cycles that
hold worker.KEEP_OPS operations, for cli-oneshot the fastest half of each
command's runs. Whole-window figures are printed beside them.
--trace 1 runs the loop twice, untraced and traced, and prints the
per-module metrics, the self time per module and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Results, with the environment, are also
written under .perfbench_out/ in the checkout, with the spans of a traced
run as CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("membership", "roundtrip", "model-ops", "cli-oneshot")

#: fresh-process set-ups per untraced run; setup_s is their median
SETUP_RUNS = 3
#: no worker may take longer than this (the whole run must end in 180 s)
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SETUP_LAYERS = ("setup.import_s", "setup.inputs_s", "order.ack_order5_cold_s")
SELF_MODULES = ("core", "order", "arith", "cardinal", "parser", "interp",
                "evaluate", "cli", "bench")

#: per-module metrics: a name ending in .us or .ms is the median time per
#: call of the span it names; the rest are described where computed.
PER_LAYER = {
    **{f"evaluate.eval_set.{r}.us": "us" for r in (
        "fast_solver", "literal_solver", "fast_walk", "literal_walk")},
    "core.mem.us": "us",
    "interp.translate_d.ms": "ms",
    **{f"evaluate.eval_{lang}.{side}.us": "us"
       for lang in ("arith", "set") for side in ("source", "image")},
    "parser.parse_arith.us": "us",
    "parser.parse_set.us": "us",
    "interp.translate.ad.us": "us",
    "interp.translate.da.us": "us",
    "roundtrip.top_formula_share": "ratio",
    **{f"core.{k}.us": "us" for k in ("decode_hot", "decode_wide", "encode")},
    **{f"order.{k}.us": "us" for k in (
        "ack_less", "lex_less", "successor_in_level", "successor_carry",
        "position", "numeral")},
    **{f"arith.{op}.{mode}.us": "us"
       for op in ("add", "mul", "exp") for mode in ("fast", "literal")},
    **{f"cardinal.{k}.us": "us" for k in (
        "card_add", "product", "card_exp", "count_functions", "inj_exists",
        "injection_search")},
    **{k: "s" for k in SETUP_LAYERS},
    **{f"cli.{k}.ms": "ms" for k in (
        "encode", "decode", "translate_a", "eval_set", "eval_set_no_solver",
        "eval_arith", "eval_literal", "verify_cardinal", "verify_selftest",
        "python_start", "import")},
    **{f"self.{m}.share": "ratio" for m in SELF_MODULES},
    "trace.overhead_pct": "%",
}

SCALE = {"us": 1e6, "ms": 1e3}


class BenchError(Exception):
    pass


def spawn(args: "list[str]") -> "tuple[dict, float]":
    """Run one worker to completion; its JSON report and when it started."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: "
                         f"{' '.join(args)}")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{' '.join(args)}\n{err}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def environment(workload: str, seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        git_sha = p.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hfinterp").rglob("*")):
        if path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "workload": workload, "seed": seed}


def end_to_end(workload: str, seed: int, seconds: float):
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", "0"]
    runs = [spawn(common + ["--setup-only"]) for _ in range(SETUP_RUNS - 1)]
    runs.append(spawn(common))
    setups = [r["ready_at"] - spawned for r, spawned in runs]
    main = runs[-1][0]
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    metrics = {"setup_s": statistics.median(setups),
               **{k: main[k] for k in END_TO_END if k != "setup_s"}}
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups "
                   f"{[round(s, 3) for s in setups]}",
        "ops_per_s": f"{main['ops']} ops in the {main['kept']}; whole "
                     f"window {main['window_ops_per_s']:.6g} over "
                     f"{main['window_s']:.2f} s",
        "latency_p50_ms": f"median of those {main['ops']}; whole window "
                          f"{main['window_latency_p50_ms']:.6g}",
        "latency_tail_ms": f"p{main['tail_percentile']:g}: "
                           f"{main['tail_beyond']} of {main['ops']} "
                           "samples beyond it",
        "peak_rss_mb": f"ru_maxrss of {main['rss_of']}",
    }
    lines = [f"  {k:<18} {metrics[k]:>14.6g} {END_TO_END[k]:<5} {notes[k]}"
             for k in END_TO_END]
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"  {'fail_ratio':<18} {ratio:>14.6g} {'ratio':<5} "
                 f"{failed} failed of {attempted} attempted")
    extra = {"tail_percentile": main["tail_percentile"],
             "tail_beyond": main["tail_beyond"], "samples": main["ops"]}
    return metrics, attempted, failed, lines, extra, [r for r, _ in runs]


def per_layer(workload: str, seed: int, seconds: float):
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)]
    base, _ = spawn(common + ["--trace", "0"])
    OUT.mkdir(exist_ok=True)
    spans_csv = OUT / f"spans-{workload}-seed{seed}.csv"
    traced, _ = spawn(common + ["--trace", "1", "--spans", str(spans_csv)])
    layers, self_s = traced["layers"], traced["self_s"]
    busy = sum(self_s.values())
    overhead = 100 * (base["ops_per_s"] - traced["ops_per_s"]) \
        / base["ops_per_s"]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in SETUP_LAYERS:
            value = traced[name.split(".", 1)[1]] or 0.0
        elif name.startswith("self."):
            value = self_s.get(name.split(".")[1], 0.0) / busy
        elif name == "trace.overhead_pct":
            value = overhead
        elif name in traced["extra"]:
            value = traced["extra"][name]
        elif unit in SCALE:
            span = layers.get(name[:-3])
            value = span["median_s"] * SCALE[unit] if span else 0.0
        else:
            value = 0.0
        metrics[name] = value

    lines = ["  per call site (traced run; setup spans included):",
             f"    {'span':<36} {'calls':>8} {'busy_ms':>11} "
             f"{'median/call':>13}"]
    for name in sorted(layers):
        s = layers[name]
        lines.append(f"    {name:<36} {s['calls']:>8} "
                     f"{s['busy_s'] * 1e3:>11.3f} "
                     f"{s['median_s'] * 1e6:>10.2f} us")
    lines.append(f"  self time per module over the timed window "
                 f"(busy {busy:.3f} s):")
    for module, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {module:<10} {s:>10.4f} s {100 * s / busy:>6.2f} %")
    lines.append("  waiting time: none reported; one thread in a closed "
                 "loop waits on no queue or lock")
    top = traced["extra"].get("roundtrip.top_formula")
    if top:
        lines.append(f"  costliest line: {top!r}, "
                     f"{100 * metrics['roundtrip.top_formula_share']:.2f} % "
                     "of busy time")
    lines.append(f"  setup: import {traced['import_s']:.4f} s, inputs "
                 f"{traced['inputs_s']:.4f} s, ack_order(5) cold "
                 f"{metrics['order.ack_order5_cold_s']:.4f} s")
    lines.append(f"  tracing overhead: ops_per_s {base['ops_per_s']:.6g} "
                 f"untraced, {traced['ops_per_s']:.6g} traced: "
                 f"{overhead:.2f} %")
    lines.append(f"  spans written to {spans_csv.relative_to(ROOT)}")
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    extra = {"tail_percentile": traced["tail_percentile"],
             "tail_beyond": traced["tail_beyond"], "samples": traced["ops"]}
    return metrics, attempted, failed, lines, extra, [base, traced]


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hfinterp" / "__init__.py").is_file():
        print(f"no hfinterp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, lines, extra, workers = measure(
            args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(e, file=sys.stderr)
        return 3
    env = {**environment(args.workload, args.seed), **extra}
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    for w in workers:
        for failure in w.get("failures", []):
            lines.append(f"  FAILED {failure}")
    print(f"hfinterp benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s window, trace {args.trace}; closed loop, "
          "1 client, 1 thread")
    print("env " + json.dumps(env))
    print("\n".join(lines))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"env": env, "result": result,
                                "workers": workers}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
