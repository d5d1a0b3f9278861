"""Counting, timing and tracing the operations of one benchmark run.

A workload reports every operation it performs through `Recorder.op`,
with the calls into the program that the operation made, as
``(layer, start, end, n)`` tuples: `layer` names the module and function
called (``"core.decode_hot"``), `start` and `end` are `perf_counter`
readings and `n` is how many calls a batched operation made.

Every operation is checked and counted, in set-up and warm-up too.
Latencies are kept only for the timed window. With tracing on, spans are
kept in memory: each operation gets a root span and one child span per
call, all sharing the operation's id. Only the benchmark's own calls into
the program are spanned; there are no spans inside the program.
"""

from __future__ import annotations

import statistics
from array import array

SETUP = "setup"      # inputs and lazy builds: spans kept, no latencies
WARMUP = "warmup"    # one untimed pass: answers checked, nothing else kept
WINDOW = "window"    # the timed closed loop
PROBE = "probe"      # traced-only measurements after the window

#: the ladder the tail percentile is chosen from, as fractions
TAIL_LADDER = ((1, 2), (3, 4), (9, 10), (19, 20), (99, 100), (999, 1000),
               (9999, 10000), (99999, 100000))
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


class Spans:
    """Spans in parallel arrays: (op id, parent, name, start, end, n)."""

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self.op = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")
        self.groups: "dict[int, str]" = {}   # op id -> phase of its root
        self._next_op = 0

    def _add(self, op: int, parent: int, name: str, start: float,
             end: float, n: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.op.append(op)
        self.parent.append(parent)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.n.append(n)
        return len(self.op) - 1

    def add_op(self, root: str, phase: str, calls) -> None:
        """A root span over `calls`, with one child span per call."""
        self._next_op += 1
        op = self._next_op
        self.groups[op] = phase
        top = self._add(op, -1, root, calls[0][1], calls[-1][2], 1)
        for layer, start, end, n in calls:
            self._add(op, top, layer, start, end, n)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,op,parent,phase,name,start_s,end_s,calls\n")
            for i in range(len(self.op)):
                op, name = self.op[i], self.names[self.name[i]]
                fh.write(f"{i},{op},{self.parent[i]},{self.groups[op]},"
                         f"{name},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.n[i]}\n")

    def layers(self) -> "dict[str, dict]":
        """Per call site: calls, busy seconds, median seconds per call."""
        per_call: "dict[int, list[float]]" = {}
        calls: "dict[int, int]" = {}
        busy: "dict[int, float]" = {}
        for i in range(len(self.op)):
            if self.parent[i] < 0:
                continue
            nid, n = self.name[i], self.n[i]
            d = self.end[i] - self.start[i]
            per_call.setdefault(nid, []).append(d / n)
            calls[nid] = calls.get(nid, 0) + n
            busy[nid] = busy.get(nid, 0.0) + d
        return {self.names[nid]: {"calls": calls[nid], "busy_s": busy[nid],
                                  "median_s": statistics.median(v)}
                for nid, v in per_call.items()}

    def self_time(self) -> "dict[str, float]":
        """Self seconds per module over the timed window.

        A span's self time is its duration minus the part its children
        cover. Children are the benchmark's calls into one module and never
        overlap, so that part is their summed duration. Root self time is
        the benchmark's own work between calls, reported as ``bench``.
        """
        child_sum = [0.0] * len(self.op)
        for i in range(len(self.op)):
            p = self.parent[i]
            if p >= 0:
                child_sum[p] += self.end[i] - self.start[i]
        out: "dict[str, float]" = {}
        for i in range(len(self.op)):
            if self.groups[self.op[i]] != WINDOW:
                continue
            own = self.end[i] - self.start[i] - child_sum[i]
            if self.parent[i] < 0:
                module = "bench"
            else:
                module = self.names[self.name[i]].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + own
        return out


class Recorder:
    """Checks and counts operations; keeps latencies and (optionally) spans."""

    def __init__(self, trace: bool) -> None:
        self.phase = SETUP
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        self.latencies = array("d")
        self._class_ids = array("H")       # first layer called, per latency
        self._class_names: "dict[str, int]" = {}
        self.spans = Spans() if trace else None

    def op(self, calls, ok: bool, detail=None) -> None:
        """One checked operation; `detail` describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{self.phase}: {detail!r}")
        if self.phase == WINDOW:
            self.latencies.append(calls[-1][2] - calls[0][1])
            cid = self._class_names.setdefault(calls[0][0],
                                               len(self._class_names))
            self._class_ids.append(cid)
        if self.spans is not None and self.phase != WARMUP:
            self.spans.add_op("op", self.phase, calls)

    def classes(self) -> "list[str]":
        """The first layer each timed operation called, in order."""
        names = list(self._class_names)
        return [names[i] for i in self._class_ids]

    def aside(self, calls) -> None:
        """Calls that belong to no single operation (per-pass preparation)."""
        if self.spans is not None and self.phase != WARMUP:
            self.spans.add_op("prep", self.phase, calls)


def tail(latencies: "list[float]") -> "tuple[float, float, int]":
    """(percentile, value, samples beyond it) for the highest percentile of
    the ladder that has at least TAIL_BEYOND samples beyond it.

    Nearest-rank percentiles. Below 2 * TAIL_BEYOND samples no rung
    qualifies, and the median is returned with the count it has.
    """
    xs = sorted(latencies)
    n = len(xs)
    num, den = TAIL_LADDER[0]
    for cand in reversed(TAIL_LADDER):
        if n - -(-cand[0] * n // cand[1]) >= TAIL_BEYOND:
            num, den = cand
            break
    k = -(-num * n // den)
    return 100 * num / den, xs[k - 1], n - k


class InProcess:
    """Defaults for a workload that calls the library in this process:
    the warm-up is one untimed pass, and there are no probes or extras.
    `chunk_passes` passes make one full cycle of the working set."""

    in_process = True
    chunk_passes = 1

    def warm_up(self, rec: Recorder) -> None:
        self.run_pass(rec)

    def probe(self, rec: Recorder) -> None:
        pass

    def extra_metrics(self) -> dict:
        return {}
