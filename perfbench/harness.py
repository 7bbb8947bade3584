"""Shared plumbing for the sertool benchmark: building and running the
real `sertool` binary, and folding its Chrome traces and metrics
snapshots into per-layer numbers.

Everything here uses the Python standard library only.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
import zlib

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"


class BenchError(Exception):
    """A failure that makes the run meaningless (build broke, the daemon
    never came up, a workload could not be set up)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, timeout_s=850):
    """Build bin/sertool.exe from the checkout's sources and return its
    path. The release profile keeps a warning introduced elsewhere from
    failing the benchmark build; the shared dune cache is disabled so
    the build reads and writes only inside the checkout."""
    if not (root / "dune-project").is_file() or not (root / "bin" / "sertool.ml").is_file():
        raise BenchError(f"{root} is not a sertool checkout (no dune-project or bin/sertool.ml)")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", "bin/sertool.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=timeout_s, text=True)
    except FileNotFoundError:
        raise BenchError("dune is not on PATH")
    except subprocess.TimeoutExpired:
        raise BenchError("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise BenchError(f"build failed (exit {r.returncode})")
    exe = root / BUILD_DIR / "default" / "bin" / "sertool.exe"
    if not exe.is_file():
        raise BenchError(f"build produced no {exe}")
    return exe


class Sertool:
    """Runs the built binary with a pinned, sequential worker pool
    (SERTOOL_JOBS=1): results are bit-identical at any width, and one
    domain per process keeps timings comparable on a small shared host.
    Inherited observability variables are cleared so only the flags this
    benchmark passes decide what gets traced."""

    def __init__(self, exe):
        self.exe = str(exe)
        env = dict(os.environ)
        for var in ("SERTOOL_TRACE", "SERTOOL_METRICS", "SERTOOL_TRACE_SAMPLE"):
            env.pop(var, None)
        env["SERTOOL_JOBS"] = "1"
        self.env = env

    def argv(self, *args):
        return [self.exe, *map(str, args)]

    def run(self, *args, cwd, timeout=170):
        """Run to completion; returns (exit code, stdout, stderr, wall s)."""
        t0 = time.perf_counter()
        r = subprocess.run(self.argv(*args), cwd=cwd, env=self.env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
        return r.returncode, r.stdout, r.stderr, time.perf_counter() - t0

    def spawn(self, *args, cwd, **kw):
        return subprocess.Popen(self.argv(*args), cwd=cwd, env=self.env, text=True, **kw)


# ----------------------------------------------------------- host speed

# A shared virtual host changes speed by up to ~1.8x for seconds to
# minutes at a time (co-tenants on the same cores), and every timing of
# a run moves with it. So right before each measurement the benchmark
# times a fixed piece of its own work -- an interpreter loop and a zlib
# compression, ~25 ms at nominal speed -- and reports the measurement
# scaled by CAL_NOMINAL_S over that time: what it would have read with
# the host at its nominal speed. The calibration is code of this file
# only, so two commits of the program are scaled alike. On a 2-vCPU
# host this cut the spread of 8-operation medians about threefold.
CAL_NOMINAL_S = 0.025
_CAL_BYTES = 1 << 19
_CAL_DATA = random.Random(0).getrandbits(8 * _CAL_BYTES).to_bytes(_CAL_BYTES, "little")


def calibrate():
    """Time the fixed calibration work once; returns seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    zlib.compress(_CAL_DATA, 6)
    return time.perf_counter() - t0


def scaled(seconds, cal):
    """`seconds` measured right after a calibration that took `cal`,
    at nominal host speed."""
    return seconds * CAL_NOMINAL_S / cal


# --------------------------------------------------------------- traces

# Per-layer times from the spans the program itself records, each the
# summed total time of the listed (sibling, never nested) spans. Every
# workload runs ASERTA, so its four phases are measured on each; the
# serpp, odc and SERTOPT tier-ranking layers on analyze and optimize.
LAYER_SPANS = {
    "masking_ms": ("aserta.masking",),
    "sta_ms": ("aserta.sta",),
    "ws_tables_ms": ("aserta.ws_tables",),
    "unreliability_ms": ("aserta.unreliability",),
    "serpp_ms": ("serpp.sta", "serpp.profiles", "serpp.estimate"),
    "odc_ms": ("odc.analyze",),
    "tier_rank_ms": ("sertopt.tier_rank",),
}


# Counters the program keeps for the spans that dominate a trace's
# event count. They are never dropped, so when a trace buffer overflowed
# the recorded spans are scaled up to the counted number (see
# Layers.add_trace).
SPAN_COUNTERS = {
    "aserta.masking": ("aserta.masking_runs",),
    "aserta.sta": ("aserta.analyses",),
    "aserta.ws_tables": ("aserta.analyses",),
    "aserta.unreliability": ("aserta.analyses",),
    "par.chunk": ("par.chunks",),
    "par.section": ("par.sections", "par.sequential_sections"),
}


def load_json(path):
    with open(path, "rb") as f:
        return json.loads(f.read())


def fold_trace(doc):
    """Fold one Chrome trace document into per-span-name totals.

    Returns (rows, roots, dropped): rows maps a span name to
    [count, total_us, self_us] (self = total minus time covered by child
    spans on the same thread, "X" events charged wholly to themselves);
    roots lists (name, total_us) for every outermost B/E span;
    dropped is the exporter's count of events lost to a full buffer."""
    rows = {}
    roots = []
    stacks = {}
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph == "B":
            stacks.setdefault((ev.get("pid"), ev.get("tid")), []).append(
                [ev.get("name"), ev.get("ts", 0.0), 0.0])
        elif ph == "E":
            st = stacks.get((ev.get("pid"), ev.get("tid")))
            if not st:
                continue
            name, t0, child = st.pop()
            dur = max(0.0, ev.get("ts", 0.0) - t0)
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += max(0.0, dur - child)
            if st:
                st[-1][2] += dur
            else:
                roots.append((name, dur))
        elif ph == "X":
            dur = float(ev.get("dur", 0.0))
            row = rows.setdefault(ev.get("name"), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur
    dropped = int(doc.get("otherData", {}).get("dropped", 0))
    return rows, roots, dropped


class Layers:
    """Accumulates the per-layer view of one run across every process the
    workload started. Times are kept in microseconds; `ops` is the number
    of operations they are shared over."""

    def __init__(self):
        self.rows = {}
        self.dispatch_us = 0.0
        self.untraced_us = 0.0
        self.engine_us = 0.0
        self.dropped = 0
        self.heap_words = 0.0
        self.counters = {}
        self.hist_sums = {}

    def add_rows(self, rows):
        for name, (c, tot, slf) in rows.items():
            # one row for all of a batch's per-job lifetime events
            if name.startswith("job:"):
                name = "job:*"
            r = self.rows.setdefault(name, [0, 0.0, 0.0])
            r[0] += c
            r[1] += tot
            r[2] += slf

    def add_trace(self, path, counters=None):
        """Fold one trace file; returns its (rows, roots).

        A long-lived process (the serve daemon) can fill its trace
        buffer, after which new events are dropped. Given that process's
        own metrics `counters`, every span listed in SPAN_COUNTERS is
        then scaled from its recorded count to its counted one: an
        estimate from the recorded prefix of the run."""
        rows, roots, dropped = fold_trace(load_json(path))
        if dropped and counters is not None:
            for name, keys in SPAN_COUNTERS.items():
                row = rows.get(name)
                if row and row[0]:
                    k = sum(counters.get(c, 0) for c in keys) / row[0]
                    rows[name] = [row[0] * k, row[1] * k, row[2] * k]
        self.add_rows(rows)
        self.dropped += dropped
        return rows, roots

    def add_metrics(self, path):
        """Fold one metrics snapshot; returns its counters."""
        snap = load_json(path)
        for name, v in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + v
        for name, h in snap.get("histograms", {}).items():
            self.hist_sums[name] = self.hist_sums.get(name, 0) + h.get("sum", 0)
        for name, v in snap.get("gauges", {}).items():
            if name.startswith("mem.") and name.endswith("heap_words_hwm"):
                self.heap_words = max(self.heap_words, float(v))
        return snap.get("counters", {})

    def add_envelope_process(self, trace_path, metrics_path, wall_s):
        """A one-shot CLI command: its outermost `sertool.*` span is the
        program's own view of the operation. Time outside it (process
        start, argument parsing, exit and trace export) is dispatch; its
        self time (netlist load, cell library, size-for-speed, signal
        probabilities, report rendering) is untraced; its children are
        engine time."""
        rows, roots = self.add_trace(trace_path)
        self.add_metrics(metrics_path)
        env_total = sum(t for _, t in roots)
        env_self = sum(rows[n][2] for n in {n for n, _ in roots})
        self.dispatch_us += max(0.0, wall_s * 1e6 - env_total)
        self.untraced_us += env_self
        self.engine_us += env_total - env_self

    def report(self, ops, scale):
        """The per-layer metrics, each shared over `ops` operations; times
        are multiplied by the run's host-speed `scale`."""
        ops = max(1, ops)
        per_op_ms = lambda us: us * scale / ops / 1000.0
        out = {
            "dispatch_ms": (per_op_ms(self.dispatch_us), "ms"),
            "untraced_ms": (per_op_ms(self.untraced_us), "ms"),
            "engine_ms": (per_op_ms(self.engine_us), "ms"),
        }
        for metric, spans in LAYER_SPANS.items():
            out[metric] = (per_op_ms(sum(self.rows.get(s, [0, 0.0, 0.0])[1] for s in spans)),
                           "ms")
        c = self.counters
        out.update({
            "heap_mwords": (self.heap_words / 1e6, "Mwords"),
            "gate_evals": (c.get("aserta.gate_evals", 0) / ops, "count"),
            "sertopt_evals": (c.get("sertopt.evals", 0) / ops, "count"),
            "odc_moves": (c.get("sertopt.odc_moves", 0) / ops, "count"),
            "incr_cone_gates": (self.hist_sums.get("incr.cone_gates", 0) / ops, "count"),
            "par_chunks": (c.get("par.chunks", 0) / ops, "count"),
            "cache_hits": (c.get("serve.cache_hits", 0) / ops, "count"),
            "trace_dropped": (float(self.dropped), "count"),
        })
        return out

    def print_table(self, ops, scale, out=sys.stderr):
        """Where the time goes: every span the program recorded, by self
        time, per operation, at nominal host speed."""
        ops = max(1, ops)
        ms = lambda us: us * scale / ops / 1000.0
        grand = sum(r[2] for r in self.rows.values()) or 1.0
        print(f"{'span':<28} {'count/op':>10} {'total_ms/op':>12} {'self_ms/op':>12} {'self%':>7}",
              file=out)
        for name, (cnt, tot, slf) in sorted(self.rows.items(), key=lambda kv: (-kv[1][2], kv[0])):
            print(f"{name:<28} {cnt / ops:>10.2f} {ms(tot):>12.3f} "
                  f"{ms(slf):>12.3f} {100 * slf / grand:>6.1f}%", file=out)
        print(f"{'(dispatch, outside program)':<28} {'':>10} {'':>12} "
              f"{ms(self.dispatch_us):>12.3f}", file=out)


def fresh_dir(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
