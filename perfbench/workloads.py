"""The four user paths the benchmark drives, each through the real
`sertool` binary built from the checkout.

Every workload is a closed loop with one client: the next operation
starts when the previous one has finished. Inputs are ISCAS'85-alike
netlists written by `sertool generate --seed`, so the benchmark seed
fixes every circuit and every request the program sees.
"""

import json
import math
import os
import random
import re
import shutil
import socket
import struct
import subprocess
import time
from collections import deque
from statistics import geometric_mean, median

from harness import CAL_NOMINAL_S, BenchError, Layers, calibrate, fresh_dir, scaled

_GATES = re.compile(r"\((\d+) gates\)")
_ANALYZE = re.compile(r"circuit \S+: (\d+) gates, critical delay ([0-9.]+) ps\n"
                      r"total unreliability U = ([0-9.]+)")
_OPTIMIZE = re.compile(r"unreliability: ([0-9.]+) -> ([0-9.]+)")
_EVALS = re.compile(r"\((\d+) cost evals")
_ODC = re.compile(r"sites (\d+) \| proven-masked (\d+) \| observed (\d+) \| "
                  r"sampled-unobserved (\d+)")
_PRUNED = re.compile(r"odc: pruned (\d+) provably-masked")
_ODC_STAGE = re.compile(r"odc stage: (\d+) downsizing candidates proposed, (\d+) accepted")
# the only nondeterministic text in analyze/optimize output: wall times
_WALL = re.compile(r"[0-9.]+ s\)")


def stop(proc):
    """SIGTERM a child that is still running (the daemon drains and the
    batch supervisor stops its workers on it), then reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Workload:
    """One benchmark workload. Subclasses implement `setup`, `op` and
    optionally `teardown`/`finish`; the loop in run.py times them."""

    name = ""
    suite = []
    variants = 1

    def __init__(self, tool, run_dir, seed, trace):
        self.tool = tool
        self.run_dir = run_dir
        self.seed = seed
        self.trace = trace
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.layers = Layers()
        self.layer_ops = 0
        self.cals = []

    def calibrate(self):
        """Time the host-speed calibration (see harness.py) and keep it."""
        cal = calibrate()
        self.cals.append(cal)
        return cal

    def scale(self):
        """The run's host-speed factor, for figures summed over the run."""
        return CAL_NOMINAL_S / median(self.cals)

    def fail(self, msg):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def generate(self, dest):
        """Write `variants` circuits of each ISCAS profile in `suite` into
        `dest` as PROFILE_V.bench, generated with seed 10 * seed + V.
        Sets `circuit_gates` (file stem -> gate count); returns the stems.
        The file names do not depend on the seed, only the circuits."""
        self.circuit_gates = {}
        for profile in self.suite:
            for v in range(self.variants):
                stem = f"{profile}_{v}"
                rc, out, err, _ = self.tool.run("generate", profile, "--seed",
                                                self.seed * 10 + v, "-o", f"{stem}.bench",
                                                cwd=dest)
                m = _GATES.search(out)
                if rc != 0 or not m:
                    raise BenchError(f"generate {profile} failed: {err.strip()}")
                self.circuit_gates[stem] = int(m.group(1))
        return list(self.circuit_gates)

    def teardown(self):
        pass

    def finish(self):
        """Called once after the measured loop (the last setup's state)."""
        pass

    def latency_ms(self):
        raise NotImplementedError


class OneShot(Workload):
    """One-shot CLI commands over a fixed circuit suite. A pass visits
    the circuits in a seeded order and runs every command of `kinds` on
    each, in the order listed, so a later kind can use what an earlier
    one wrote. Every command runs with the program's default parameters.
    Latency is the geometric mean over (kind, circuit) of the median, so
    it does not depend on how many operations fit into the run, every
    kind weighs the same, and a speed-up on any one of them shows."""

    kinds = []

    def setup(self, rep):
        self.dir = fresh_dir(self.run_dir / f"setup{rep}")
        self.circuits = self.generate(self.dir)
        self.order = []
        self.samples = {(k, c): [] for k in self.kinds for c in self.circuits}
        self.golden = {}

    def command(self, kind, circuit):
        raise NotImplementedError

    def check(self, kind, circuit, out):
        raise NotImplementedError

    def op(self):
        if not self.order:
            circuits = list(self.circuits)
            self.rng.shuffle(circuits)
            self.order = [(k, c) for c in circuits for k in reversed(self.kinds)]
        kind, circuit = self.order.pop()
        args = list(self.command(kind, circuit))
        if self.trace:
            tpath, mpath = self.dir / "op.trace.json", self.dir / "op.metrics.json"
            args += ["--trace", tpath.name, "--metrics", mpath.name]
        cal = self.calibrate()
        self.attempted += 1
        rc, out, err, wall = self.tool.run(*args, cwd=self.dir)
        # calibrated on both sides: an operation can take over a second,
        # long enough for the host's speed to change under it
        cal = (cal + self.calibrate()) / 2
        if rc != 0:
            self.fail(f"{kind} {circuit}: exit {rc}: {err.strip()[:200]}")
            return
        problem = self.check(kind, circuit, out)
        # deterministic output: every repeat of a command prints the same
        # numbers, whatever the wall time
        canon = _WALL.sub("s)", out)
        if problem is None and self.golden.setdefault((kind, circuit), canon) != canon:
            problem = "output differs from an earlier run of the same command"
        if problem is not None:
            self.fail(f"{kind} {circuit}: {problem}")
            return
        self.samples[(kind, circuit)].append(scaled(wall, cal))
        if self.trace:
            self.layers.add_envelope_process(tpath, mpath, wall)
            self.layer_ops += 1

    def covered(self):
        return all(self.samples.values())

    def latency_ms(self):
        return geometric_mean([median(v) * 1000.0 for v in self.samples.values()])


class Analyze(OneShot):
    """Every estimator a user can run on a netlist: ASERTA (`analyze`),
    the don't-care discovery (`odc`, whose report the next kind reads),
    ASERTA with that report's pruning (`analyze --odc`) and the serpp
    single-pass backend."""

    name = "analyze"
    # c1908 and c2670 (~2.5 s each at the default 10000 vectors), c6288
    # and c3540..c7552 are left out: with them one pass of the four kinds
    # would not fit a run.
    suite = ["c432", "c499", "c880", "c1355"]
    # four variants of each: the cost of c880 varies up to ~1.7x with
    # the generator seed
    variants = 4
    kinds = ["aserta", "odc", "pruned", "serpp"]

    def setup(self, rep):
        super().setup(rep)
        self.proven = {}

    def command(self, kind, circuit):
        bench = f"{circuit}.bench"
        return {
            "aserta": ["analyze", bench, "--top", "5"],
            "odc": ["odc", bench, "-o", f"{circuit}.odc.json"],
            "pruned": ["analyze", bench, "--top", "5", "--odc", f"{circuit}.odc.json"],
            "serpp": ["analyze", bench, "--top", "5", "--backend", "serpp"],
        }[kind]

    def check(self, kind, circuit, out):
        gates = self.circuit_gates[circuit]
        if kind == "odc":
            m = _ODC.search(out)
            if not m:
                return "unparseable odc report"
            sites, *classes = map(int, m.groups())
            if sites != gates or sum(classes) != sites:
                return f"{sites} sites classified as {classes}, the netlist has {gates} gates"
            self.proven[circuit] = classes[0]
            return None
        m = _ANALYZE.search(out)
        if not m:
            return "unparseable analyze report"
        n, delay, u = int(m.group(1)), float(m.group(2)), m.group(3)
        if n != gates:
            return f"reports {n} gates, the netlist has {gates}"
        if not (delay > 0 and float(u) > 0 and math.isfinite(float(u))):
            return f"implausible result: delay {delay} ps, U {u}"
        if kind != "pruned":
            return None
        # pruning skips only provably zero terms: the total must be the
        # unpruned one to the last printed digit
        plain = self.golden.get(("aserta", circuit))
        if plain is None or circuit not in self.proven:
            return "no unpruned analysis or odc report to compare with"
        if u != _ANALYZE.search(plain).group(3):
            return f"pruned total U {u} differs from the unpruned one"
        m = _PRUNED.search(out)
        if not m or int(m.group(1)) != self.proven[circuit]:
            return f"pruned sites differ from the report's {self.proven[circuit]} proven-masked"
        return None


class Optimize(OneShot):
    """SERTOPT three ways on each circuit: exact evaluation, greedy menus
    pre-ranked by serpp (`--eval-tier serpp`), and downsizing moves
    seeded from an odc report (`--odc`) written during set-up."""

    name = "optimize"
    # only c432: at the defaults (4000 vectors, 120 evals, 2 greedy
    # rounds) c499 takes 3-5 s per kind and c1355 16 s; three variants
    # average out the seed, on which SERTOPT's cost depends ~1.3x
    suite = ["c432"]
    variants = 3
    kinds = ["exact", "tiered", "odc"]

    def setup(self, rep):
        super().setup(rep)
        for c in self.circuits:
            rc, _, err, _ = self.tool.run("odc", f"{c}.bench", "-o", f"{c}.odc.json", cwd=self.dir)
            if rc != 0:
                raise BenchError(f"odc {c} failed: {err.strip()}")

    def command(self, kind, circuit):
        return ["optimize", f"{circuit}.bench"] + {
            "exact": [],
            "tiered": ["--eval-tier", "serpp"],
            "odc": ["--odc", f"{circuit}.odc.json"],
        }[kind]

    def check(self, kind, circuit, out):
        m, e = _OPTIMIZE.search(out), _EVALS.search(out)
        if not m or not e:
            return "unparseable optimize report"
        before, after, evals = float(m.group(1)), float(m.group(2)), int(e.group(1))
        if not (before > 0 and math.isfinite(after) and evals > 0):
            return f"implausible result: U {before} -> {after}, {evals} evals"
        if after > before:
            return f"optimization raised unreliability: {before} -> {after}"
        if kind == "odc":
            s = _ODC_STAGE.search(out)
            if not s or int(s.group(2)) > int(s.group(1)):
                return "missing or implausible odc stage line"
        return None


# ---------------------------------------------------------------- serve

class Conn:
    """A kept-alive connection speaking the daemon's wire format: a
    4-byte big-endian length, then that many bytes of JSON."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)

    def _read(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
        return bytes(buf)

    def call(self, request):
        body = json.dumps(request).encode()
        self.sock.sendall(struct.pack(">I", len(body)) + body)
        (n,) = struct.unpack(">I", self._read(4))
        return json.loads(self._read(n))

    def close(self):
        self.sock.close()


class Serve(Workload):
    """`sertool serve` under a stationary request mix, sent in rounds of
    20 in seeded order: 14 repeats of an answered request (cache hits),
    4 new `top` values on a pooled circuit (cache misses served from the
    warm incremental pool) and 2 new vector counts (cold misses that
    build a pool entry). Misses cycle through the circuits, so every run
    sends the same mix whatever its length. Latency is the geometric mean
    over (request kind, circuit) of the median latency, so a speed-up on
    any path and circuit shows although most requests are hits: the
    three kinds weigh the same, and the 14/4/2 mix only sets the state
    the cache and pool are in (how many entries compete, how often a
    pool entry is reused), not the weight of each kind."""

    name = "serve"
    # c880 is left out for the reason given at Sweep.suite
    suite = ["c432", "c499", "c1355"]
    # the default vector count of an analyze request; cold misses
    # alternate around it
    base_vectors = 10000
    round_kinds = ["hit"] * 14 + ["warm"] * 4 + ["cold"] * 2

    def setup(self, rep):
        self.dir = fresh_dir(self.run_dir / f"setup{rep}")
        self.circuits = self.generate(self.dir)
        args = ["serve", "--socket", "d.sock", "--quiet", "--cache-entries", "256",
                "--pool-entries", "16"]
        if self.trace:
            args += ["--trace", "daemon.trace.json", "--metrics", "daemon.metrics.json"]
        self.daemon = self.tool.spawn(*args, cwd=self.dir, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL)
        # relative to the working directory: a checkout's absolute path
        # can exceed the 108-byte limit on Unix socket paths
        sock = os.path.relpath(self.dir / "d.sock")
        deadline = time.monotonic() + 30
        while True:
            try:
                self.conn = Conn(sock, timeout=120)
                break
            except OSError:
                if self.daemon.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("serve daemon did not come up")
                time.sleep(0.01)
        health = self.conn.call({"op": "health"})
        if not health.get("ok"):
            raise BenchError(f"serve daemon unhealthy: {health}")
        self.answered = {}
        self.recent = deque(maxlen=64)
        self.current = {}
        self.next_top = {}
        self.plan = []
        self.misses = {"warm": 0, "cold": 0}
        self.samples = {(kind, c): [] for kind in self.round_kinds for c in self.circuits}
        self.elapsed_s = 0.0
        self.dispatch_s = 0.0
        # the daemon's trace and metrics cover only the last set-up
        self.layer_ops = 0
        # warm-up: one answered request per circuit before timing
        for c in self.circuits:
            self.current[c] = self.base_vectors
            self.request("cold", c, self.base_vectors, 5, timed=False)

    def request(self, kind, circuit, vectors, top, timed=True):
        req = {"op": "analyze", "circuit": f"{circuit}.bench", "vectors": vectors, "top": top}
        key = (circuit, vectors, top)
        if timed:
            self.attempted += 1
        t0 = time.perf_counter()
        resp = self.conn.call(req)
        wall = time.perf_counter() - t0
        problem = self.check(kind, key, resp)
        if problem is not None:
            if not timed:
                raise BenchError(f"warm-up request failed: {problem}")
            self.fail(f"{kind} {key}: {problem}")
            return
        self.elapsed_s += resp["elapsed_s"]
        self.dispatch_s += max(0.0, wall - resp["elapsed_s"])
        self.layer_ops += 1
        if key not in self.answered:
            self.answered[key] = resp["payload"]
            self.recent.append(key)
        if timed:
            self.samples[(kind, circuit)].append(scaled(wall, self.cal))

    def check(self, kind, key, resp):
        if not resp.get("ok"):
            return f"rejected: {resp.get('error')}"
        payload = resp["payload"]
        circuit, vectors, _ = key
        if kind == "hit":
            if not resp.get("cache_hit"):
                return "expected a cache hit"
            if payload != self.answered[key]:
                return "cache hit differs from the original answer"
            return None
        if resp.get("cache_hit") or resp.get("warm") != (kind == "warm"):
            return f"expected a {kind} miss, got cache_hit={resp.get('cache_hit')} warm={resp.get('warm')}"
        if payload.get("gates") != self.circuit_gates[circuit] or payload.get("vectors") != vectors:
            return "payload describes another circuit or vector count"
        u = payload.get("total_unreliability")
        if not (isinstance(u, (int, float)) and math.isfinite(u) and u > 0):
            return f"implausible total unreliability {u}"
        if kind == "warm":
            # the warm pool must answer exactly what the cold build did:
            # same total, and the softest-gate lists agree on their
            # common prefix
            ref = self.answered[(circuit, vectors, 5)]
            if u != ref["total_unreliability"]:
                return "warm-pool total differs from the cold answer"
            a, b = payload["top"], ref["top"]
            n = min(len(a), len(b))
            if a[:n] != b[:n]:
                return "warm-pool softest gates differ from the cold answer"
        return None

    def op(self):
        if not self.plan:
            self.plan = list(self.round_kinds)
            self.rng.shuffle(self.plan)
            # one calibration per round: a hit takes ~1 ms, the
            # calibration ~25
            self.cal = self.calibrate()
        kind = self.plan.pop()
        if kind == "hit":
            self.request("hit", *self.rng.choice(self.recent))
            return
        c = self.circuits[self.misses[kind] % len(self.circuits)]
        self.misses[kind] += 1
        if kind == "warm":
            v = self.current[c]
            top = self.next_top.get((c, v), 6)
            self.next_top[(c, v)] = top + 1
            self.request("warm", c, v, top)
        else:
            # new vector counts alternate around the base, so the cost of
            # a cold miss does not grow with the number a run sends
            k = self.misses["cold"]
            v = self.base_vectors + (k + 1) // 2 * (1 if k % 2 else -1)
            self.current[c] = v
            self.request("cold", c, v, 5)

    def stop_daemon(self):
        if getattr(self, "conn", None) is not None:
            self.conn.close()
            self.conn = None
        if getattr(self, "daemon", None) is not None:
            stop(self.daemon)
        self.daemon = None

    def teardown(self):
        self.stop_daemon()

    def finish(self):
        self.stop_daemon()
        if self.trace:
            L = self.layers
            counters = L.add_metrics(self.dir / "daemon.metrics.json")
            rows, roots = L.add_trace(self.dir / "daemon.trace.json", counters)
            # the daemon has no per-request envelope span: its outermost
            # spans are the engine work of cache and pool misses
            engine_us = sum(rows[name][1] for name in {n for n, _ in roots})
            L.engine_us += engine_us
            L.untraced_us += max(0.0, self.elapsed_s * 1e6 - engine_us)
            L.dispatch_us += self.dispatch_s * 1e6

    def covered(self):
        return all(self.samples.values())

    def latency_ms(self):
        return geometric_mean([median(v) * 1000.0 for v in self.samples.values()])


# ---------------------------------------------------------------- sweep

class Sweep(Workload):
    """A sharded batch sweep: two `batch run --shard i/2` processes run
    side by side over one manifest, then `batch merge` folds their
    journals into the results document. One operation is one whole
    sweep, merge included."""

    name = "sweep"
    # profiles whose analysis cost hardly depends on the generator seed
    # (c880's varies ~2x, c432's ~1.5x), so the slowest shard's share
    # stays alike from seed to seed
    suite = ["c499", "c1355"]
    variants = 6
    shards = 2

    def setup(self, rep):
        self.dir = fresh_dir(self.run_dir / f"setup{rep}")
        # the file names fix the hash-keyed shard split, the same for
        # every seed
        self.jobs = [f"{stem}.bench" for stem in self.generate(self.dir)]
        (self.dir / "sweep.manifest").write_text("".join(j + "\n" for j in self.jobs))
        self.samples = []
        self.golden = None
        self.count = 0
        self.job_us = 0.0

    def op(self):
        self.count += 1
        sub = f"sweep{self.count}"
        (self.dir / sub).mkdir()
        cal = self.calibrate()
        self.attempted += 1
        t0 = time.perf_counter()
        procs = []
        shard_walls, errors = [], []
        try:
            for i in range(self.shards):
                args = ["batch", "run", "sweep.manifest", "--cmd", "analyze",
                        "--shard", f"{i}/{self.shards}", "--journal", f"{sub}/s{i}.journal"]
                if self.trace:
                    args += ["--trace", f"{sub}/s{i}.trace.json", "--metrics",
                             f"{sub}/s{i}.metrics.json", "--obs-dir", f"{sub}/obs{i}"]
                procs.append((self.tool.spawn(*args, cwd=self.dir, stdout=subprocess.DEVNULL,
                                              stderr=subprocess.PIPE), time.perf_counter()))
            for p, started in procs:
                _, err = p.communicate(timeout=170)
                shard_walls.append(time.perf_counter() - started)
                if p.returncode != 0:
                    errors.append(f"shard exit {p.returncode}: {err.strip()[:200]}")
        finally:
            for p, _ in procs:
                stop(p)
        rc, _, err, merge_wall = self.tool.run(
            "batch", "merge", *[f"{sub}/s{i}.journal" for i in range(self.shards)],
            "--manifest", "sweep.manifest", "--shards", self.shards,
            "--results", f"{sub}/merged.json", cwd=self.dir)
        wall = time.perf_counter() - t0
        if rc != 0:
            errors.append(f"merge exit {rc}: {err.strip()[:200]}")
        if errors:
            self.fail("; ".join(errors))
            return
        doc = (self.dir / sub / "merged.json").read_bytes()
        problem = self.check(doc)
        if problem is not None:
            self.fail(problem)
            return
        self.samples.append(scaled(wall, cal))
        if self.trace:
            self.fold_layers(sub, shard_walls, merge_wall)
        shutil.rmtree(self.dir / sub)

    def check(self, doc):
        """The merged document must be complete, describe the manifest's
        circuits, and be byte-identical from one sweep to the next."""
        if self.golden is not None:
            return None if doc == self.golden else "merged results differ between sweeps"
        try:
            j = json.loads(doc)
        except ValueError:
            return "merged results are not JSON"
        if "merge" in j:
            return f"merge degraded: {j['merge']}"
        results = {r.get("job"): r for r in j.get("results", [])}
        if sorted(results) != sorted(self.jobs):
            return "merged results do not cover the manifest"
        for job, r in results.items():
            p = r.get("payload", {})
            u = p.get("total_unreliability")
            if r.get("status") != "ok" or p.get("gates") != self.circuit_gates[job[:-6]]:
                return f"job {job}: status {r.get('status')}, gates {p.get('gates')}"
            if not (isinstance(u, (int, float)) and math.isfinite(u) and u > 0):
                return f"job {job}: implausible total unreliability {u}"
        self.golden = doc
        return None

    def fold_layers(self, sub, shard_walls, merge_wall):
        L = self.layers
        base = self.dir / sub
        job_us = 0.0
        for i, shard_wall in enumerate(shard_walls):
            rows, _ = L.add_trace(base / f"s{i}.trace.json")
            L.add_metrics(base / f"s{i}.metrics.json")
            shard_jobs = sum(tot for name, (_, tot, _) in rows.items() if name.startswith("job:"))
            job_us += shard_jobs
            L.dispatch_us += max(0.0, shard_wall * 1e6 - shard_jobs)
            for t in sorted((base / f"obs{i}").glob("*.trace.json")):
                _, roots = L.add_trace(t)
                L.engine_us += sum(tot for _, tot in roots)
            for m in sorted((base / f"obs{i}").glob("*.metrics.json")):
                L.add_metrics(m)
        L.dispatch_us += merge_wall * 1e6
        self.job_us += job_us
        self.layer_ops += 1

    def finish(self):
        # job lifetimes not covered by the workers' engine spans: worker
        # start-up, netlist load, library, size-for-speed, payload
        self.layers.untraced_us = max(0.0, self.job_us - self.layers.engine_us)

    def covered(self):
        return bool(self.samples)

    def latency_ms(self):
        return median(self.samples) * 1000.0


WORKLOADS = {w.name: w for w in (Analyze, Optimize, Serve, Sweep)}
