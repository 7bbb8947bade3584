"""End-to-end, layer-attributed benchmark of sertool's user paths.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from the root of a sertool checkout. It builds bin/sertool.exe from
the checkout's sources (into .bench_build/), generates the workload's
inputs from --seed, sets the workload up several times (reporting the
median as setup_s), then runs operations in a closed loop for --seconds
and checks every answer. Scratch files live in .bench_run/ and are
removed on exit.

Workloads (see workloads.py):
  analyze   one-shot `sertool analyze`, `odc`, `analyze --odc` and
            `analyze --backend serpp` over c432, c499, c880, c1355
  optimize  one-shot `sertool optimize` (SERTOPT) on c432: exact,
            `--eval-tier serpp` and `--odc`
  serve     the `sertool serve` daemon under a cache hit / warm miss /
            cold miss mix, over its framed-JSON socket protocol
  sweep     two `batch run --shard i/2` processes plus `batch merge`

With --trace 0 the result carries the end-to-end metrics:
  latency_ms   median operation latency (the geometric mean over
               (command or request kind, circuit) of their medians)
  setup_s      median of the repeated set-ups
Every time is scaled to the host's nominal speed by a calibration timed
right before it (see harness.py). With --trace 1 every operation also
records the program's own Chrome trace and metrics snapshot, and the
result carries per-layer metrics (per operation); a full span table
goes to stderr.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import RUN_DIR, BenchError, Sertool, build, log, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5


def measure(wl, seconds):
    """Set up SETUP_REPS times (keeping the last), then run operations
    until `seconds` have passed and every key has a sample."""
    setups = []
    for rep in range(SETUP_REPS):
        if rep:
            wl.teardown()
        cal = wl.calibrate()
        t0 = time.perf_counter()
        wl.setup(rep)
        setups.append(scaled(time.perf_counter() - t0, cal))
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline or not wl.covered():
        wl.op()
        if wl.failed > 0 and wl.failed * 4 > wl.attempted:
            break
        if time.perf_counter() - t0 > seconds + 150:
            raise BenchError("the measured loop cannot cover every input in time")
    window = time.perf_counter() - t0
    wl.finish()
    return median(setups), window


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a SIGTERM still runs the clean-up below, which stops the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    run_dir = root / RUN_DIR / f"{args.workload}-{os.getpid()}"
    wl = None
    try:
        exe = build(root)
        wl = WORKLOADS[args.workload](Sertool(exe), run_dir, args.seed, bool(args.trace))
        setup_s, window = measure(wl, args.seconds)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    finally:
        if wl is not None:
            wl.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (root / RUN_DIR).rmdir()
        except OSError:
            pass

    for p in wl.problems:
        log(f"check failed: {p}")
    if not wl.covered():
        log("error: too many failed operations to measure anything")
        return 2
    ok_ops = wl.attempted - wl.failed
    if args.trace:
        wl.layers.print_table(wl.layer_ops, wl.scale())
        metrics = wl.layers.report(wl.layer_ops, wl.scale())
    else:
        metrics = {
            "latency_ms": (wl.latency_ms(), "ms"),
            "setup_s": (setup_s, "s"),
        }
    log(f"{args.workload}: {ok_ops}/{wl.attempted} operations ok in {window:.2f} s")
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
