"""The kts3p benchmark: seeded workloads through `pipeline`, `verify` and `cli`,
with every output checked.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
Each pass runs in a fresh worker process, one at a time, with numpy's
thread pools pinned to one thread.  Passes repeat while the next one is
expected to end within `--seconds` (at least one).  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics
(medians over passes); with `--trace 1` it holds the per-layer metrics of
one traced pass.  The lines
before it record the machine, the orders, each pass, the sha256 of every
constructed system file and the failure share.  `--out FILE` also writes
the whole result, operations and spans included.

Exit status 0 means a result was printed; `correct` in it is false if any
output was wrong.  Any other status means the benchmark itself could not
run, and nothing is printed on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 11
DEADLINE_S = 170          # every run ends within this, or fails
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import kts3p.cli
from kts3p import catalog
t1 = time.perf_counter()
report = catalog.verify_all()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "verify_all_s": t2 - t1,
                  "ok": bool(report) and all(m == "ok" for m in report.values()),
                  "file": kts3p.__file__}))
"""


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def remaining(t_start):
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    return left


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def measure_setup(t_start, runs):
    """Fresh interpreters timed from start to `import kts3p.cli` plus
    `catalog.verify_all()` done."""
    walls, inner = [], []
    src = os.path.join(ROOT, "src") + os.sep
    for _ in range(runs):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                                  capture_output=True, text=True,
                                  env=child_env(), cwd=ROOT,
                                  timeout=remaining(t_start))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up passed the {DEADLINE_S} s deadline") \
                from exc
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not rec["file"].startswith(src):
            raise BenchError(f"kts3p imported from {rec['file']}, not {src}")
        inner.append(rec)
    return walls, inner


def run_worker(spec, work, t_start):
    spec = dict(spec, root=ROOT, workdir=work)
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             result_path], capture_output=True, text=True, env=child_env(),
            cwd=ROOT, timeout=remaining(t_start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    with open(result_path) as fh:
        return json.load(fh)


def fail_counts(passes):
    ops = [o for p in passes for o in p["ops"]]
    unexpected = [o for o in ops if not o["ok"]]
    known = [o for o in ops if o.get("known_defect")]
    return ops, unexpected, known


def digest_lines(passes, extra=None):
    """One line per order; a digest that differs between passes is shown."""
    seen = {}
    for p in passes + ([extra] if extra else []):
        for v, d in p["digests"].items():
            seen.setdefault(int(v), []).append(d)
    lines = []
    for v in sorted(seen):
        ds = sorted(set(seen[v]))
        note = "" if len(ds) == 1 else "  (differs between passes)"
        lines.append(f"sha256 v={v} {' '.join(ds)}{note}")
    return lines


def run(args):
    t_start = time.monotonic()
    if not os.path.isdir(os.path.join(ROOT, "src", "kts3p")):
        raise BenchError(f"no program sources under {ROOT}/src/kts3p")
    info = {"machine": machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace),
            "orders": args.orders or W.orders(args.workload, args.seed)}
    lines = ["machine " + json.dumps(info["machine"]),
             f"workload {args.workload} seed {args.seed} orders "
             f"{info['orders']}"]

    # half the set-up probes before the passes and half after, so that their
    # median spans the run rather than one moment of the host's load
    walls, inner = measure_setup(t_start, SETUP_RUNS // 2)
    spec = {"workload": args.workload, "seed": args.seed,
            "orders": info["orders"], "trace": False}
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        # passes repeat while the next one, as long as the median one so
        # far, would end within --seconds
        passes, lengths = [], []
        t_pass = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(run_worker(spec, work, t_start))
            lengths.append(time.monotonic() - t0)
            if args.trace or (time.monotonic() - t_pass
                              + statistics.median(lengths) > args.seconds):
                break
        traced = digests = None
        if args.trace:
            traced = run_worker(dict(spec, trace=True), work, t_start)
            if args.workload != "cli-roundtrip":
                digests = run_worker(dict(spec, digests_only=True), work,
                                     t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    more_walls, more_inner = measure_setup(t_start, SETUP_RUNS - len(walls))
    walls, inner = walls + more_walls, inner + more_inner
    checks = {"catalog verifies": all(r["ok"] for r in inner)}

    scored = passes + ([traced] if traced else [])
    for k, p in enumerate(scored, 1):
        label = "traced pass" if p is traced else f"pass {k}"
        lines.append(f"{label}: pass_s={p['pass_s']:.4f} "
                     f"construct_s={p['construct_s']:.4f} "
                     f"verify_s={p['verify_s']:.4f} "
                     f"peak_rss_mb={p['peak_rss_mb']:.1f}")
    lines += digest_lines(scored, digests)

    ops, unexpected, known = fail_counts(scored)
    lines.append(
        f"fail_share {(len(unexpected) + len(known)) / len(ops):.4f} "
        f"({len(unexpected) + len(known)} of {len(ops)} ops failed: "
        f"{len(known)} known tracebacks, {len(unexpected)} unexpected)")
    for o in unexpected[:10]:
        lines.append(f"FAILED v={o['v']} {o['kind']} {o['name']}: "
                     f"exit={o.get('exit')} {o['error']}")
    checks["no unexpected failures"] = not unexpected
    if args.workload == "sweep" and not args.orders:
        checks["every route step taken"] = all(
            set(p["steps"]) == W.ALL_STEP_OPS for p in scored)

    if args.trace:
        metrics, layer_checks = trace_metrics(traced, passes[0], inner)
        checks.update(layer_checks)
        lines += [f"trace: {name} was never called"
                  for name in traced["coverage"]["never_called"]]
    else:
        med = statistics.median
        metrics = {
            "setup_s": (med(walls), "s"),
            "pass_s": (med(p["pass_s"] for p in passes), "s"),
            "construct_s": (med(p["construct_s"] for p in passes), "s"),
            "verify_s": (med(p["verify_s"] for p in passes), "s"),
            "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
        }
    lines += [f"check {'ok' if ok else 'FAILED'}: {name}"
              for name, ok in checks.items()]
    lines += [f"{name} {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]

    result = {"correct": all(checks.values()), "attempted": len(ops),
              "failed": len(unexpected),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dict(info, result=result, checks=checks,
                           setup_s=walls, setup=inner, passes=passes,
                           traced=traced, digests=digests), fh, indent=1)
    print("\n".join(lines + [json.dumps(result)]), flush=True)


def trace_metrics(traced, untraced, setup):
    """Per-layer metrics of the traced pass, and the trace's own checks."""
    metrics = dict(traced["layers"])
    metrics["catalog.verify_all_s"] = (
        statistics.median(r["verify_all_s"] for r in setup), "s")
    metrics["bench.trace_overhead_share"] = (
        traced["pass_s"] / untraced["pass_s"] - 1, "ratio")
    cov = traced["coverage"]
    unattributed = metrics["bench.unattributed_s"][0]
    checks = {
        "spans nest": cov["negative_self"] == 0,
        "self times + unattributed = pass_s": abs(
            cov["self_sum_s"] + unattributed - traced["pass_s"]) < 1e-6
            and unattributed >= 0,
        "every expected layer called": not cov["never_called"],
        "cli layers only on cli-roundtrip": not cov["unexpected"],
    }
    return metrics, checks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--orders", type=lambda s: [int(v) for v in s.split(",")],
                    default=None, help="comma-separated orders to run instead "
                    "of the seeded draw (for smoke tests)")
    ap.add_argument("--out", default=None,
                    help="also write the whole result as JSON here")
    args = ap.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
