"""A fast check of the benchmark itself, at tiny orders.

    python3 perfbench/smoke.py

Run it from the root of a checkout; it takes well under a minute.  It checks
that the seeded plans agree with the program's own classification and
routes, that every metric in BENCHMARK.json prints with its unit, that a
clean file passes and corruptions are rejected, that an operation which
raises counts toward `fail_share` without ending the pass, and that the
benchmark refuses to run without the program's sources.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(ok, what):
    print(f"{'ok' if ok else 'FAILED'}  {what}", flush=True)
    if not ok:
        sys.exit(1)


def bench(*args, cwd=ROOT):
    """Runs the benchmark; returns (exit code, stdout lines, full result)."""
    out = os.path.join(ROOT, ".perfbench-smoke.json")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--seconds", "0", "--out", out, *args],
            capture_output=True, text=True, cwd=cwd, timeout=170)
        full = None
        if os.path.exists(out):
            with open(out) as fh:
                full = json.load(fh)
    finally:
        if os.path.exists(out):
            os.remove(out)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines(), full


def unprinted(lines, specs):
    """Metrics missing, or printed without their unit, as a line or in the
    result; metrics in the result that BENCHMARK.json does not name."""
    result = json.loads(lines[-1])["metrics"]
    bad = {s["name"] for s in specs
           if result.get(s["name"], {}).get("unit") != s["unit"]
           or [s["name"], s["unit"]] not in ([ln.split()[0], ln.split()[-1]]
                                             for ln in lines if ln.strip())}
    return sorted(bad | (set(result) - {s["name"] for s in specs}))


def check_plans():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from kts3p import pipeline

    covered = [v for v in range(39, W.SWEEP_MAX + 1, 6)
               if pipeline.classify_order(v).covered]
    check(tuple(covered) == W.SWEEP_ORDERS,
          f"sweep orders are the covered orders in [39, {W.SWEEP_MAX}]")
    routes = {"24n+9": pipeline.construct_case_i,
              "24n+15": pipeline.construct_case_ii,
              "48n+3": pipeline.construct_case_iii}
    wrong = []
    for v in W.SWEEP_ORDERS:
        c = pipeline.classify_order(v)
        steps = {s["op"] for s in routes[c.case](*c.params).trace["steps"]}
        if steps != set(W.SWEEP_STEPS[v]):
            wrong.append(v)
    check(not wrong, f"tabled route steps match the program's {wrong}")
    check(all(pipeline.classify_order(v).covered
              for v in (W.LARGE_ORDER,) + W.CLI_ORDERS),
          "the large and cli-roundtrip orders are covered")
    check(all(pipeline.classify_order(v).covered for v in W.NON_TERMINATING),
          "the excluded orders are ones the program claims to cover")
    check(all(set().union(*(W.SWEEP_STEPS[v] for v in W.sweep_orders(seed)))
              == W.ALL_STEP_OPS for seed in range(20)),
          "sweep draws for seeds 0-19 take every route step")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_plans()

    # order 21 has no route: both of its operations fail, the pass goes on
    code, lines, full = bench("--workload", "sweep", "--orders", "21,39,51")
    check(code == 0, "sweep pass with a raising operation exits 0")
    bad = unprinted(lines, spec["end_to_end"])
    check(not bad, f"every end-to-end metric prints with its unit {bad}")
    result = json.loads(lines[-1])
    check(result["attempted"] == 6 and result["failed"] == 2
          and not result["correct"], "the raising order counts as 2 failed")
    check(any(ln.startswith("fail_share 0.3333 (2 of 6") for ln in lines),
          "fail_share counts the raising operations")
    check(all(o["ok"] for o in full["passes"][0]["ops"] if o["v"] != 21),
          "the orders after it still ran and verified")

    code, lines, full = bench("--workload", "cli-roundtrip", "--orders", "39",
                              "--trace", "1")
    check(code == 0, "traced cli-roundtrip exits 0")
    bad = unprinted(lines, spec["per_layer"])
    check(not bad, f"every per-layer metric prints with its unit {bad}")
    ops = {o["name"]: o for o in full["passes"][0]["ops"]}
    check(ops["clean"]["exit"] == 0, "a clean file passes")
    check(all(ops[n]["exit"] in (2, 3) for n in W.CORRUPTIONS
              if n not in W.KNOWN_TRACEBACKS),
          "every handled corruption is rejected with 2 or 3")
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0,
          "traced cli-roundtrip is correct")
    check(result["metrics"]["cli.decode_bytes"]["value"] > 0,
          "cli layers record on cli-roundtrip")

    code, lines, _ = bench("--workload", "large", "--orders", "51",
                           "--trace", "1")
    result = json.loads(lines[-1])
    check(code == 0 and result["correct"], "traced library pass is correct")
    check(all(result["metrics"][k]["value"] == 0 for k in result["metrics"]
              if k.startswith("cli.")), "cli layers stay zero off the CLI")

    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench("--workload", "sweep", cwd=bare)
        check(code != 0 and not any(ln.startswith("{") for ln in lines),
              "without the program's sources it fails and prints no result")
    finally:
        shutil.rmtree(bare)
    print("smoke: PASS")


if __name__ == "__main__":
    main()
