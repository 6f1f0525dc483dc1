"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the checkout root, the workload, its orders and seed, a scratch
directory, whether to trace, and whether to only write digests.  A fresh
interpreter per pass starts the program's caches cold, as every `kts3p`
invocation does.  Every operation is caught and scored, so one that raises
counts as failed without ending the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import tracer as T
import workloads as W

# The layers that must record calls on every workload, whatever its orders.
ALWAYS_CALLED = {
    "catalog.get", "pipeline.route", "pipeline.align_calls",
    "pipeline.build_kts", "groups.group_index", "groups.translation_calls",
    "designkit.predicate", "verify.full", "verify.sts", "verify.resolution",
    "verify.pyramidal"}
# The layers a route step recorded in `system.trace` implies were called.
STEP_LAYERS = {
    "9mod24": {"directcon.construct"}, "15mod24": {"directcon.construct"},
    "15mod24bis": {"directcon.construct"},
    "doubly-disjoint": {"directcon.construct"},
    "lift": {"directcon.lift_prdf"},
    "compose-homogeneous": {"compose.homogeneous_dm",
                            "compose.df_compose_dm"},
    "compose-splittable": {"compose.df_compose_dm"},
    "union": {"compose.union"}, "head-tower": {"compose.union"},
    "catalog": {"catalog.get"}}
CLI_LAYERS = {"cli.encode", "cli.decode"}
BASE_BLOCK_CAP = 360   # verify_full re-derives base blocks up to this |G|


def load_program(root):
    """Import the program from the checkout's own sources, never from an
    installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kts3p
    from kts3p import catalog, cli, compose, directcon, groups, pipeline, verify
    if not os.path.abspath(kts3p.__file__).startswith(src + os.sep):
        raise ImportError(f"kts3p imported from {kts3p.__file__}, not {src}")
    return {"catalog": catalog, "cli": cli, "compose": compose,
            "directcon": directcon, "groups": groups, "pipeline": pipeline,
            "verify": verify}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_cli(cli, argv):
    """`kts3p ARGV` in this process: its exit code, or None and the error
    when it raises (a traceback for a user of the command)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception as exc:  # noqa: BLE001 - scored as the op's outcome
        return None, f"{type(exc).__name__}: {exc}"


class Pass:
    """Times the operations of one pass and scores their outcomes."""

    def __init__(self, spec, modules, tracer):
        self.spec = spec
        self.m = modules
        self.tracer = tracer
        self.ops = []
        self.digests = {}
        self.steps = set()
        self.construct_s = 0.0
        self.verify_s = 0.0
        self.paused = 0.0

    @contextlib.contextmanager
    def op(self, v, kind, name):
        """Times one operation; the body sets rec["ok"] and may raise."""
        rec = {"v": v, "kind": kind, "name": name, "ok": False, "error": None}
        if self.tracer is not None:
            self.tracer.op = f"{v}:{kind}:{name}"
        t0 = time.perf_counter()
        try:
            yield rec
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            rec["error"] = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        rec["seconds"] = dt
        if kind == "construct":
            self.construct_s += dt
        else:
            self.verify_s += dt
        self.ops.append(rec)

    @contextlib.contextmanager
    def untimed(self):
        """Benchmark bookkeeping, left out of the pass time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - t0

    def library_order(self, v):
        pipeline, verify = self.m["pipeline"], self.m["verify"]
        system = None
        with self.op(v, "construct", "construct") as rec:
            system = pipeline.construct(v)
            rec["ok"] = system.order == v
        with self.op(v, "verify", "verify_full") as rec:
            if system is None:
                raise RuntimeError("construct failed")
            rec["ok"] = bool(verify.verify_full(system)["ok"])
        with self.untimed():
            if system is not None and system.trace:
                self.steps.update(s["op"] for s in system.trace["steps"])

    def cli_order(self, v):
        cli, work, seed = self.m["cli"], self.spec["workdir"], self.spec["seed"]
        clean = os.path.join(work, f"kts{v}.json")
        with self.op(v, "construct", "construct") as rec:
            code, rec["error"] = run_cli(
                cli, ["construct", "--order", str(v), "--out", clean])
            rec["ok"] = code == 0 and os.path.exists(clean)
            rec["exit"] = code
        if not rec["ok"]:
            for name in ("clean",) + W.CORRUPTIONS:
                self.ops.append({"v": v, "kind": "verify", "name": name,
                                 "ok": False, "error": "construct failed"})
            return
        with self.untimed():
            self.digests[v] = sha256_file(clean)
            with open(clean) as fh:
                text = fh.read()
            inputs = {"clean": clean}
            for name, body in W.corruptions(text, seed, v):
                inputs[name] = os.path.join(work, f"kts{v}-{name}.json")
                with open(inputs[name], "w") as fh:
                    fh.write(body)
        for name, path in inputs.items():
            with self.op(v, "verify", name) as rec:
                code, rec["error"] = run_cli(
                    cli, ["verify", "--input", path, "--level", "full"])
                rec["exit"] = code
                rec["ok"] = W.expected_exit(name, code)
                rec["known_defect"] = (name in W.KNOWN_TRACEBACKS
                                       and code is None)
        with self.untimed():
            for path in inputs.values():
                os.remove(path)

    def run(self):
        one = self.cli_order if self.spec["workload"] == "cli-roundtrip" \
            else self.library_order
        t0 = time.perf_counter()
        for v in self.spec["orders"]:
            one(v)
        return time.perf_counter() - t0 - self.paused


def expected_layers(spec, steps):
    """Layers the pass must have called: those of every workload, those its
    route steps imply (recorded by the program, or tabled for sweep orders),
    the base-block check for small groups and the JSON layers for the CLI."""
    want = set(ALWAYS_CALLED)
    for v in spec["orders"]:
        steps = steps.union(W.SWEEP_STEPS.get(v, ()))
    for s in steps:
        want |= STEP_LAYERS[s]
    if any(v - 3 <= BASE_BLOCK_CAP for v in spec["orders"]):
        want.add("verify.base_blocks")
    if spec["workload"] == "cli-roundtrip":
        want |= CLI_LAYERS
    return want


def write_digests(spec, modules):
    """sha256 of the file `kts3p construct --order v` writes, per order."""
    out = {}
    for v in spec["orders"]:
        path = os.path.join(spec["workdir"], f"digest{v}.json")
        code, err = run_cli(modules["cli"],
                            ["construct", "--order", str(v), "--out", path])
        if code != 0:
            raise RuntimeError(f"construct --order {v} exited {code}: {err}")
        out[v] = sha256_file(path)
        os.remove(path)
    return {"digests": out, "peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    modules = load_program(spec["root"])
    if spec.get("digests_only"):
        result = write_digests(spec, modules)
    else:
        tracer = T.Tracer(modules) if spec["trace"] else None
        if tracer is not None:
            tracer.install()
        p = Pass(spec, modules, tracer)
        pass_s = p.run()
        result = {
            "pass_s": pass_s, "construct_s": p.construct_s,
            "verify_s": p.verify_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": p.ops, "digests": p.digests, "steps": sorted(p.steps)}
        if tracer is not None:
            tracer.uninstall()
            metrics, coverage = T.layer_metrics(tracer, pass_s)
            want = expected_layers(spec, p.steps)
            got = tracer.called()
            coverage["never_called"] = sorted(want - got)
            coverage["unexpected"] = sorted(got & CLI_LAYERS - want)
            result.update(layers=metrics, coverage=coverage,
                          spans=tracer.spans, counts=tracer.counts)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
