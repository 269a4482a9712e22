"""Run one degenctrl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hum-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs as a closed loop with
one client: one untimed warm-up op, then ops back to back until
``--seconds`` have passed. Each op is checked; a failed check is
printed and counted. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``tracer.PER_LAYER`` with ``--trace 1``. ``--workload all`` runs every
workload, each in its own process.

Outputs go to a temporary directory inside the checkout that is removed
at the end. The exit code is 0 whenever a result line is printed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracer
import workloads as wl

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("ops_per_s", "1/s"),
              ("cpu_per_op_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio"))
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, write the inputs, exit")
    return parser.parse_args(argv)


def host_probe() -> float:
    """Seconds for a fixed pure-Python plus numpy kernel (drift record only)."""
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    # elementwise and sorting only: BLAS thread start-up would swamp it
    x = np.sin(np.arange(200_000) * 1e-3)
    np.sort(np.cumsum(x))
    return time.perf_counter() - start


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def commit_id():
    """The checkout's commit from .git, or None outside a git checkout."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = wl.SRC / "degenctrl"
    for path in sorted(pkg.rglob("*.py")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, ops, notes) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit_id(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k)
                for k in ("DEGENCTRL_THREADS", "OPENBLAS_NUM_THREADS")},
        "load": "closed loop, one client, ops back to back; no queueing, "
                "so no per-layer wait time is recorded",
        "op_wall_s": [round(o["wall"], 4) for o in ops],
        "host_probe_ms": [round(o["probe"] * 1e3, 3) for o in ops],
        "tracer_notes": notes,
    }


def measure_setup(args) -> list:
    """Wall seconds of fresh processes that import the program and write inputs."""
    cmd = [sys.executable, str(wl.ROOT / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.DEVNULL,
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


class Loop:
    """Closed loop over one workload: runs, times and checks ops."""

    def __init__(self, workload, tmp, trace):
        self.workload = workload
        self.tmp = tmp
        self.tracer = tracer.Tracer() if trace else None
        self.ops = []          # one dict per op, warm-up first
        self.layer_ops = []    # per-layer metrics of each traced op

    def op(self, index: int, traced: bool):
        probe = host_probe()
        out = self.tmp / f"op-{index}"
        if traced:
            self.tracer.install()
            first = self.tracer.begin_op()
        problems = []
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            done = self.workload.run(index, out)
        except Exception:      # a crashing op is a failed op, not a crash
            done = None
            problems.append(traceback.format_exc(limit=3).strip())
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        if traced:
            self.tracer.uninstall()
            self.layer_ops.append(self.tracer.op_metrics(first))
        if done is not None:
            try:
                problems += self.workload.check(index, done)
            except Exception:  # unreadable output is a failed check too
                problems.append(traceback.format_exc(limit=3).strip())
        shutil.rmtree(out, ignore_errors=True)
        for problem in problems:
            print(f"op {index} FAILED: {problem}")
        self.ops.append({"wall": wall, "cpu": cpu, "traced": traced,
                         "ok": not problems, "probe": probe})

    def run(self, seconds: float):
        self.op(0, traced=False)            # warm-up
        window = time.perf_counter()
        index = 1
        while index == 1 or time.perf_counter() - window < seconds:
            self.op(index, traced=self.tracer is not None and index % 2 == 1)
            index += 1


def end_to_end(loop, setup_times) -> dict:
    timed = loop.ops[1:]
    walls = [o["wall"] for o in timed]
    failed = sum(not o["ok"] for o in loop.ops)
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        "cpu_per_op_s": sum(o["cpu"] for o in timed) / len(timed),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(loop.ops),
    }


def per_layer(loop) -> dict:
    traced = [o["wall"] for o in loop.ops[1:] if o["traced"]]
    plain = [o["wall"] for o in loop.ops[1:] if not o["traced"]]
    # with a single timed op the untraced warm-up stands in
    plain = plain or [loop.ops[0]["wall"]]
    out = {key: statistics.median(op[key] for op in loop.layer_ops)
           for key in loop.layer_ops[0]}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {key: out[key] for key, _ in tracer.PER_LAYER}


def run_one(args) -> int:
    try:
        cli = wl.load_cli()
    except wl.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tmp = wl.ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workload = wl.WORKLOADS[args.workload](cli, args.seed, tmp)
        if args.setup_only:
            return 0
        loop = Loop(workload, tmp, args.trace)
        loop.run(args.seconds)
        if args.trace:
            units = dict(tracer.PER_LAYER)
            values = per_layer(loop)
            notes = loop.tracer.notes
        else:
            units = dict(END_TO_END)
            values = end_to_end(loop, measure_setup(args))
            notes = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass            # another run still uses it
    failed = sum(not o["ok"] for o in loop.ops)
    print("run-record " + json.dumps(run_record(args, loop.ops, notes),
                                     sort_keys=True))
    print(f"{args.workload}: {len(loop.ops) - 1} timed ops after one warm-up, "
          f"{failed} of {len(loop.ops)} ops failed")
    for key, value in values.items():
        suffix = f"  (n={len(loop.ops) - 1})" if key == "op_p50_s" else ""
        print(f"  {key:32s} {value:14.6g} {units[key]}{suffix}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(loop.ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line maps name to result."""
    results, code = {}, 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(wl.ROOT / "perfbench" / "run.py"),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=wl.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("run-record ")))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
