"""Benchmark for the textdetkit CLI pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble-mask --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one process each

One run drives ``textdetkit.cli.main(argv)`` in this process and thread as a
closed loop with one client: each command starts after the previous one has
finished. Inputs are generated from ``--seed`` and written with the library's
writers; the toolkit only ever sees files. The timed loop runs whole passes
over the workload's frames until ``--seconds`` of command time have passed
(at least two passes, so every command is repeated and its output bytes can
be compared). Each output is read back with the library's readers and
compared with an independent reference; see workloads.py and oracles.py.

The CPU speed of a shared machine can drift by tens of percent within seconds,
so every timed interval (a command, a set-up) is bracketed by a fixed
calibration kernel and the end-to-end times are reported at reference speed:
wall time scaled by CALIBRATION_REF_S over the kernel's mean time around the
interval. The wall-clock figures are printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and then the same number of passes with every layer's public
functions wrapped (spans.py), and reports the per-layer metrics, each
averaged per pass, plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# The toolkit is documented as single-threaded; pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble-mask", "curved-eval", "forward-ref")
# At least three set-ups; cheap ones repeat until a second has passed, so
# their median is not one noisy 50 ms sample.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 25, 1.0
MIN_PASSES = 2
CALIBRATION_REF_S = 0.010  # reference speed: the kernel below takes 10 ms


def calibration_s() -> float:
    """Seconds taken by a fixed piece of interpreter work (floats, a dict)."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(60000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    return time.perf_counter() - start


def timed(fn):
    """Run fn(); return (result, wall seconds, reference-speed seconds)."""
    before = calibration_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, wall * CALIBRATION_REF_S * 2 / (before + calibration_s())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config's layout differs across numpy versions
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Runner:
    """Runs CLI steps, times them, and checks outputs and their determinism."""

    def __init__(self, workload, cli_module):
        self.workload = workload
        self.cli = cli_module
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.first_hash = {}   # (frame, step) -> sha256 of the first output
        self.verdict = {}      # (frame, step) -> error message or None
        self.repeats_checked = 0

    def _invoke(self, step):
        out, err = io.StringIO(), io.StringIO()

        def command():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(step.argv)  # looked up each time: tracing wraps it
            except (Exception, SystemExit) as exc:  # a failed invocation, not a crash
                return f"{type(exc).__name__}: {exc}"

        code, wall, ref = timed(command)
        return code, wall, ref, err.getvalue().strip()

    def _check(self, key, step, code, stderr):
        if code != 0:
            return f"exit {code}: {stderr[-300:]}"
        try:
            with open(step.output, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            return f"exit 0 but the output is unreadable: {exc}"
        if key not in self.first_hash:
            self.first_hash[key] = digest
            try:
                self.verdict[key] = step.check()
            except Exception as exc:  # unreadable output is a failed check
                self.verdict[key] = f"reading the output raised {type(exc).__name__}: {exc}"
            return self.verdict[key]
        self.repeats_checked += 1
        if digest != self.first_hash[key]:
            return "output bytes differ from the first invocation (sha256)"
        return self.verdict[key]

    def loop(self, seconds=None, passes=None):
        """Whole passes until `seconds` of wall command time, or exactly `passes`.

        Samples are per step label and frame, in ms: "ref" at reference
        speed, "wall" as measured.
        """
        samples = {kind: {label: [[] for _ in self.workload.frames]
                          for label in self.workload.steps} for kind in ("ref", "wall")}
        busy = {"ref": 0.0, "wall": 0.0}
        images = done = 0
        while True:
            if passes is not None and done >= passes:
                break
            if passes is None and done >= MIN_PASSES and busy["wall"] >= seconds:
                break
            for f, frame in enumerate(self.workload.frames):
                whole = True
                for step in frame.steps:
                    code, wall, ref, stderr = self._invoke(step)
                    busy["wall"] += wall
                    busy["ref"] += ref
                    self.attempted += 1
                    samples["wall"][step.label][f].append(wall * 1e3)
                    samples["ref"][step.label][f].append(ref * 1e3)
                    problem = self._check((f, step.label), step, code, stderr)
                    if problem is not None:
                        self.failed += 1
                        whole = False
                        self.notes.append(f"{frame.name} {step.label}: {problem}")
                images += whole
            done += 1
        return {"samples": samples, "busy_s": busy, "images": images, "passes": done}


def frame_balanced_median(per_frame):
    """Mean over frames of each frame's median latency (ms)."""
    return statistics.fmean(statistics.median(xs) for xs in per_frame)


def run_one(args) -> int:
    if not (ROOT / "src" / "textdetkit" / "cli.py").is_file():
        print(f"error: no textdetkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    importlib.import_module("textdetkit.cli")
    first_import_s = time.perf_counter() - start

    import numpy as np
    import spans
    import workloads

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    workload = workloads.BUILDERS[args.workload](rng, work)
    # Each set-up imports textdetkit afresh (numpy and scipy stay loaded after
    # the first import) and writes every input file with its writers.
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
            len(setups) < SETUP_MAX_REPEATS and sum(w for w, _ in setups) < SETUP_MIN_SECONDS):
        for name in [m for m in sys.modules if m == "textdetkit" or m.startswith("textdetkit.")]:
            del sys.modules[name]

        def set_up():
            fmt = importlib.import_module("textdetkit.formats")
            importlib.import_module("textdetkit.cli")
            workload.write_inputs(fmt)

        setups.append(timed(set_up)[1:])
    setup_s = statistics.median(ref for _, ref in setups)
    cli = sys.modules["textdetkit.cli"]

    runner = Runner(workload, cli)
    info = machine_info()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload}: seed {args.seed}, {len(workload.frames)} frames "
          f"({', '.join(fr.name for fr in workload.frames)}), steps {' -> '.join(workload.steps)}")
    print(f"setup_s {setup_s:.4f} s at reference speed (median of {len(setups)} set-ups; "
          f"wall median {statistics.median(w for w, _ in setups):.4f} s; first import, "
          f"with numpy and scipy, {first_import_s:.4f} s wall)")

    if args.trace:
        plain = runner.loop(seconds=args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = runner.loop(passes=plain["passes"])
        finally:
            tracer.uninstall()
        tracer.write(ROOT / ".perfbench_work" / f"{args.workload}-spans.json")
        for name in tracer.missing:
            print(f"note: wrap point {name} is absent; its metrics read 0")
        plain_ips = plain["images"] / plain["busy_s"]["ref"]
        traced_ips = traced["images"] / traced["busy_s"]["ref"]
        metrics = tracer.metrics(traced["passes"])
        metrics["trace.untraced_images_per_s"] = (plain_ips, "1/s")
        metrics["trace.traced_images_per_s"] = (traced_ips, "1/s")
        metrics["trace.overhead_frac"] = (
            (plain_ips - traced_ips) / plain_ips if plain_ips else 0.0, "ratio")
        print(f"tracing overhead: images_per_s {plain_ips:.4f} untraced vs {traced_ips:.4f} "
              f"traced ({metrics['trace.overhead_frac'][0]:+.2%}), "
              f"{len(tracer.spans)} spans over {traced['passes']} passes")
        for name, (value, unit) in metrics.items():
            print(f"  {name:45s} {value:14.6g} {unit}")
    else:
        res = runner.loop(seconds=args.seconds)
        metrics = {"images_per_s": (res["images"] / res["busy_s"]["ref"], "1/s")}
        for i, label in enumerate(workload.steps, 1):
            per_frame = res["samples"]["ref"][label]
            value = frame_balanced_median(per_frame)
            metrics[f"cmd{i}_p50_ms"] = (value, "ms")
            print(f"{label}_p50_ms {value:.3f} ms at reference speed (cmd{i}_p50_ms, "
                  f"n={sum(map(len, per_frame))}; wall "
                  f"{frame_balanced_median(res['samples']['wall'][label]):.3f} ms)")
        print("samples_ms " + json.dumps(
            {kind: {label: [[round(x, 1) for x in xs] for xs in per_frame]
                    for label, per_frame in by_label.items()}
             for kind, by_label in res["samples"].items()}))
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(f"images_per_s {metrics['images_per_s'][0]:.4f} 1/s at reference speed "
              f"(n={res['images']} images, {res['passes']} passes; wall "
              f"{res['images'] / res['busy_s']['wall']:.4f} 1/s over "
              f"{res['busy_s']['wall']:.3f} s of command time)")
        print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")

    error_rate = runner.failed / runner.attempted
    print(f"error_rate {error_rate:.4f} ratio (n={runner.attempted} invocations, "
          f"{runner.repeats_checked} repeated outputs compared by sha256)")
    for note in runner.notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each pays its own import."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
        status = status or proc.returncode
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
