#!/usr/bin/env python3
"""bawkit benchmark: one seeded workload, end to end or traced per layer.

    python3 perfbench/run.py --workload design_map|spectrum_scan|fit_batch \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports bawkit from ./src and writes
temporary output under perfbench/_work, which it removes again.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, measured with
tracing off; with --trace 1 they are the per-layer ones.  The exit code is
1 when an output check fails and 2 when the checkout has no bawkit sources.
See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOADS = ("design_map", "spectrum_scan", "fit_batch")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_STARTS = 5             # the calibrator is one of them
CAL_TARGET_HZ = 4.9e9
CAL_PASSES = 10


def reply(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"fresh_start.py exited with {proc.wait()}")
    return json.loads(line)


class Calibrator:
    """A fresh interpreter that calibrates the nominal stack on request.

    The target is fixed, so calibrate_s compares the same work on every
    seed.  Calibrations are spread over the run, and calibrate_s is their
    mean, like the workload items' latencies.
    """

    def __init__(self, interval_s: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fresh_start.py"), str(SRC), "serve",
             repr(CAL_TARGET_HZ)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.start = reply(self.proc)
        self.interval_s = interval_s
        self.times: list[float] = []
        self.worst_err = 0.0
        self.last = -float("inf")

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return reply(self.proc)

    def step(self) -> None:
        res = self.ask("pass")
        self.times.append(res["calibrate_s"])
        self.worst_err = max(self.worst_err, res["cal_fs_rel_err"])
        self.last = time.perf_counter()

    def between(self) -> None:
        """Called between workload items: calibrate if one is due."""
        if time.perf_counter() - self.last >= self.interval_s:
            self.step()

    def finish(self) -> None:
        while len(self.times) < CAL_PASSES:
            self.step()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def setup_starts() -> list[dict]:
    """Import and load in fresh interpreters that exit right away."""
    runs = []
    for _ in range(SETUP_STARTS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "fresh_start.py"), str(SRC)],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=120, check=True)
        runs.append(json.loads(proc.stdout.splitlines()[0]))
    return runs


def machine_ref_ms() -> float:
    """Median time of a fixed numpy loop; explains drift, never normalises."""
    import numpy as np

    rng = np.random.default_rng(20240415)
    a = rng.standard_normal((2000, 7, 7)) + 1j * rng.standard_normal((2000, 7, 7))
    b = rng.standard_normal((2000, 7, 1)) + 0j
    x = np.linspace(0.0, 50.0, 200_000)
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(3):
            np.linalg.solve(a, b)
            np.exp(1j * x).sum()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def machine_info(ref_ms: float) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "machine.ref_ms": ref_ms,
    }


def cli_runs(work: pathlib.Path, out, tracer) -> dict[str, float]:
    """One traced in-process bawkit.cli.main run per file-producing command.

    They run on the bundled inputs in every traced run, so every layer's
    spans are measured whatever the workload.  simulate uses the Mason
    backend, the only one whose scalar kernel no workload's timed path
    calls.
    """
    from bawkit.cli import main
    from spans import patched

    data = SRC / "bawkit" / "data"
    stack = str(data / "nominal_stack.yaml")
    argvs = {
        "simulate": ["simulate", "--stack", stack, "--fmin", "3GHz",
                     "--fmax", "15GHz", "--points", "4001", "--backend", "mason"],
        "sweep": ["sweep", "--stack", stack, "--grid", "5", "--band", "1.5:34",
                  "--band-points", "2201", "--heatmaps"],
        "fit": ["fit", "--s2p", str(data / "r14c5_like.s2p"),
                "--band", "12.5:14"],
    }
    times = {}
    tracer.item = None
    with patched(tracer):
        for name, argv in argvs.items():
            t0 = time.perf_counter()
            code = main(argv + ["--out", str(work / f"cli_{name}")])
            times[f"cli.{name}_ms"] = 1e3 * (time.perf_counter() - t0)
            out.attempted += 1
            if code != 0:
                out.fail(1, f"bawkit {name} exited with {code}")
    return times


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "bawkit" / "__init__.py").is_file():
        print(f"error: no bawkit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bawkit
    import numpy as np

    if pathlib.Path(bawkit.__file__).resolve().parent != SRC / "bawkit":
        print(f"error: imported bawkit from {bawkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads as wl

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    calibrator = None
    try:
        out = wl.Outcome()
        ref_ms = machine_ref_ms()
        starts = setup_starts()
        calibrator = Calibrator(interval_s=args.seconds / CAL_PASSES)
        starts.append(calibrator.start)
        calibrator.step()

        rng = np.random.default_rng(args.seed)
        if args.workload == "design_map":
            work = wl.DesignMap(rng, WORK)
        elif args.workload == "spectrum_scan":
            work = wl.SpectrumScan(rng, WORK / "spectra")
        else:
            work = wl.FitBatch(rng, SRC / "bawkit" / "data" / "r14c5_like.s2p")

        if args.trace:
            counts = calibrator.ask("count")
            tracer = work.trace(out)
            layers = dict(out.layers)
            layers.update(cli_runs(WORK, out, tracer))
            layers.update(wl.span_metrics(tracer))
            layers["cli.import_s"] = statistics.median(s["import_s"] for s in starts)
            layers["materials.load_stack_ms"] = statistics.median(
                s["load_stack_ms"] for s in starts)
            layers["modal.calibrate.find_modes_calls"] = counts["find_modes_calls"]
            layers["modal.calibrate.admittance_calls"] = counts["admittance_calls"]
            layers["machine.ref_ms"] = ref_ms
            values, listed = layers, "per_layer"
        else:
            work.measure(args.seconds, out, calibrator.between)
            calibrator.finish()
            times = out.item_s or [0.0]      # every item failed: report zeros
            values = {
                "items_per_s": len(out.item_s) / out.busy_s if out.busy_s else 0.0,
                "item_p50_ms": 1e3 * percentile(times, 50),
                "item_p90_ms": 1e3 * percentile(times, 90),
                "ok_ratio": (out.attempted - out.failed - out.not_ok)
                / out.attempted,
                "setup_s": statistics.median(
                    s["import_s"] + 1e-3 * s["load_stack_ms"] for s in starts),
                "calibrate_s": statistics.fmean(calibrator.times),
            }
            listed = "end_to_end"
            out.info["item_samples"] = len(out.item_s)
            out.info["calibrate_all_s"] = calibrator.times
        if not calibrator.worst_err <= 1e-6:
            out.fail(1, f"calibration missed its target by "
                        f"{calibrator.worst_err:.3g}")
    finally:
        if calibrator is not None:
            calibrator.close()
        shutil.rmtree(WORK, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[listed]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec}
    missing = sorted(m["name"] for m in spec if m["name"] not in values)
    info = machine_info(ref_ms)
    info.update(out.info)
    info["workload"] = args.workload
    info["seed"] = args.seed
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if missing:
        print(f"not exercised by this workload, reported as 0: {', '.join(missing)}")
    for p in out.problems:
        print(f"check failed: {p}")
    print("info " + json.dumps(info, sort_keys=True))
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
