"""A fresh interpreter: import bawkit and load the nominal stack, timed.

Usage: python3 fresh_start.py <src dir> [serve <target fs in Hz>]

Prints one JSON line with the set-up timings.  With `serve` it then stays
up and answers one JSON line per command read from standard input:
  pass   calibrate the nominal stack to the target once, timed;
  count  calibrate under the span tracer and count the find_modes and
         admittance calls;
and exits at the end of its input.
"""

import json
import sys
import time

t_start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bawkit  # noqa: E402

t_import = time.perf_counter()
nominal = bawkit.nominal_stack()
t_load = time.perf_counter()
print(json.dumps({"import_s": t_import - t_start,
                  "load_stack_ms": 1e3 * (t_load - t_import)}), flush=True)


def calibration_pass(band, target) -> dict:
    t0 = time.perf_counter()
    stack, _ = bawkit.calibrate_piezo_stiffness(nominal, target, band)
    elapsed = time.perf_counter() - t0
    fs0 = bawkit.find_modes(stack, band, 1)[0].fs
    return {"calibrate_s": elapsed, "cal_fs_rel_err": abs(fs0 - target) / target}


def calibration_counts(band, target) -> dict:
    from spans import Tracer, patched

    tracer = Tracer()
    with patched(tracer):
        bawkit.calibrate_piezo_stiffness(nominal, target, band)
    summary = tracer.summary()
    return {
        "find_modes_calls": summary.get("modal.find_modes", {}).get("calls", 0),
        "admittance_calls": sum(
            rec["calls"] for name, rec in summary.items()
            if name.startswith(("acoustic1d.bvp.", "acoustic1d.mason."))),
    }


if len(sys.argv) > 2 and sys.argv[2] == "serve":
    from workloads import CAL_BAND

    band = bawkit.FrequencyGrid(*CAL_BAND)
    target = float(sys.argv[3])
    for line in sys.stdin:
        if line.strip() == "pass":
            reply = calibration_pass(band, target)
        elif line.strip() == "count":
            reply = calibration_counts(band, target)
        else:
            reply = {"error": f"unknown command {line.strip()!r}"}
        print(json.dumps(reply), flush=True)
