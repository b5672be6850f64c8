"""Command-line front end: simulate, sweep, fit, estimate.

Every file-producing subcommand also writes a manifest.txt recording the
resolved configuration, input digests, and output names, one line per key;
the manifest's own digest excludes the timestamp line, so re-running with
identical inputs reproduces it bit for bit.  A run into a used directory
first removes the outputs that the old manifest lists and that it will not
write again.
Exit codes: 0 success, 2 configuration/usage/parse errors, 3 physics
errors, 4 insufficient band coverage in a sweep, 5 fit non-convergence
(the report is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import pathlib
import re
import stat
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from ._csvfloat import write_file
from .acoustic1d import (AdmittanceCurve, FrequencyGrid, PhysicsError,
                         export_spectrum_csv, spectrum)
from .materials import ConfigError, Stack, load_stack
from .mbvd import (FREQUENCY_UNITS, TOPOLOGIES, ConversionError,
                   TouchstoneError, _shift_exponent, export_fit_curve_csv,
                   fit_mbvd, format_fit_report, parse_touchstone,
                   transmission_admittance)
from .modal import (ModeSearchError, _coupled_roots,
                    calibrate_piezo_stiffness, estimate_frequency,
                    estimate_thickness, export_modes_csv, find_modes)
from .sweep import (HEATMAP_METRICS, BandCoverageError, SweepConfig,
                    export_sweep_csv, render_heatmap, run_sweep)


def parse_frequency(text: str, default_factor: float = 1.0) -> float:
    """Parse a finite float literal with an optional Hz/kHz/MHz/GHz suffix
    (3e9, 4.9GHz, 2.5e-3 GHz); a bare number is scaled by default_factor,
    a power of ten.  As in parse_touchstone, the unit shifts the literal's
    decimal exponent, so float() rounds its exact value in Hz once."""
    # the mantissa is any run of non-letters (float() checks it), the
    # exponent an optional signed integer
    m = re.fullmatch(
        r"\s*([^a-zA-Z\s]+)([eE][+-]?\d+)?\s*([a-zA-Z]*)\s*", text)
    if not m:
        raise ConfigError(f"cannot parse frequency {text!r}")
    suffix = m[3].upper()
    if suffix and suffix not in FREQUENCY_UNITS:
        raise ConfigError(f"unknown frequency unit {m[3]!r} "
                          "(expected Hz, kHz, MHz, or GHz)")
    exp = FREQUENCY_UNITS[suffix] if suffix else \
        round(math.log10(default_factor))
    try:
        hz = _shift_exponent(m[1] + (m[2] or "e0"), exp)
    except (OverflowError, ValueError):
        raise ConfigError(f"cannot parse frequency {text!r}")
    if not math.isfinite(hz):
        raise ConfigError(f"frequency {text!r} is not finite")
    return hz


def _parse_pair(text: str, what: str) -> tuple[str, str]:
    lo, sep, hi = text.partition(":")
    if not sep or not lo or not hi:
        raise ConfigError(f"{what} must look like <lo>:<hi>, got {text!r}")
    return lo, hi


def parse_band(text: str) -> tuple[float, float]:
    # bare numbers in fmin:fmax read as GHz, matching --frequency
    lo_s, hi_s = _parse_pair(text, "--band")
    lo = parse_frequency(lo_s, default_factor=1e9)
    hi = parse_frequency(hi_s, default_factor=1e9)
    if not lo < hi:
        raise ConfigError(f"band must have fmin < fmax, got {text!r}")
    return lo, hi


def parse_ratio_range(text: str) -> tuple[float, float]:
    lo_s, hi_s = _parse_pair(text, "--range")
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise ConfigError(f"--range must be numeric, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--range bounds must be finite, got {text!r}")
    if not lo < hi:
        raise ConfigError(f"--range must have lo < hi, got {text!r}")
    return lo, hi


def _read_input(path: pathlib.Path) -> tuple[str, str]:
    """The text of an input file and the sha256 of its bytes, from one
    read.  The text is the bytes decoded as UTF-8, a leading byte-order
    mark dropped; bytes that do not decode raise ConfigError."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                          f"offset {exc.start}") from None
    return text.removeprefix("\ufeff"), hashlib.sha256(data).hexdigest()


def manifest_lines(subcommand: str, config: dict,
                   inputs: dict[str, tuple[pathlib.Path, str]],
                   outputs: list[str], extras: dict) -> list[str]:
    """The lines of manifest.txt but its timestamp and digest, one per key.

    inputs maps each name to (path, sha256).  A value holding a line break
    (any that str.splitlines splits at) raises ConfigError naming it: it
    could forge a line, such as an output: line whose file a later run
    into the same directory removes.
    """
    items = [("subcommand", subcommand), ("version", __version__)]
    items += [(f"config.{key}", config[key]) for key in sorted(config)]
    for name in sorted(inputs):
        p, digest = inputs[name]
        items += [(f"input.{name}.path", p), (f"input.{name}.sha256", digest)]
    items += [("output", name) for name in sorted(outputs)]
    items += [(key, extras[key]) for key in sorted(extras)]
    lines = [f"{key}: {value}" for key, value in items]
    for (key, value), line in zip(items, lines):
        if line.splitlines() != [line]:
            raise ConfigError(f"{key} {str(value)!r} holds a line break; "
                              "the manifest keeps each value on one line")
    return lines


def write_manifest(out_dir: pathlib.Path, lines: list[str]) -> pathlib.Path:
    """Emit manifest.txt: lines (manifest_lines), the timestamp, and a
    digest of every line but the timestamp.  A path that is not UTF-8 is
    written as the bytes the file system holds (surrogateescape)."""
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode(
        errors="surrogateescape")).hexdigest()
    lines = [*lines, f"timestamp: {datetime.now(timezone.utc).isoformat()}",
             f"manifest_sha256: {digest}"]
    path = out_dir / "manifest.txt"
    write_file(path, ("\n".join(lines) + "\n").encode(
        errors="surrogateescape"))
    return path


def _ensure_out(args, outputs: list[str]) -> pathlib.Path:
    """Create --out and remove from it each file that its old manifest.txt
    lists as an output and that is not in outputs, the names this run
    writes, so that no earlier run's output survives beside the new
    manifest.

    Only a regular file under a plain name is removed: not a name with a
    path separator, not '.', '..' or the manifest itself.  Nothing else in
    the directory is touched.
    """
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        old = (out / "manifest.txt").read_bytes().decode(
            errors="surrogateescape")
    except OSError:
        return out
    for line in old.splitlines():
        if not line.startswith("output: "):
            continue
        name = line[len("output: "):]
        if (name in outputs or name in ("", ".", "..", "manifest.txt")
                or pathlib.Path(name).name != name):
            continue
        try:
            if stat.S_ISREG((out / name).lstat().st_mode):
                (out / name).unlink()
        except (OSError, ValueError):
            continue
    return out


def _calibrate(stack: Stack, band: FrequencyGrid, args, config: dict,
               extras: dict) -> Stack:
    """Apply --calibrate-fs: scale the piezo c33E so mode 0's fs over the
    run's own band lands on the target, and record target and scale."""
    if args.calibrate_fs is None:
        return stack
    target = parse_frequency(args.calibrate_fs, default_factor=1e9)
    stack, scale = calibrate_piezo_stiffness(stack, target, band)
    config["calibrate_fs_hz"] = f"{target:.17g}"
    extras["calibration_scale"] = f"{scale:.17g}"
    return stack


def cmd_simulate(args) -> int:
    stack_path = pathlib.Path(args.stack)
    text, digest = _read_input(stack_path)
    stack = load_stack(text)
    fmin = parse_frequency(args.fmin)
    fmax = parse_frequency(args.fmax)
    grid = FrequencyGrid(fmin, fmax, args.points)
    config = {"stack": args.stack, "fmin_hz": f"{fmin:.17g}",
              "fmax_hz": f"{fmax:.17g}", "points": args.points,
              "backend": args.backend, "modes": args.modes}
    extras = {}
    stack = _calibrate(stack, grid, args, config, extras)

    # every result is in hand before the first file is written
    backends = ("bvp", "mason") if args.backend == "both" else (args.backend,)
    curves = {b: spectrum(stack, grid, backend=b) for b in backends}
    modes = find_modes(stack, grid, max_modes=args.modes,
                       backend=backends[0])
    if args.backend == "both":
        dev = np.max(np.abs(curves["bvp"].y - curves["mason"].y)
                     / np.abs(curves["mason"].y))
        extras["max_backend_rel_deviation"] = f"{dev:.17g}"

    outputs = [f"spectrum_{b}.csv" for b in curves] + ["modes.csv"]
    lines = manifest_lines("simulate", config,
                           {"stack": (stack_path, digest)}, outputs, extras)
    out = _ensure_out(args, outputs)
    for b, curve in curves.items():
        export_spectrum_csv(curve, out / f"spectrum_{b}.csv")
    export_modes_csv(modes, out / "modes.csv")
    write_manifest(out, lines)
    return 0


def cmd_sweep(args) -> int:
    stack_path = pathlib.Path(args.stack)
    text, digest = _read_input(stack_path)
    stack = load_stack(text)
    lo, hi = parse_ratio_range(args.range)
    fmin, fmax = parse_band(args.band)
    ip = stack.piezo_index
    if ip == 0 or ip == len(stack.layers) - 1:
        raise ConfigError("sweep varies the layers adjacent to the piezo; "
                          "the stack needs one on each side")
    cfg = SweepConfig(base=stack,
                      top_layer_index=ip + 1, bottom_layer_index=ip - 1,
                      band=FrequencyGrid(fmin, fmax, args.band_points),
                      ratio_min=lo, ratio_max=hi,
                      grid_n=args.grid, n_modes=args.modes)
    thick = float(cfg.thickness_axis()[-1])
    try:
        _coupled_roots(
            stack.with_layer_thickness(cfg.bottom_layer_index, thick)
            .with_layer_thickness(cfg.top_layer_index, thick),
            fmin, fmax, cfg.n_modes)
    except (ConfigError, ModeSearchError) as exc:
        raise ConfigError(f"--range {args.range}: at the thickest cell, "
                          f"{exc}") from None
    config = {"stack": args.stack, "grid": args.grid, "range": args.range,
              "modes": args.modes, "band": args.band,
              "band_points": args.band_points, "jobs": args.jobs,
              "heatmaps": args.heatmaps}
    extras = {}
    cfg = dataclasses.replace(
        cfg, base=_calibrate(stack, cfg.band, args, config, extras))
    result = run_sweep(cfg, jobs=args.jobs)
    heatmaps = {f"heatmap_{metric}_mode{mode}.svg": (metric, mode)
                for metric in HEATMAP_METRICS
                for mode in range(cfg.n_modes)} if args.heatmaps else {}
    outputs = ["sweep.csv", *heatmaps]
    config["masked_cells"] = int(result.mask.sum())
    for mode in range(cfg.n_modes):
        # masked cells hold NaN, so the best is over the cells that solved
        j, i = np.unravel_index(np.nanargmax(result.fom[:, :, mode]),
                                result.mask.shape)
        key = f"best_fom.mode{mode}"
        extras[key] = f"{result.fom[j, i, mode]:.17g}"
        extras[f"{key}.t_bot_m"] = f"{result.bottom_thicknesses[j]:.17g}"
        extras[f"{key}.t_top_m"] = f"{result.top_thicknesses[i]:.17g}"
    lines = manifest_lines("sweep", config, {"stack": (stack_path, digest)},
                           outputs, extras)
    out = _ensure_out(args, outputs)
    export_sweep_csv(result, out / "sweep.csv")
    for name, (metric, mode) in heatmaps.items():
        render_heatmap(result, metric, mode, out / name)
    write_manifest(out, lines)
    return 0


def cmd_fit(args) -> int:
    s2p_path = pathlib.Path(args.s2p)
    text, digest = _read_input(s2p_path)
    data = parse_touchstone(text)
    lo, hi = parse_band(args.band)
    curve = transmission_admittance(data, topology=args.topology)
    keep = (curve.frequencies >= lo) & (curve.frequencies <= hi)
    fitted = AdmittanceCurve(frequencies=curve.frequencies[keep],
                             y=curve.y[keep])
    rep = fit_mbvd(fitted)
    outputs = ["fit_report.txt", "fit_curve.csv"]
    config = {"s2p": args.s2p, "band": args.band, "topology": args.topology}
    extras = {"converged": "true" if rep.converged else "false",
              "residual": f"{rep.residual:.17g}"}
    lines = manifest_lines("fit", config, {"s2p": (s2p_path, digest)},
                           outputs, extras)
    out = _ensure_out(args, outputs)
    write_file(out / "fit_report.txt", format_fit_report(rep).encode())
    export_fit_curve_csv(fitted, rep, out / "fit_curve.csv")
    write_manifest(out, lines)
    return 0 if rep.converged else 5


def cmd_estimate(args) -> int:
    if args.thickness is not None:
        f = estimate_frequency(args.mode_order, args.velocity,
                               args.thickness * 1e-9)
        print(f"{f / 1e9:.10g} GHz")
    else:
        f = parse_frequency(args.frequency, default_factor=1e9)
        t = estimate_thickness(args.mode_order, args.velocity, f)
        print(f"{t / 1e-9:.10g} nm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bawkit",
        description="Thickness-mode resonator toolkit: spectra, "
                    "electrode-thickness sweeps, mBVD fitting.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    freq_help = "accepts Hz/kHz/MHz/GHz suffixes; bare numbers are Hz"
    calibrate_help = ("first scale the piezo c33E so mode 0's fs lands on "
                      "this frequency; the calibrated mode 0 must lie in "
                      "the run's band (bare numbers are GHz)")

    p = sub.add_parser("simulate",
                       help="admittance spectrum and mode table for a stack")
    p.add_argument("--stack", required=True, help="stack YAML file")
    p.add_argument("--fmin", required=True, help=f"band start ({freq_help})")
    p.add_argument("--fmax", required=True, help=f"band end ({freq_help})")
    p.add_argument("--points", required=True, type=int,
                   help="frequency samples (>= 2)")
    p.add_argument("--backend", choices=("bvp", "mason", "both"),
                   default="both")
    p.add_argument("--modes", type=int, default=3,
                   help="modes to tabulate (default 3)")
    p.add_argument("--calibrate-fs", help=calibrate_help)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep",
                       help="two-axis electrode thickness sweep with "
                            "CSV/heatmap outputs (varies the layers "
                            "adjacent to the piezo)")
    p.add_argument("--stack", required=True, help="stack YAML file")
    p.add_argument("--grid", type=int, default=25,
                   help="grid points per axis (default 25)")
    p.add_argument("--range", default="0.2:2.0",
                   help="thickness range as multiples of t_piezo "
                        "(default 0.2:2.0)")
    p.add_argument("--modes", type=int, default=3,
                   help="modes per cell (default 3)")
    p.add_argument("--band", required=True,
                   help=f"scan band <fmin>:<fmax> ({freq_help})")
    p.add_argument("--band-points", type=int, default=1601,
                   help="band samples (default 1601); recorded in the "
                        "manifest, but modes are found from the band's "
                        "limits alone")
    p.add_argument("--heatmaps", action="store_true",
                   help="also render one SVG per metric and mode")
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent cell workers (default 1)")
    p.add_argument("--calibrate-fs", help=calibrate_help)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="mBVD fit of a two-port Touchstone file")
    p.add_argument("--s2p", required=True, help="Touchstone v1 .s2p file")
    p.add_argument("--band", required=True,
                   help=f"fit band <fmin>:<fmax> ({freq_help})")
    p.add_argument("--topology", choices=TOPOLOGIES, default="series",
                   help="device embedding: series uses -Y12, shunt Y11")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("estimate",
                       help="thickness-mode frequency/thickness estimator "
                            "f = n*v/(2t)")
    p.add_argument("--mode-order", required=True, type=int,
                   help="harmonic order n >= 1")
    p.add_argument("--velocity", required=True, type=float,
                   help="longitudinal velocity in m/s")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--thickness", type=float,
                        help="thickness in nm (prints frequency)")
    target.add_argument("--frequency",
                        help="frequency, GHz default unit (prints thickness)")
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except (ConfigError, TouchstoneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PhysicsError, ModeSearchError, ConversionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BandCoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
