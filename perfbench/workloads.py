"""The three benchmark workloads.

Each workload has a fixed item set drawn from the seed.  The end-to-end
pass (tracing off) runs the whole set again and again until the next pass
would end after the run's seconds, at least MIN_PASSES times, and takes
each item's latency as the mean over its passes.  On a shared machine a
core switches between a fast and a slow state, about 1.8x apart, on
spells of a second to minutes.  A mean over the whole run moves in
proportion to the share of the run spent in each state; a median or a
minimum jumps from one state to the other when that share nears its
threshold, which made runs of the same code disagree by more than their
bound.  The traced run times the same set once untraced and once traced,
and its counters repeat exactly from run to run.  Output checks run
outside the timed regions; an item that raises or fails a check is a
failure.
"""

from __future__ import annotations

import hashlib
import pathlib
import statistics
import time

import numpy as np

import inputs
from spans import Tracer, cell_timer, find_modes_phases, patched

now = time.perf_counter

MIN_PASSES = 2


class Outcome:
    """What a workload hands back to run.py."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.not_ok = 0          # completed but not graded (masked cells)
        self.item_s: list[float] = []
        self.busy_s = 0.0        # denominator of items_per_s
        self.problems: list[str] = []
        self.layers: dict[str, float] = {}
        self.info: dict = {}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def _item_errors() -> tuple:
    from bawkit import PhysicsError

    # ConfigError, TouchstoneError and ConversionError are ValueErrors
    return (ValueError, PhysicsError, OSError)


def _digest(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _line_count(path: pathlib.Path) -> int:
    return path.read_bytes().count(b"\n")


def measure_passes(items: list, call, check, seconds: float, out: Outcome,
                   between, label: str) -> None:
    """Time every item once per pass; record each item's mean pass.

    The first pass's outputs are checked.  An item that raises counts once
    as failed and is not timed again.  between() runs after every item,
    outside its timing.
    """
    errors = _item_errors()
    samples: list[list[float]] = [[] for _ in items]
    failed: set[int] = set()
    start = now()
    pass_s: list[float] = []
    last = 0.0
    while len(pass_s) < MIN_PASSES or now() - start + last <= seconds:
        t_pass = now()
        for pos, item in enumerate(items):
            if pos in failed:
                continue
            t0 = now()
            try:
                result = call(item)
            except errors as exc:
                failed.add(pos)
                out.fail(1, f"{label} item {pos} raised {exc!r}")
                continue
            samples[pos].append(now() - t0)
            if not pass_s:
                check(pos, item, result, out)
            between()
        last = now() - t_pass
        pass_s.append(last)
    times = [statistics.fmean(ts) for pos, ts in enumerate(samples)
             if pos not in failed]
    out.attempted += len(items)
    out.item_s.extend(times)
    out.busy_s += sum(times)
    out.info["pass_s"] = pass_s


def paired_pass(items: list, call, check, out: Outcome, label: str,
                tracer: Tracer) -> tuple[list[float], list[float]]:
    """Run every item untraced and then traced, back to back.

    Returns the untraced and the traced time of each item; running the two
    side by side keeps drift of the machine out of their ratio.
    """
    errors = _item_errors()
    plain, traced = [], []
    for pos, item in enumerate(items):
        out.attempted += 1
        try:
            t0 = now()
            result = call(item, None)
            t_plain = now() - t0
            tracer.item = pos
            with patched(tracer):
                t0 = now()
                call(item, tracer)
                t_traced = now() - t0
        except errors as exc:
            out.fail(1, f"{label} item {pos} raised {exc!r}")
            continue
        plain.append(t_plain)
        traced.append(t_traced)
        check(pos, item, result, out)
    return plain, traced


def overhead_ratio(plain: list[float], traced: list[float]) -> float:
    """Median per-item slowdown of the traced pass over the plain one."""
    if not plain:
        return 0.0
    return statistics.median(t / p for p, t in zip(plain, traced)) - 1.0


def counters_match(tracer: Tracer, item, rerun: Tracer, out: Outcome,
                   what: str) -> None:
    """Determinism self-check: a repeated item makes identical counts."""
    first = tracer.counters_by_item().get(item)
    again = next(iter(rerun.counters_by_item().values()), None)
    if first != again:
        out.fail(1, f"{what}: counters differ on repeat: {first} vs {again}")


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics read off the spans of a traced run."""
    summ = tracer.summary()
    zero = {"calls": 0, "points": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    points = 0
    kernel_s = 0.0
    for backend in ("bvp", "mason"):
        vec = summ.get(f"acoustic1d.{backend}.vector", zero)
        sca = summ.get(f"acoustic1d.{backend}.scalar", zero)
        pre = f"acoustic1d.{backend}"
        out[f"{pre}.vector_calls"] = vec["calls"]
        out[f"{pre}.scalar_calls"] = sca["calls"]
        out[f"{pre}.points"] = vec["points"] + sca["points"]
        out[f"{pre}.vector_self_ms"] = 1e3 * vec["self_s"]
        out[f"{pre}.scalar_self_us_per_call"] = (
            1e6 * sca["self_s"] / sca["calls"] if sca["calls"] else 0.0)
        points += vec["points"] + sca["points"]
        kernel_s += vec["self_s"] + sca["self_s"]
    out["acoustic1d.kernel_points_per_s"] = points / kernel_s if kernel_s else 0.0
    out["acoustic1d.export_csv_self_ms"] = 1e3 * summ.get(
        "acoustic1d.export_csv", zero)["self_s"]
    for name in ("field_profile", "strain_energy"):
        out[f"acoustic1d.{name}.self_ms"] = 1e3 * summ.get(
            f"acoustic1d.{name}", zero)["self_s"]
    dc = summ.get("materials.derive_constants", zero)
    out["materials.derive_constants.calls"] = dc["calls"]
    out["materials.derive_constants.self_ms"] = 1e3 * dc["self_s"]
    fm = summ.get("modal.find_modes", zero)
    out["modal.find_modes.calls"] = fm["calls"]
    out["modal.find_modes.self_ms"] = 1e3 * fm["self_s"]
    ph = find_modes_phases(tracer)
    for phase in ("coarse", "refine", "energy"):
        out[f"modal.{phase}.self_ms"] = 1e3 * ph[f"{phase}_s"]
        out[f"modal.{phase}.share"] = (
            ph[f"{phase}_s"] / ph["total_s"] if ph["total_s"] else 0.0)
    out["modal.refine.calls_per_cell"] = (
        ph["refine_calls"] / ph["calls"] if ph["calls"] else 0.0)
    out["sweep.run_sweep_s"] = summ.get("sweep.run_sweep", zero)["total_s"]
    out["sweep.export_csv_ms"] = 1e3 * summ.get("sweep.export_csv", zero)["total_s"]
    out["sweep.heatmap_ms"] = 1e3 * summ.get("sweep.heatmap", zero)["total_s"]
    for name in ("parse", "s_to_y", "fit"):
        out[f"mbvd.{name}.self_ms"] = 1e3 * summ.get(f"mbvd.{name}", zero)["self_s"]
    return out


# -- design_map ---------------------------------------------------------------

CAL_BAND = (3e9, 15e9, 1201)
MAP_GRID_N = 11
MAP_BAND = (1.5e9, 34e9, 2201)
MAP_MODES = 3
HEATMAPS = ("fs_norm", "keff2_norm", "fom_norm")
MASON_CHECK_CELLS = 3


class DesignMap:
    """Calibrate the nominal stack, then map both electrode thicknesses.

    The item set is the 121 cells of an 11x11 grid, and one pass is one
    map: run_sweep, the sweep CSV and nine heatmaps.  A cell's latency is
    the mean of its find_modes calls over the passes; the map's own
    overhead and its output writing are added to items_per_s at their
    mean too.
    """

    cells = MAP_GRID_N * MAP_GRID_N

    def __init__(self, rng, work: pathlib.Path):
        from bawkit import (FrequencyGrid, calibrate_piezo_stiffness,
                            nominal_stack)
        from bawkit.sweep import SweepConfig

        self.work = work
        self.target = 4.9e9 * (1.0 + float(rng.uniform(-0.008, 0.008)))
        self.stack, _ = calibrate_piezo_stiffness(
            nominal_stack(), self.target, FrequencyGrid(*CAL_BAND))
        ip = self.stack.piezo_index
        self.cfg = SweepConfig(
            base=self.stack, top_layer_index=ip + 1,
            bottom_layer_index=ip - 1, band=FrequencyGrid(*MAP_BAND),
            ratio_min=0.2, ratio_max=2.0, grid_n=MAP_GRID_N,
            n_modes=MAP_MODES)
        self.check_draw = int(rng.integers(1 << 30))
        self.digest = None

    def cell_stack(self, j: int, i: int):
        axis = self.cfg.thickness_axis()
        return (self.cfg.base
                .with_layer_thickness(self.cfg.bottom_layer_index, float(axis[j]))
                .with_layer_thickness(self.cfg.top_layer_index, float(axis[i])))

    def write_outputs(self, result, out_dir: pathlib.Path,
                      tracer: Tracer | None = None) -> None:
        from bawkit.sweep import export_sweep_csv, render_heatmap

        out_dir.mkdir(parents=True, exist_ok=True)
        if tracer is None:
            export_sweep_csv(result, out_dir / "sweep.csv")
            for metric in HEATMAPS:
                for mode in range(MAP_MODES):
                    render_heatmap(result, metric, mode,
                                   out_dir / f"heatmap_{metric}_mode{mode}.svg")
            return
        tracer.item = "outputs"
        with tracer.span("sweep.export_csv"):
            export_sweep_csv(result, out_dir / "sweep.csv")
        for metric in HEATMAPS:
            for mode in range(MAP_MODES):
                with tracer.span("sweep.heatmap"):
                    render_heatmap(result, metric, mode,
                                   out_dir / f"heatmap_{metric}_mode{mode}.svg")

    def map_once(self, out: Outcome, out_dir: pathlib.Path, jobs: int = 1,
                 cell_s: list | None = None, tracer: Tracer | None = None):
        """One map: sweep, CSV and nine heatmaps.

        Returns (result, map seconds, run_sweep seconds); result is None
        when the sweep raised, and every cell then counts as failed.
        """
        from bawkit.sweep import BandCoverageError, run_sweep

        t0 = now()
        try:
            if tracer is not None:
                with patched(tracer), tracer.span("sweep.run_sweep"):
                    result = run_sweep(self.cfg, jobs=jobs)
            elif cell_s is not None:
                with cell_timer(cell_s):
                    result = run_sweep(self.cfg, jobs=jobs)
            else:
                result = run_sweep(self.cfg, jobs=jobs)
            t_sweep = now() - t0
            self.write_outputs(result, out_dir, tracer)
        except (BandCoverageError,) + _item_errors() as exc:
            out.fail(self.cells, f"design_map: sweep raised {exc!r}")
            return None, now() - t0, now() - t0
        return result, now() - t0, t_sweep

    def check(self, result, out_dir: pathlib.Path, out: Outcome) -> None:
        """Grade the first map in full; later maps must write the same CSV."""
        csv_path = out_dir / "sweep.csv"
        digest = _digest(csv_path)
        if self.digest is not None:
            if digest != self.digest:
                out.fail(self.cells, "design_map: repeated map wrote a "
                                     "different sweep CSV")
            return
        self.digest = digest
        if _line_count(csv_path) != 1 + self.cells * MAP_MODES:
            out.fail(self.cells, "design_map: sweep CSV row count is wrong")
            return
        for metric in HEATMAPS:
            for mode in range(MAP_MODES):
                svg = out_dir / f"heatmap_{metric}_mode{mode}.svg"
                if not svg.read_bytes().startswith(b"<svg"):
                    out.fail(self.cells, f"design_map: {svg.name} is not SVG")
                    return
        self.grade(result, out)
        self.cross_check(result, out)

    def grade(self, result, out: Outcome) -> None:
        """Ascending fs, 0 < keff2 < 1, 0 < eta <= 1, Qm inside the q range."""
        q = [lay.material.q_mech for lay in self.stack.layers
             if not lay.material.lossless]
        q_lo, q_hi = min(q) * (1 - 1e-12), max(q) * (1 + 1e-12)
        ok = ~result.mask
        fs, k2, eta, qm = (a[ok] for a in (result.fs, result.keff2,
                                           result.eta, result.qm))
        good = (np.all(np.diff(fs, axis=1) > 0, axis=1)
                & np.all((k2 > 0) & (k2 < 1), axis=1)
                & np.all((eta > 0) & (eta <= 1), axis=1)
                & np.all((qm >= q_lo) & (qm <= q_hi), axis=1))
        bad = int((~good).sum())
        if bad:
            out.fail(bad, f"design_map: {bad} cells fail grading")

    def cross_check(self, result, out: Outcome) -> None:
        """Mason agrees with BVP on a few seeded cells; calibration holds."""
        from bawkit import FrequencyGrid, find_modes

        band = FrequencyGrid(*MAP_BAND)
        ok_cells = np.argwhere(~result.mask)
        pick = np.random.default_rng(self.check_draw).choice(
            len(ok_cells), size=min(MASON_CHECK_CELLS, len(ok_cells)),
            replace=False)
        for k in pick:
            j, i = (int(v) for v in ok_cells[k])
            stack = self.cell_stack(j, i)
            mb = find_modes(stack, band, MAP_MODES, backend="bvp")
            mm = find_modes(stack, band, MAP_MODES, backend="mason")
            same = len(mb) == len(mm) == MAP_MODES and all(
                abs(a.fs - b.fs) <= 1e-6 * b.fs and abs(a.fp - b.fp) <= 1e-6 * b.fp
                and a.fs == result.fs[j, i, a.mode_index]
                for a, b in zip(mb, mm))
            if not same:
                out.fail(1, f"design_map: cell ({j},{i}) BVP and Mason modes "
                            f"disagree")
        fs0 = find_modes(self.stack, FrequencyGrid(*CAL_BAND), 1)[0].fs
        if abs(fs0 - self.target) > 1e-6 * self.target:
            out.fail(self.cells, f"design_map: calibrated fs {fs0!r} misses "
                                 f"target {self.target!r}")

    def measure(self, seconds: float, out: Outcome, between) -> None:
        out_dir = self.work / "map"
        passes, extra = [], []
        start = now()
        last = 0.0
        while len(passes) < MIN_PASSES or now() - start + last <= seconds:
            cell_s: list[float] = []
            result, last, _ = self.map_once(out, out_dir, cell_s=cell_s)
            if result is None:
                break
            self.check(result, out_dir, out)
            passes.append(cell_s)
            # run_sweep's own work beyond the cells, plus writing outputs
            extra.append(last - sum(cell_s))
            between()
        out.attempted += self.cells
        out.info["pass_s"] = [sum(p) + e for p, e in zip(passes, extra)]
        if len(passes) < MIN_PASSES:
            return
        cells = [statistics.fmean(ts) for ts in zip(*passes)]
        out.not_ok += int(result.mask.sum())
        out.item_s.extend(cells)
        out.busy_s += sum(cells) + statistics.fmean(extra)

    def trace(self, out: Outcome) -> Tracer:
        from bawkit import FrequencyGrid
        from bawkit import sweep as sweep_mod
        from bawkit.modal import ModeSearchError

        tracer = Tracer()
        plain_dir = self.work / "map_plain"
        plain_cells: list[float] = []
        result, _, t_sweep1 = self.map_once(out, plain_dir, cell_s=plain_cells)
        out.attempted += self.cells
        if result is None:
            return tracer
        self.check(result, plain_dir, out)

        traced_dir = self.work / "map_traced"
        result_t, _, _ = self.map_once(out, traced_dir, tracer=tracer)
        if result_t is None or _digest(traced_dir / "sweep.csv") != self.digest:
            out.fail(self.cells, "design_map: traced map wrote a different CSV")
            return tracer
        traced_cells = [s[2] - s[1] for s in tracer.spans
                        if s[0] == "modal.find_modes"]

        jobs2_dir = self.work / "map_jobs2"
        result_2, _, t_jobs2 = self.map_once(out, jobs2_dir, jobs=2)
        if result_2 is None or _digest(jobs2_dir / "sweep.csv") != self.digest:
            out.fail(self.cells, "design_map: jobs=2 CSV differs from jobs=1")
            return tracer

        # repeat a few cells under a fresh tracer: counts must not move
        band = FrequencyGrid(*MAP_BAND)
        rng = np.random.default_rng(self.check_draw + 1)
        for cell in rng.choice(self.cells, size=3, replace=False):
            j, i = divmod(int(cell), MAP_GRID_N)
            rerun = Tracer()
            with patched(rerun):
                try:
                    sweep_mod.find_modes(self.cell_stack(j, i), band,
                                         max_modes=MAP_MODES)
                except (ModeSearchError,) + _item_errors():
                    pass        # a masked cell raises; its counts still compare
            counters_match(tracer, int(cell), rerun, out,
                           f"design_map cell {int(cell)}")

        out.layers["sweep.cells"] = self.cells
        out.layers["sweep.masked_cells"] = int(result.mask.sum())
        out.layers["sweep.jobs2_speedup"] = t_sweep1 / t_jobs2
        out.layers["trace.overhead_ratio"] = overhead_ratio(plain_cells,
                                                            traced_cells)
        return tracer


# -- spectrum_scan ------------------------------------------------------------

SPECTRUM_RE_TOL = 1e-12      # Re(Y) >= -tol * |Y|
SPECTRUM_DEV_TOL = 1e-8
SPECTRUM_BLOCKS = 4


class SpectrumScan:
    """Dense BVP and Mason spectra of random stacks, both written as CSV.

    The item set is four balanced blocks of 25 stacks.
    """

    def __init__(self, rng, work: pathlib.Path):
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        self.set = [spec for _ in range(SPECTRUM_BLOCKS)
                    for spec in inputs.spectrum_block(rng)]
        self.max_dev = 0.0

    def item(self, spec, tracer: Tracer | None = None):
        from bawkit import FrequencyGrid, export_spectrum_csv, spectrum

        stack, n = spec
        grid = FrequencyGrid(*inputs.SPECTRUM_BAND_HZ, n)
        paths = (self.work / "spectrum_bvp.csv", self.work / "spectrum_mason.csv")
        if tracer is None:
            cb = spectrum(stack, grid, backend="bvp")
            cm = spectrum(stack, grid, backend="mason")
            export_spectrum_csv(cb, paths[0])
            export_spectrum_csv(cm, paths[1])
            return cb, cm
        with tracer.span("acoustic1d.bvp.vector", n):
            cb = spectrum(stack, grid, backend="bvp")
        with tracer.span("acoustic1d.mason.vector", n):
            cm = spectrum(stack, grid, backend="mason")
        with tracer.span("acoustic1d.export_csv"):
            export_spectrum_csv(cb, paths[0])
        with tracer.span("acoustic1d.export_csv"):
            export_spectrum_csv(cm, paths[1])
        return cb, cm

    def check(self, idx, spec, curves, out: Outcome) -> None:
        stack, n = spec
        yb, ym = curves[0].y, curves[1].y
        dev = float(np.max(np.abs(yb - ym) / np.abs(ym)))
        self.max_dev = max(self.max_dev, dev)
        problems = []
        if not dev <= SPECTRUM_DEV_TOL:
            problems.append(f"BVP/Mason deviation {dev:.3g}")
        for label, y in (("bvp", yb), ("mason", ym)):
            if not np.all(y.real >= -SPECTRUM_RE_TOL * np.abs(y)):
                problems.append(f"{label} Re(Y) < 0")
        for name in ("spectrum_bvp.csv", "spectrum_mason.csv"):
            if _line_count(self.work / name) != n + 1:
                problems.append(f"{name} row count")
        if problems:
            out.fail(1, f"spectrum_scan item {idx} ({len(stack.layers)} "
                        f"layers, {n} points): {'; '.join(problems)}")

    def warm_up(self) -> None:
        stack, _ = self.set[0]
        self.item((stack, 200))

    def measure(self, seconds: float, out: Outcome, between) -> None:
        self.warm_up()
        measure_passes(self.set, self.item, self.check, seconds, out, between,
                       "spectrum_scan")

    def trace(self, out: Outcome) -> Tracer:
        self.warm_up()
        tracer = Tracer()
        plain, traced = paired_pass(self.set, self.item, self.check, out,
                                    "spectrum_scan", tracer)
        rerun = Tracer()
        with patched(rerun):
            self.item(self.set[0], rerun)
        counters_match(tracer, 0, rerun, out, "spectrum_scan item 0")
        out.layers["acoustic1d.max_backend_rel_dev"] = self.max_dev
        out.layers["trace.overhead_ratio"] = overhead_ratio(plain, traced)
        return tracer


# -- fit_batch ----------------------------------------------------------------

FIT_FS_TOL = 1e-3
FIT_BLOCKS = 6
FIXTURE_BAND_HZ = (12.5e9, 14e9)


class FitBatch:
    """Touchstone parse, S->Y and mBVD fit of synthetic devices.

    The item set is six balanced blocks, each of the 18 format, unit and
    topology combinations plus the bundled fixture.
    """

    def __init__(self, rng, fixture: pathlib.Path):
        self.fixture = {
            "name": fixture.name,
            "text": fixture.read_text(encoding="utf-8"),
            "topology": "series",
            "band": FIXTURE_BAND_HZ,
            "fs_true": 13.3e9,
        }
        self.set = []
        for _ in range(FIT_BLOCKS):
            devices = inputs.fit_block(rng)
            devices.insert(int(rng.integers(len(devices) + 1)), self.fixture)
            self.set.extend(devices)
        self.nfev: dict = {}
        self.converged = 0

    def item(self, dev: dict, tracer: Tracer | None = None):
        from bawkit.mbvd import fit_mbvd, parse_touchstone, transmission_admittance

        if tracer is None:
            data = parse_touchstone(dev["text"])
            curve = transmission_admittance(data, topology=dev["topology"])
            return fit_mbvd(curve, band=dev["band"])
        with tracer.span("mbvd.parse"):
            data = parse_touchstone(dev["text"])
        with tracer.span("mbvd.s_to_y"):
            curve = transmission_admittance(data, topology=dev["topology"])
        with tracer.span("mbvd.fit"):
            rep = fit_mbvd(curve, band=dev["band"])
        self.nfev[tracer.item] = rep.n_iterations
        self.converged += int(rep.converged)
        return rep

    def check(self, idx, dev: dict, rep, out: Outcome) -> None:
        problems = []
        if not rep.converged:
            problems.append("fit did not converge")
        err = abs(rep.fs - dev["fs_true"]) / dev["fs_true"]
        if not err <= FIT_FS_TOL:
            problems.append(f"fs off by {err:.3g}")
        if dev is self.fixture:
            if not abs(rep.qs - 210.0) <= 0.02 * 210.0:
                problems.append(f"fixture qs {rep.qs:.4g}")
            if not abs(100.0 * rep.keff2_mbvd - 5.2) <= 0.2:
                problems.append(f"fixture keff2 {100 * rep.keff2_mbvd:.4g}%")
        if problems:
            out.fail(1, f"fit_batch item {idx} ({dev['name']}): "
                        f"{'; '.join(problems)}")

    def measure(self, seconds: float, out: Outcome, between) -> None:
        self.item(self.fixture)
        measure_passes(self.set, self.item, self.check, seconds, out, between,
                       "fit_batch")

    def trace(self, out: Outcome) -> Tracer:
        self.item(self.fixture)
        tracer = Tracer()
        plain, traced = paired_pass(self.set, self.item, self.check, out,
                                    "fit_batch", tracer)
        fits = len(self.nfev)
        nfev = sum(self.nfev.values())
        converged = self.converged
        rerun = Tracer()
        rerun.item = "repeat"
        self.item(self.set[0], rerun)
        counters_match(tracer, 0, rerun, out, "fit_batch item 0")
        if self.nfev["repeat"] != self.nfev[0]:
            out.fail(1, "fit_batch item 0: nfev differs on repeat")
        out.layers["mbvd.fit.nfev"] = nfev
        out.layers["mbvd.fit.converged_ratio"] = converged / fits
        out.layers["trace.overhead_ratio"] = overhead_ratio(plain, traced)
        return tracer
