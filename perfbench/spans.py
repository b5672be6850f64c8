"""In-memory span tracing at bawkit's module boundaries.

A span records (name, start, end, parent, item, points).  The benchmark
opens spans around its own calls into the library, and ``patched`` wraps
the functions one bawkit module calls in another (modal calling
acoustic1d, acoustic1d calling materials, sweep calling modal, cli calling
the rest), restoring the originals on exit.  Nothing is written until the
run ends.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter


class Tracer:
    """Collects spans for one traced pass; ``item`` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.item = None

    def begin(self, name: str, points: int = 0) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _now(), 0.0, parent, self.item, points])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._open.pop()

    @contextmanager
    def span(self, name: str, points: int = 0):
        idx = self.begin(name, points)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def wrap_kernel(self, name: str, func):
        """Admittance kernel: the span name ends in .scalar or .vector."""
        def traced(stack, f):
            size = int(np.size(f))
            kind = ".vector" if np.ndim(f) else ".scalar"
            idx = self.begin(name + kind, size)
            try:
                return func(stack, f)
            finally:
                self.end(idx)
        return traced

    def wrap_spectrum(self, name: str, func):
        """spectrum(): one vector kernel call of the chosen backend."""
        def traced(stack, grid, backend="bvp"):
            idx = self.begin(f"{name}.{backend}.vector", grid.n_points)
            try:
                return func(stack, grid, backend=backend)
            finally:
                self.end(idx)
        return traced

    def wrap_item(self, name: str, func):
        """Each call starts a new item (one sweep cell per find_modes)."""
        def traced(*args, **kwargs):
            self.item = 0 if self.item is None else self.item + 1
            idx = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, points, total and self seconds."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "points": 0, "total_s": 0.0, "self_s": 0.0})
        for s, self_s in zip(self.spans, self.self_times()):
            rec = out[s[0]]
            rec["calls"] += 1
            rec["points"] += s[5]
            rec["total_s"] += s[2] - s[1]
            rec["self_s"] += self_s
        return dict(out)

    def counters_by_item(self) -> dict:
        """Exact per-item counts: kernel calls and points per span name."""
        out: dict = defaultdict(dict)
        for name, _, _, _, item, points in self.spans:
            rec = out[item].setdefault(name, [0, 0])
            rec[0] += 1
            rec[1] += points
        return dict(out)


@contextmanager
def patched(tracer: Tracer):
    """Route bawkit's cross-module calls through the tracer.

    Only references that one library module holds to another module's
    public function are replaced; a reference a later version no longer
    holds is skipped, and the matching metric then reads zero.
    """
    from bawkit import acoustic1d, cli, modal, sweep

    plan = [
        (acoustic1d, "derive_constants", tracer.wrap, "materials.derive_constants"),
        (sweep, "derive_constants", tracer.wrap, "materials.derive_constants"),
        (modal, "admittance_bvp", tracer.wrap_kernel, "acoustic1d.bvp"),
        (modal, "admittance_mason", tracer.wrap_kernel, "acoustic1d.mason"),
        (modal, "field_profile", tracer.wrap, "acoustic1d.field_profile"),
        (modal, "strain_energy", tracer.wrap, "acoustic1d.strain_energy"),
        (modal, "find_modes", tracer.wrap, "modal.find_modes"),
        (sweep, "find_modes", tracer.wrap_item, "modal.find_modes"),
        (cli, "spectrum", tracer.wrap_spectrum, "acoustic1d"),
        (cli, "export_spectrum_csv", tracer.wrap, "acoustic1d.export_csv"),
        (cli, "find_modes", tracer.wrap, "modal.find_modes"),
        (cli, "run_sweep", tracer.wrap, "sweep.run_sweep"),
        (cli, "export_sweep_csv", tracer.wrap, "sweep.export_csv"),
        (cli, "render_heatmap", tracer.wrap, "sweep.heatmap"),
        (cli, "parse_touchstone", tracer.wrap, "mbvd.parse"),
        (cli, "transmission_admittance", tracer.wrap, "mbvd.s_to_y"),
        (cli, "fit_mbvd", tracer.wrap, "mbvd.fit"),
    ]
    saved = []
    try:
        for module, attr, wrapper, name in plan:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@contextmanager
def cell_timer(times: list):
    """Untraced per-cell latency: time each find_modes call run_sweep makes.

    Two clock reads per cell and nothing else, so the end-to-end pass
    stays free of span bookkeeping.
    """
    from bawkit import sweep

    original = sweep.find_modes

    def timed(*args, **kwargs):
        t0 = _now()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(_now() - t0)

    sweep.find_modes = timed
    try:
        yield times
    finally:
        sweep.find_modes = original


def find_modes_phases(tracer: Tracer) -> dict:
    """Split each find_modes span into coarse, refine and energy.

    The phases are read off the kernel calls the span makes, so they hold
    whatever the search does between them:
      coarse: span start to the start of the second kernel call (the band
              scan plus extremum search);
      refine: second kernel call start to the last kernel call end;
      energy: last kernel call end to span end (field profile, strain
              energy, Qm and keff2).
    """
    spans = tracer.spans
    kernels: dict[int, list] = defaultdict(list)
    for s in spans:
        parent = s[3]
        if parent >= 0 and s[0].startswith(("acoustic1d.bvp.",
                                            "acoustic1d.mason.")):
            kernels[parent].append(s)
    out = {"calls": 0, "total_s": 0.0, "coarse_s": 0.0, "refine_s": 0.0,
           "energy_s": 0.0, "refine_calls": 0}
    for idx, s in enumerate(spans):
        if s[0] != "modal.find_modes":
            continue
        start, end = s[1], s[2]
        out["calls"] += 1
        out["total_s"] += end - start
        ks = kernels.get(idx, [])
        if not ks:
            out["coarse_s"] += end - start
            continue
        coarse_end = ks[1][1] if len(ks) > 1 else ks[0][2]
        last_end = ks[-1][2]
        out["coarse_s"] += coarse_end - start
        out["refine_s"] += max(last_end - coarse_end, 0.0)
        out["energy_s"] += end - max(last_end, coarse_end)
        out["refine_calls"] += len(ks) - 1
    return out
