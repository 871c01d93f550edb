"""Spans and counters installed around the package's public functions.

Everything here is patched in from the benchmark's own files: each target
function is replaced, in every module and dispatch dict of the package that
binds it, by a wrapper that records a span (name, start, end, parent, run
id) and/or counts work.  A target that no longer exists is reported as
absent instead of failing, so the benchmark keeps running when a later
change renames or removes a function.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "contact_stab"

# layer name -> functions ("module:qualname") whose calls form that layer
LAYERS: dict[str, tuple[str, ...]] = {
    "config.parse": ("config:parse_config",),
    "linearization.background": ("linearization:constant_basic_state",
                                 "linearization:basic_state_from_arrays"),
    "solver.assemble": ("solver:assemble_coefficients",),
    "solver.step": ("solver:step",),
    "grid.stencil": ("grid:d1_field", "grid:d2_field", "grid:d2_line"),
    "solver.interface": ("solver:apply_interface_conditions",),
    "solver.sources.f": ("solver:Sources.f_eval",),
    "solver.sources.g": ("solver:Sources.g_eval",),
    "solver.monitor": ("solver:energy_report", "solver:symmetrizer_energy",
                       "solver:divergence_monitor"),
    "solver.lift": ("solver:BoundaryLift.front_lift", "solver:BoundaryLift.interior_source",
                    "solver:BoundaryLift.source_h1_norm", "scenarios:source_h1_norm"),
    "spectral.det": ("spectral:lopatinski_determinant",),
    "mhd.assemble_matrices": ("mhd:assemble_matrices",),
    "scenarios.run": ("scenarios:RUNNERS[*]",),
    "cli.artifacts": ("cli:write_artifacts",),
}

# Source evaluations count only when a callback is present: homogeneous runs
# call g_eval on an empty Sources() every stage.
_ONLY_WITH_CALLBACK = {"solver:Sources.f_eval": "f", "solver:Sources.g_eval": "g"}

STEP_TARGET = "solver:step"
DET_TARGET = "spectral:lopatinski_determinant"


def _resolve(target: str):
    """(owner, attribute) of a target, or None when it does not exist."""
    mod_name, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def _expand(target: str) -> list[str]:
    """Expand "module:DICT[*]" into one target per function in the dict."""
    if not target.endswith("[*]"):
        return [target]
    found = _resolve(target[:-3])
    if found is None:
        return []
    table = getattr(*found)
    mod_name = target.partition(":")[0]
    return [f"{mod_name}:{fn.__name__}" for fn in table.values()
            if callable(fn) and _resolve(f"{mod_name}:{fn.__name__}") is not None]


class Counters:
    """Work counts that the end-to-end metrics need even without tracing."""

    def __init__(self):
        self.steps = 0
        self.cell_steps = 0        # sum over RK4 steps of 2 * N1 * N2
        self.det_points = 0

    def on_step(self, args, kwargs):
        self.steps += 1
        basic = args[1] if len(args) > 1 else kwargs.get("basic")
        grid = getattr(basic, "grid", None)
        if grid is not None:
            self.cell_steps += 2 * grid.N1 * grid.N2

    def on_det(self, args, kwargs):
        self.det_points += 1


class Tracer:
    """In-memory span log plus the per-layer counts measured at its wrappers."""

    def __init__(self):
        self.spans: list[list] = []    # [layer, start, end, parent index, run id, outermost]
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.run_id = ""
        self.errors: Counter = Counter()          # (layer, exception type) -> count
        self.g_in_step = 0
        self.artifact_bytes = 0
        self.coeff: dict | None = None            # largest assembled coefficient set
        self.coeff_layout_unknown = False
        self._coeff_shapes: set = set()

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.run_id,
                           self._open[layer] == 0])
        self._stack.append(idx)
        self._open[layer] += 1
        if layer == "solver.sources.g" and self._open["solver.step"]:
            self.g_in_step += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def span(self, layer: str, fn, *args, **kwargs):
        idx = self.open(layer)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.errors[(layer, type(exc).__name__)] += 1
            raise
        finally:
            self.close(idx)

    # -- counts taken from a wrapped call's arguments or result ------------

    def after(self, target: str, args, result) -> None:
        if target == "cli:write_artifacts":
            outdir = Path(args[0])
            self.artifact_bytes += sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
        elif target == "solver:assemble_coefficients":
            self._record_coefficients(result)

    def _record_coefficients(self, coeffs) -> None:
        """Computed size and nonzero share of the dense 6x6 coefficient fields."""
        import numpy as np

        arrays = []
        for side in ("plus", "minus"):
            sc = getattr(coeffs, side, None)
            for name in ("At1", "A2", "C"):
                arr = getattr(sc, name, None)
                if not (isinstance(arr, np.ndarray) and arr.ndim >= 2 and arr.shape[:2] == (6, 6)):
                    self.coeff_layout_unknown = True   # reported as absent
                    return
                arrays.append(arr)
        key = tuple(a.shape for a in arrays)
        if key in self._coeff_shapes:
            return
        self._coeff_shapes.add(key)
        nbytes = sum(a.nbytes for a in arrays)
        if self.coeff is not None and self.coeff["bytes"] >= nbytes:
            return
        nnz = sum(int(np.count_nonzero(np.any(a != 0, axis=tuple(range(2, a.ndim)))))
                  for a in arrays)
        self.coeff = {"bytes": nbytes, "nnz_frac": nnz / (36 * len(arrays))}

    # -- aggregation --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy (outermost spans) and self time per layer."""
        child_time = defaultdict(float)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (layer, start, end, _, _, outermost) in enumerate(self.spans):
            d = out[layer]
            d["calls"] += 1
            d["self_s"] += (end - start) - child_time[i]
            if outermost:
                d["busy_s"] += end - start
        return dict(out)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for layer, start, end, parent, run_id, _ in self.spans:
                fh.write(json.dumps([layer, round(start, 7), round(end, 7), parent, run_id]) + "\n")


class Patcher:
    """Replaces every binding of each target inside the package; undo() restores."""

    def __init__(self):
        self._undo: list = []
        self.absent: list[str] = []
        self.absent_layers: list[str] = []

    @staticmethod
    def _bindings(orig):
        """(owner, key, is_dict) for every module attribute or dict entry bound to orig."""
        seen = set()
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    found = [(mod, attr, False)]
                elif isinstance(val, dict):
                    found = [(val, key, True) for key, item in val.items() if item is orig]
                else:
                    continue
                for site in found:
                    if (id(site[0]), site[1]) not in seen:
                        seen.add((id(site[0]), site[1]))
                        yield site

    def patch(self, target: str, make_wrapper) -> bool:
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return False
        owner, attr = found
        orig = vars(owner)[attr]
        wrapper = make_wrapper(orig)
        sites = [(owner, attr, False)] if isinstance(owner, type) else self._bindings(orig)
        for site, key, is_dict in sites:
            if is_dict:
                self._undo.append((site, key, site[key], True))
                site[key] = wrapper
            else:
                self._undo.append((site, key, getattr(site, key), False))
                setattr(site, key, wrapper)
        return True

    def undo(self) -> None:
        while self._undo:
            site, key, orig, is_dict = self._undo.pop()
            if is_dict:
                site[key] = orig
            else:
                setattr(site, key, orig)


def install(counters: Counters, tracer: Tracer | None = None) -> Patcher:
    """Count steps and determinant points; with a tracer, also record spans.

    The returned patcher lists the absent targets, and the layers none of
    whose targets exist in `absent_layers`.
    """
    patcher = Patcher()
    layer_of: dict[str, str | None] = {STEP_TARGET: None, DET_TARGET: None}
    if tracer is not None:
        for layer, names in LAYERS.items():
            expanded = [t for name in names for t in _expand(name)]
            layer_of.update((t, layer) for t in expanded)
            if not expanded:
                patcher.absent.extend(names)
    patched = Counter()
    for target, layer in layer_of.items():
        wrap = functools.partial(_make_wrapper, target, layer, counters, tracer)
        if patcher.patch(target, wrap):
            patched[layer] += 1
    if tracer is not None:
        patcher.absent_layers = sorted(layer for layer in LAYERS if not patched[layer])
    return patcher


def _make_wrapper(target, layer, counters, tracer, orig):
    count = {STEP_TARGET: counters.on_step, DET_TARGET: counters.on_det}.get(target)
    callback_attr = _ONLY_WITH_CALLBACK.get(target)
    traced = tracer is not None and layer is not None

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if count is not None:
            count(args, kwargs)
        if not traced or (callback_attr and getattr(args[0], callback_attr, None) is None):
            return orig(*args, **kwargs)
        result = tracer.span(layer, orig, *args, **kwargs)
        tracer.after(target, args, result)
        return result

    return wrapper
