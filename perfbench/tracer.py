"""Outside-in tracer: spans around calls into the library's public names.

The tracer replaces each traced function or PSet method with a wrapper
in every module namespace that holds it (``cli.is_wavelet_set`` as well
as ``verifier.is_wavelet_set``), so calls made between library modules
are seen too.  Nothing inside the library changes.

Spans are kept in memory as (name, start, end, parent, op id) rows and
written out by ``save``.  Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# Public names traced per module; "PSet." entries are methods.
TRACED = {
    "setalg": [
        "PSet.__init__", "PSet.union", "PSet.intersect", "PSet.difference",
        "PSet.dilate", "PSet.translate", "PSet.refine", "PSet.cells_at",
    ],
    "verifier": [
        "is_wavelet_set", "check_measure_one", "check_dilation_tiling",
        "check_translation_congruence", "congruence_partition", "search_wavelet_sets",
    ],
    "mra": [
        "accumulate_omega_sigma", "check_mra_condition", "build_filters",
        "verify_filter_identities", "verify_calderon", "verify_two_scale",
    ],
    "transform": [
        "synthesize_wavelet", "indicator_on_grid", "forward", "inverse",
        "write_csv", "read_csv",
    ],
    "famio": ["parse_family_file", "emit_report"],
    "cli": ["main"],
}
COUNTED = {"group": ["lambda_encode"]}  # call counts only, no spans

MAX_SPANS = 2_000_000


def _span_name(module: str, attr: str) -> str:
    method = attr.split(".")[-1].strip("_")
    return f"{module}.{'pset_init' if method == 'init' else method}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.dropped = 0
        self.op_id = -1
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, start, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -----------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.start)
        if index >= MAX_SPANS:
            self.dropped += 1
            index = -1
        start = time.perf_counter()
        if index >= 0:
            self.names.append(name)
            self.start.append(start)
            self.end.append(start)
            self.parent.append(parent)
            self.op.append(self.op_id)
        frame = [index, start, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[0] >= 0:
            self.end[frame[0]] = end

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "vilenkin_wavelets") -> None:
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for short, attrs in TRACED.items():
            home = sys.modules[f"{package}.{short}"]
            for attr in attrs:
                self._patch(modules, home, attr, _span_name(short, attr), spans=True)
        for short, attrs in COUNTED.items():
            home = sys.modules[f"{package}.{short}"]
            for attr in attrs:
                self._patch(modules, home, attr, f"{short}.{attr}", spans=False)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, modules, home, attr: str, name: str, *, spans: bool) -> None:
        if attr.startswith("PSet."):
            owner = home.PSet
            method = attr.split(".", 1)[1]
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, self._wrap(name, original, spans))
            return
        original = getattr(home, attr)
        wrapper = self._wrap(name, original, spans)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn, spans: bool):
        tracer = self
        hook = _HOOKS.get(name)
        if not spans:
            key = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.count(key)
                return fn(*args, **kwargs)

            return counted

        if name == "setalg.pset_init":

            @functools.wraps(fn)
            def init(pset, p, cylinders, *args, **kwargs):
                frame = tracer._enter(name)
                try:
                    cyls = tuple(cylinders)
                    fn(pset, p, cyls, *args, **kwargs)
                finally:
                    tracer._exit(name, frame)
                tracer.count("setalg.pset_init.calls")
                tracer.count("setalg.pset_init.cylinders_in", len(cyls))
                tracer.count("setalg.pset_init.cylinders_out", len(pset.cylinders))
                if pset.cylinders:
                    top = max(c.resolution for c in pset.cylinders)
                    seen = tracer.counters.get("setalg.max_resolution_seen", top)
                    tracer.counters["setalg.max_resolution_seen"] = max(seen, top)

            return init

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every recorded span; a parent of -1 marks a top-level call."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            dropped=np.array(self.dropped),
        )


def _stream_bytes(stream) -> int:
    try:
        return os.fstat(stream.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


def _hook_write_csv(tracer, args, result):
    tracer.count("transform.csv_bytes", args[1].tell())


def _hook_read_csv(tracer, args, result):
    tracer.count("transform.csv_bytes", _stream_bytes(args[1]))


_HOOKS = {
    "setalg.cells_at": lambda t, a, r: t.count("setalg.cells_at.cells", len(r)),
    "verifier.search_wavelet_sets": lambda t, a, r: (
        t.count("verifier.search.examined", r.examined),
        t.count("verifier.search.found", len(r.families)),
    ),
    "mra.accumulate_omega_sigma": lambda t, a, r: (
        t.count("mra.accumulate_calls"),
        t.count("mra.spectrum_resolved", r.resolved is not None),
    ),
    "mra.check_mra_condition": lambda t, a, r: t.count("mra.mra_rows", len(r.rows)),
    "mra.verify_filter_identities": lambda t, a, r: t.count("mra.identity_cells_checked", r.checked_cells),
    "mra.verify_two_scale": lambda t, a, r: t.count("mra.two_scale_cells_checked", r.checked_cells),
    "transform.write_csv": _hook_write_csv,
    "transform.read_csv": _hook_read_csv,
    "famio.emit_report": lambda t, a, r: t.count("famio.report_bytes", len(r)),
}
