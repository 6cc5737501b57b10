"""Spans around polybound's public functions, installed from outside the library.

Each wrapped call records a span (name, start, end, parent span, operation
id). Spans stay in memory, in flat arrays, until the run writes them out.
Self time (a span's duration minus the durations of its child spans),
call counts and the per-function extras below are accumulated as spans close.

bounds, oracle and refine2d import names with `from .x import y`, so a
wrapper is installed in every polybound module namespace that binds the
original function object, and only while `Tracer.active()` is entered.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

POLISH = "oracle.polish"


def _rows(args, kwargs):
    return int(args[0].shape[0])


def _validate_extra(args, kwargs, result):
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    return {f"trials.n{args[0].n}": trials}


def _sample_extra(args, kwargs, result):
    return {"draws": len(result)}


class _OptimizeProxy(types.ModuleType):
    """scipy.optimize as polybound.oracle sees it, with `minimize` replaced."""

    def __init__(self, real: types.ModuleType, minimize) -> None:
        super().__init__(real.__name__)
        self._real = real
        self.minimize = minimize

    def __getattr__(self, name: str):
        return getattr(self._real, name)


# module, function, how many rows the call handles (or None), extra counts
TARGETS = (
    ("realset", "normalize", None, None),
    ("measure", "mass", None, None),
    ("measure", "sample", None, _sample_extra),
    ("measure", "length_n_eps", None, None),
    ("measure", "shortest_mass_interval", None, None),
    ("peano", "poly_sup", None, None),
    ("peano", "real_roots_bisection", None, None),
    ("peano", "affine_substitute", None, None),
    ("children", "ell_n", None, lambda a, k, r: {"exact": int(r.method == "exact")}),
    ("children", "decompose", None, None),
    ("children", "sublevel_set", None, None),
    ("children", "children_tree", None, None),
    ("oracle", "batch_real_roots", _rows, None),
    ("oracle", "batch_abs_integral_measure", _rows, None),
    ("oracle", "batch_sup_abs_set", _rows, None),
    ("oracle", "minimize_poly_ratio", None, None),
    ("oracle", "certify_ratio", None, None),
    ("oracle", "validate_inequality", None, _validate_extra),
    ("bounds", "certificate_sides", lambda a, k: int(a[1].shape[0]), None),
    ("bounds", "theorem0_pipeline", None, None),
    ("bounds", "corollary_interval", None, None),
    ("bounds", "theorem2_set", None, None),
    ("refine2d", "refine", None, None),
    ("refine2d", "validate_intest", None, None),
)


class Tracer:
    """Span recorder; `op` is the id of the operation now running."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self._stack: list[list] = []  # [span id, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.rows: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.incl_by_n: dict[str, float] = defaultdict(float)
        self._bindings: list[tuple[types.ModuleType, str, object, object]] = []

    def wrap(self, name: str, fn, rows=None, extra=None):
        idx = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            frame = [sid, clock(), 0.0]
            self.span_start.append(frame[1])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.span_end[sid] = end
                if stack:
                    stack[-1][2] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                self.incl_s[name] += dur
            if rows is not None:
                self.rows[name] += rows(args, kwargs)
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    self.extra[f"{name}.{key}"] += value
                    if key.startswith("trials."):
                        self.incl_by_n[f"{name}.{key}"] += dur
            return result

        return traced

    def _install(self) -> None:
        """Wrap every target in each polybound module that binds it, and
        Nelder-Mead (scipy.optimize.minimize as oracle reaches it)."""
        mods = [m for k, m in sys.modules.items() if k == "polybound" or k.startswith("polybound.")]
        for mod_name, fn_name, rows, extra in TARGETS:
            orig = getattr(sys.modules[f"polybound.{mod_name}"], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", orig, rows, extra)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._bindings.append((mod, attr, orig, wrapped))
        oracle = sys.modules["polybound.oracle"]
        real = oracle.optimize
        minimize = self.wrap(POLISH, real.minimize, None, lambda a, k, r: {"nfev": int(r.nfev)})
        self._bindings.append((oracle, "optimize", real, _OptimizeProxy(real, minimize)))

    @contextlib.contextmanager
    def active(self):
        """Bind the wrappers for the duration of the block, then the originals."""
        if not self._bindings:
            self._install()
        for mod, attr, _, wrapped in self._bindings:
            setattr(mod, attr, wrapped)
        try:
            yield self
        finally:
            for mod, attr, orig, _ in self._bindings:
                setattr(mod, attr, orig)

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def save(self, path: Path) -> None:
        """Write every span: name index, start, end, parent span, operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), from one traced pass."""
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for fn in (
        POLISH, "oracle.minimize_poly_ratio", "oracle.certify_ratio",
        "peano.poly_sup", "peano.real_roots_bisection",
        "oracle.batch_real_roots", "oracle.batch_abs_integral_measure",
        "oracle.batch_sup_abs_set", "oracle.validate_inequality",
        "children.ell_n", "children.decompose", "children.children_tree",
        "measure.length_n_eps", "measure.mass", "measure.sample", "refine2d.refine",
    ):
        put(f"{fn}.calls", tr.calls[fn], "count")
        put(f"{fn}.self_s", tr.self_s[fn], "s")
    for fn in ("bounds.theorem0_pipeline", "bounds.corollary_interval", "bounds.theorem2_set",
               "bounds.certificate_sides", "measure.shortest_mass_interval",
               "refine2d.validate_intest"):
        put(f"{fn}.self_s", tr.self_s[fn], "s")
    for fn in ("peano.affine_substitute", "children.sublevel_set", "realset.normalize"):
        put(f"{fn}.calls", tr.calls[fn], "count")
    # inclusive time of the stages, children included: polish's share of an
    # operation shows here, while its self time leaves out the objective's
    # kernel calls
    for fn in (POLISH, "oracle.minimize_poly_ratio", "oracle.certify_ratio",
               "oracle.validate_inequality", "bounds.theorem0_pipeline",
               "bounds.corollary_interval", "bounds.theorem2_set", "refine2d.refine",
               "children.children_tree", "children.decompose", "children.ell_n"):
        put(f"{fn}.incl_s", tr.incl_s[fn], "s")
    put(f"{POLISH}.nfev", tr.extra[f"{POLISH}.nfev"], "count")
    kernels = ("oracle.batch_real_roots", "oracle.batch_abs_integral_measure",
               "oracle.batch_sup_abs_set")
    for fn in kernels + ("bounds.certificate_sides",):
        put(f"{fn}.rows", tr.rows[fn], "rows")
    kernel_calls = sum(tr.calls[fn] for fn in kernels)
    put("oracle.kernel.rows_per_call",
        sum(tr.rows[fn] for fn in kernels) / kernel_calls if kernel_calls else 0.0, "rows/call")
    for n in range(1, 13):
        key = f"oracle.validate_inequality.trials.n{n}"
        secs = tr.incl_by_n[key]
        put(f"oracle.validate.rows_per_s.n{n}", tr.extra[key] / secs if secs else 0.0, "rows/s")
    ell_calls = tr.calls["children.ell_n"]
    put("children.ell_n.exact_share",
        tr.extra["children.ell_n.exact"] / ell_calls if ell_calls else 0.0, "ratio")
    dec = tr.calls["children.decompose"]
    put("children.node_evals_per_decompose",
        tr.calls["children.sublevel_set"] / dec if dec else 0.0, "count")
    put("measure.sample.draws", tr.extra["measure.sample.draws"], "count")
    return out
