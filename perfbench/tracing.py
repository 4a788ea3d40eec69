"""Spans around the calls between the package's modules, recorded from
outside the package.

``Tracer.install`` finds every module attribute of the package that holds
one of the TARGETS function objects (the function's home module and every
module that imported it) and replaces it with a wrapper.  The wrapper
records a span (name, start, end, parent span, operation index) in memory;
``per_layer`` turns the spans into counts and self-time shares after the
run.  Self time is a span's duration minus the part of it covered by its
children.  A worker thread's outermost span takes the caller thread's
innermost open span as parent, so the scan's pool threads nest under the
CLI call that started them.

``special.bernoulli_poly`` runs 30 times per coefficient table; it gets a
counting wrapper without a span to keep the overhead down.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MARK = "__perfbench_span__"

# (module, function) -> span name; the three kernels share one layer name
TARGETS = {
    ("evaluate", "evaluate"): "evaluate",
    ("evaluate", "phi_series"): "evaluate.phi_series",
    ("evaluate", "hurwitz_em"): "evaluate.hurwitz_em",
    ("kernels", "h_series_coeffs"): "kernels.h_series_coeffs",
    ("kernels", "gz_taylor_coeffs"): "kernels.gz_taylor_coeffs",
    ("kernels", "kernel_H"): "kernels.kernel_sample",
    ("kernels", "kernel_G"): "kernels.kernel_sample",
    ("kernels", "kernel_Gz"): "kernels.kernel_sample",
    ("quadrature", "tanh_sinh"): "quadrature.tanh_sinh",
    ("quadrature", "exp_sinh"): "quadrature.exp_sinh",
    ("special", "bernoulli_poly"): "special.bernoulli_poly",
    ("zeros", "scan_zeros"): "zeros.scan_zeros",
    ("zeros", "classify"): "zeros.classify",
    ("zeros", "check_case3"): "zeros.check_case3",
    ("functional_eq", "zeta_fe_rhs"): "functional_eq.zeta_fe_rhs",
    ("functional_eq", "phi_fe_rhs"): "functional_eq.phi_fe_rhs",
    ("identities", "verify_six_relations"): "identities.verify_six_relations",
    ("cli", "main"): "cli",
}
COUNT_ONLY = {"special.bernoulli_poly"}
QUADRATURE = {"quadrature.tanh_sinh", "quadrature.exp_sinh"}
COEFFS = {"kernels.h_series_coeffs", "kernels.gz_taylor_coeffs"}
METHODS = ("Series", "IntegralPos", "IntegralNeg", "IntegralUnit",
           "EulerMaclaurin", "SpecialValue")
SPAN_LAYERS = ("kernels.h_series_coeffs", "kernels.gz_taylor_coeffs",
               "kernels.kernel_sample", "quadrature.tanh_sinh",
               "quadrature.exp_sinh", "evaluate", "evaluate.phi_series",
               "evaluate.hurwitz_em", "zeros.scan_zeros", "zeros.check_case3",
               "cli", "functional_eq.zeta_fe_rhs", "functional_eq.phi_fe_rhs",
               "identities.verify_six_relations")


def package_modules() -> list:
    pkg = importlib.import_module("lerchzeta")
    return [pkg] + [importlib.import_module(f"lerchzeta.{m.name}")
                    for m in pkgutil.iter_modules(pkg.__path__)]


def assert_untraced() -> None:
    """No attribute of any package module is a tracing wrapper."""
    for mod in package_modules():
        for attr, value in vars(mod).items():
            assert not hasattr(value, MARK), f"{mod.__name__}.{attr} is traced"


class Tracer:
    def __init__(self, prefix_ops: int):
        self.prefix_ops = prefix_ops
        self.op_index = -1
        self.spans: list[tuple] = []   # (id, parent, name, t0, t1, op, info)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._counters: list[Counter] = []
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for (mod_name, fn_name), span in TARGETS.items():
            mod = importlib.import_module(f"lerchzeta.{mod_name}")
            originals[id(getattr(mod, fn_name))] = span
        wrappers = {}
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                span = originals.get(id(value))
                if span is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(span, value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()
        assert_untraced()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key) -> None:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        counter[key] += 1

    def _wrap(self, name: str, fn):
        tracer = self
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._count((name, tracer.op_index < tracer.prefix_ops))
                return fn(*args, **kwargs)
            setattr(counted, MARK, name)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:   # a pool thread: nest under the caller's open span
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            zeros = [0]
            if name == "quadrature.exp_sinh":
                f = args[0]

                def integrand(x):
                    y = f(x)
                    zeros[0] += int(np.count_nonzero(y == 0))
                    return y
                args = (integrand,) + args[1:]
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                info = None
                if result is not None:
                    if name in QUADRATURE:
                        info = (result.evals, result.levels, zeros[0])
                    elif name == "evaluate":
                        info = str(result.method)
                if name in COEFFS:
                    info = args[:2]
                tracer.spans.append((sid, parent, name, t0, t1,
                                     tracer.op_index, info))
        setattr(wrapper, MARK, name)
        return wrapper

    def run_op(self, index: int, fn, *args):
        """Run one workload operation under a root span named "op"."""
        self.op_index = index
        sid = next(self._ids)
        self._main_stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._main_stack.pop()
            self.spans.append((sid, 0, "op", t0, t1, index, None))

    def counts(self) -> Counter:
        total: Counter = Counter()
        for c in self._counters:
            total.update(c)
        return total


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _, _ in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(t0, t1, children.get(sid, []))
            for sid, _, _, t0, t1, _, _ in spans}


def per_layer(tracer: Tracer) -> tuple[dict[str, float], dict[str, dict]]:
    """(metrics, per-span-name summary).  Counts cover the first prefix_ops
    operations, so they repeat exactly for a seed; shares (percent of the
    traced operations' wall time) cover every traced operation."""
    spans = tracer.spans
    prefix = tracer.prefix_ops
    selft = self_times(spans)
    by_id = {s[0]: s for s in spans}
    wall = sum(s[4] - s[3] for s in spans if s[2] == "op")

    calls, self_s, dur = Counter(), Counter(), Counter()
    calls_all = Counter()
    for sid, _, name, t0, t1, op, _ in spans:
        self_s[name] += selft[sid]
        dur[name] += t1 - t0
        calls_all[name] += 1
        if op < prefix:
            calls[name] += 1

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall if wall > 0 else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def under(sid: int, name: str) -> bool:
        parent = by_id[sid][1]
        while parent:
            span = by_id.get(parent)
            if span is None:
                return False
            if span[2] == name:
                return True
            parent = span[1]
        return False

    m: dict[str, float] = {}
    for name in SPAN_LAYERS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_pct"] = pct(self_s[name])
    m["special.bernoulli_poly.calls"] = tracer.counts()[
        ("special.bernoulli_poly", True)]

    pre = [s for s in spans if s[5] < prefix]
    evals = calls["evaluate"]
    builds = [s for s in pre if s[2] in COEFFS]
    m["kernels.coeff_builds_per_eval"] = ratio(len(builds), evals)
    m["kernels.coeff_distinct_ratio"] = ratio(
        len({(s[2], s[6]) for s in builds}), len(builds))

    quad_evals = 0
    for name in QUADRATURE:
        infos = [s[6] for s in pre if s[2] == name and s[6] is not None]
        n_evals = sum(i[0] for i in infos)
        quad_evals += n_evals
        m[f"{name}.evals"] = n_evals
        m[f"{name}.levels_mean"] = ratio(sum(i[1] for i in infos), len(infos))
        if name == "quadrature.exp_sinh":
            m[f"{name}.zero_node_ratio"] = ratio(sum(i[2] for i in infos),
                                                 n_evals)
    m["quadrature.evals_per_eval"] = ratio(quad_evals, evals)

    for method in METHODS:
        hits = [s for s in spans if s[2] == "evaluate" and s[6] == method]
        m[f"evaluate.route.{method}.calls"] = sum(1 for s in hits
                                                 if s[5] < prefix)
        m[f"evaluate.route.{method}.pct"] = pct(sum(s[4] - s[3] for s in hits))

    cells = calls["zeros.scan_zeros"]
    m["zeros.evals_per_cell"] = ratio(
        sum(1 for s in pre if s[2] == "evaluate" and under(s[0], "zeros.scan_zeros")),
        cells)
    cli_cells = [s for s in spans if s[2] == "zeros.scan_zeros"
                 and under(s[0], "cli")]
    m["cli.scan.overlap"] = ratio(sum(s[4] - s[3] for s in cli_cells), dur["cli"])

    summary = {name: {"calls": calls_all[name],
                      "us_per_call": 1e6 * ratio(dur[name], calls_all[name]),
                      "self_us_per_call": 1e6 * ratio(self_s[name], calls_all[name])}
               for name in sorted(calls_all)}
    summary["cli.scan.cell"] = {
        "calls": len(cli_cells),
        "ms_per_call": 1e3 * ratio(sum(s[4] - s[3] for s in cli_cells),
                                   len(cli_cells))}
    return m, summary
