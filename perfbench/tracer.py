"""Outside-in tracer: spans around calls into obidet's public functions.

The program is not edited.  Each traced function is replaced by a wrapper
in every module namespace that holds it, because `from .x import y` copies
the binding; `GroupPoint` construction is traced through its `__init__`.
Modules are looked up in `sys.modules` (the package attribute
`obidet.on_straighten` is the function, not the module).

Spans are kept in memory and folded per name as they close: `calls`,
`busy_s` (outermost calls only, so recursion is not counted twice) and
`self_s` (duration minus the time covered by child spans).  The counts the
benchmark reports are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, spans: dict[str, list[str]], extra_modules=()):
        self.spans = spans
        self.extra_modules = list(extra_modules)
        self.calls = Counter()
        self.busy = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._depth = Counter()
        self._stack: list[list] = []   # [name, child seconds]
        self._minors: set = set()
        self._points: dict[int, object] = {}

    # -- installation -------------------------------------------------------

    def install(self):
        for module_name, functions in self.spans.items():
            module = sys.modules[f"obidet.{module_name}"]
            for fname in functions:
                name = f"{module_name}.{fname}"
                if fname == "GroupPoint":
                    cls = module.GroupPoint
                    cls.__init__ = self._wrap(name, cls.__init__)
                    continue
                original = getattr(module, fname)
                self._rebind(original, self._wrap(name, original, self._hook(name)))
        go = sys.modules["obidet.group_oracle"]
        go.GroupPoint.reduce_mod = self._count_reduce(go.GroupPoint.reduce_mod)

    def _rebind(self, original, wrapper):
        holders = [m for key, m in list(sys.modules.items())
                   if key == "obidet" or key.startswith("obidet.")]
        holders += self.extra_modules
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn, hook=None):
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
                if not depth[name]:
                    self.busy[name] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counts taken at the boundaries ---------------------------------------

    def _hook(self, name):
        return {
            "on_straighten.on_straighten": self._on_straighten,
            "polyring.eval_minor": self._eval_minor,
            "group_oracle.standard_points": self._standard_points,
            "group_oracle.random_on_point": self._random_on_point,
            "group_oracle.matrix_rank": self._matrix_rank,
            "group_oracle.evaluation_rank": self._evaluation_rank,
            "group_oracle.basis_suite": self._basis_suite,
        }.get(name)

    def _inside(self, name) -> bool:
        return self._depth[name] > 0

    def _on_straighten(self, fn, args, kwargs):
        trace = kwargs.get("trace")
        if trace is None:
            trace = kwargs["trace"] = []
        before = len(trace)
        try:
            out = fn(*args, **kwargs)
        except RuntimeError as exc:
            if type(exc).__name__ == "CapExceeded":
                self.counts["on_straighten.cap_exceeded"] += 1
            elif "fuel exhausted" in str(exc):
                self.counts["on_straighten.fuel_exhausted"] += 1
            raise
        finally:
            for kind, *_ in trace[before:]:
                self.counts["on_straighten.steps"] += 1
                self.counts[f"on_straighten.steps.{kind}"] += 1
        self.counts["on_straighten.out_terms"] += len(out)
        return out

    def _eval_minor(self, fn, args, kwargs):
        rows, cols, point = args
        self._points.setdefault(id(point), point)   # keeps ids unique
        self._minors.add((tuple(rows), tuple(cols), id(point)))
        return fn(*args, **kwargs)

    def _standard_points(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["group_oracle.points_kept"] += len(out)
        return out

    def _random_on_point(self, fn, args, kwargs):
        # depth already counts this call, so the caller's frame is one below
        if len(self._stack) >= 2 and self._stack[-2][0] == "group_oracle.standard_points":
            self.counts["group_oracle.cayley_draws"] += 1
        return fn(*args, **kwargs)

    def _matrix_rank(self, fn, args, kwargs):
        rows = args[0]
        self.counts["group_oracle.matrix_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        return fn(*args, **kwargs)

    def _evaluation_rank(self, fn, args, kwargs):
        if self._inside("group_oracle.basis_suite"):
            self.counts["group_oracle.basis_suite.rank_calls"] += 1
        return fn(*args, **kwargs)

    def _basis_suite(self, fn, args, kwargs):
        report = fn(*args, **kwargs)
        batches = sum(1 for line in report.lines if line.startswith("independence rank="))
        self.counts["group_oracle.basis_suite.batches"] += batches
        return report

    def _count_reduce(self, fn):
        def reduce_mod(point, domain):
            out = fn(point, domain)
            self.counts["group_oracle.reduce_mod.calls"] += 1
            self.counts["group_oracle.reduce_mod.kept"] += out is not None
            return out
        reduce_mod.__wrapped__ = fn
        return reduce_mod

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for module_name, functions in self.spans.items():
            for fname in functions:
                name = f"{module_name}.{fname}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.busy_s"] = self.busy[name]
                out[f"{name}.self_s"] = self.self_time[name]
        c = self.counts
        out["on_straighten.steps"] = c["on_straighten.steps"]
        for kind in ("GL", "COLSUM", "OS1", "OS2", "OS3"):
            out[f"on_straighten.steps.{kind}"] = c[f"on_straighten.steps.{kind}"]
        out["on_straighten.out_terms"] = c["on_straighten.out_terms"]
        out["on_straighten.terms_per_step"] = _ratio(c["on_straighten.out_terms"],
                                                      c["on_straighten.steps"])
        out["on_straighten.fuel_exhausted"] = c["on_straighten.fuel_exhausted"]
        out["on_straighten.cap_exceeded"] = c["on_straighten.cap_exceeded"]
        out["polyring.eval_minor.distinct"] = len(self._minors)
        out["polyring.eval_minor.reuse"] = _ratio(self.calls["polyring.eval_minor"],
                                                  len(self._minors))
        out["group_oracle.points_per_draw"] = _ratio(c["group_oracle.points_kept"],
                                                     c["group_oracle.cayley_draws"])
        out["group_oracle.reduce_mod.kept_ratio"] = _ratio(c["group_oracle.reduce_mod.kept"],
                                                           c["group_oracle.reduce_mod.calls"])
        out["group_oracle.matrix_rank.cells"] = c["group_oracle.matrix_rank.cells"]
        out["group_oracle.basis_suite.rank_retries"] = (
            c["group_oracle.basis_suite.rank_calls"] - c["group_oracle.basis_suite.batches"])
        return out


def _ratio(num, den) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0
