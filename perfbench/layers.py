"""Outside-in tracing of oscflag's layers.

The program carries no spans of its own, so the traced run replaces each
layer function listed in ``layer_targets`` with a timing wrapper, from the
benchmark's side.  A function is rebound everywhere it is reachable: the
attribute of every ``oscflag`` module that imported it by name, any
module-level dict that stores it (``checks.CHECKS``), or the class that
defines it for methods.  ``Tracer.restore`` puts the originals back.

Per layer the tracer records calls, total time (outermost spans only, so a
recursive call is not counted twice) and self time (the span minus the part
its child spans cover).  Chart evaluation and ``point_geometry`` also record
their distinct ``(chart, x, order)`` keys.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def program_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "oscflag" or n.startswith("oscflag.")]


class LayerStat:
    __slots__ = ("calls", "total_s", "self_s", "depth", "keys")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.keys: set | None = None

    @property
    def distinct_ratio(self) -> float:
        if not self.calls or self.keys is None:
            return 0.0
        return len(self.keys) / self.calls


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []
        self._charts: dict = {}   # keeps charts alive so id() keys stay unique

    def _wrap(self, name: str, fn, key):
        stat = self.stats.setdefault(name, LayerStat())
        if key is not None:
            stat.keys = set()
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            if key is not None:
                stat.keys.add(key(*args, **kwargs))
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.self_s += span - frame[0]
                if stat.depth == 0:
                    stat.total_s += span
                if stack:
                    stack[-1][0] += span
        return traced

    def _point_key(self, chart, x, order):
        self._charts[id(chart)] = chart
        return id(chart), np.asarray(x, dtype=float).tobytes(), order

    def install(self, targets):
        """Wrap each ``(name, owner, attr, key)`` target; see layer_targets.

        A target the program no longer has is skipped, and its metrics read
        as not measured.
        """
        modules = program_modules()
        for name, owner, attr, key in targets:
            if attr not in vars(owner):
                continue
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(name, original, key))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, key)
            for module in modules:
                for label, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, label, wrapped)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                self._undo.append((value, k, original))
                                value[k] = wrapped

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        self._charts.clear()


def layer_targets(tracer: Tracer) -> list[tuple]:
    """Every traced function as ``(metric prefix, owner, attribute, key)``.

    ``verify.run_verification`` is the root span: its self time is the part
    of a verification no layer accounts for.
    """
    from oscflag import (catalog, checks, geometry, nonparallel,
                         ruled_extension, subspaces, verify)

    def chart_key(chart, x, order):
        return tracer._point_key(chart, x, order)

    def geometry_key(chart, x, max_normal_order=1, tol=None):
        return tracer._point_key(chart, x, max_normal_order)

    targets = [
        ("verify.run_verification", verify, "run_verification", None),
        ("catalog.get_entry", catalog, "get_entry", None),
        ("catalog.field_taylor", catalog.CurveSystem, "field_taylor", None),
        ("geometry.chart_eval", geometry.ImmersionChart, "eval", chart_key),
        ("geometry.point_geometry", geometry, "point_geometry", geometry_key),
        ("geometry.s_nullity", geometry, "s_nullity", None),
        ("ruled_extension.splitting_at", ruled_extension.SplittingSpec, "at",
         None),
    ]
    for module, names in (
            (nonparallel, ("phi_pairing", "nonparallel_data", "phi_frame_fd",
                           "codazzi_residual", "p_parallel_drift")),
            (ruled_extension, ("gamma_tensor", "build_extension",
                               "verify_extension", "extension_second_form",
                               "integrate_leaf")),
            (subspaces, ("span_of", "kernel_of", "complement_within"))):
        short = module.__name__.rsplit(".", 1)[1]
        targets += [(f"{short}.{n}", module, n, None) for n in names]
    targets += [(f"checks.{n[len('check_'):]}", checks, n, None)
                for n in sorted(vars(checks))
                if n.startswith("check_") and callable(getattr(checks, n))]
    return targets
