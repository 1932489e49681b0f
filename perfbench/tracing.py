"""Span tracing of hcppnet's layers from outside the library.

``from .x import y`` binds ``y`` at every module that imports it, so a
function is traced by replacing each binding of it: the tracer scans every
loaded ``hcppnet.*`` module (and the one traced class) for attributes that
are the original function object and swaps in a wrapper.  Each wrapper
records a span (name, start, end, parent) in memory and bumps the counters
of its layer.  Leaving the ``with`` block restores every binding and checks
that each module's namespace holds exactly the objects it held before.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _count_thin(counters, args, kwargs, result):
    counters["point_process.matern2_thin.points"] += len(args[0])
    counters["point_process.matern2_thin.kept"] += len(result)


def _count_shadowing(counters, args, kwargs, result):
    counters["channel.sample_shadowing.draws"] += np.size(result)


def _count_fading(counters, args, kwargs, result):
    counters["channel.sample_fading_power.draws"] += np.size(result)


def _count_avg_hcpp(counters, args, kwargs, result):
    counters.distinct.add((args[0], kwargs.get("r_max", args[1] if len(args) > 1 else None)))


def _count_mc_itf(counters, args, kwargs, result):
    counters["interference.mc_interference.realizations"] += result.replications


def _count_ee_mc(counters, args, kwargs, result):
    counters["energy.energy_efficiency_mc.draws"] += result.replications


def _count_se_mc(counters, args, kwargs, result):
    counters["zf_capacity.spectral_efficiency_mc.draws"] += result.replications


def _count_write_csv(counters, args, kwargs, result):
    counters["figures.rows"] += len(args[0].rows)


# (home module, qualified name, span name, counter hook).  The span name is
# the layer the function belongs to, whichever module calls it.
TRACED = (
    ("hcppnet.cli", "main", "cli.main", None),
    ("hcppnet.config", "config_from_dict", "config.config_from_dict", None),
    ("hcppnet.figures", "run_figure", "figures.run_figure", None),
    ("hcppnet.figures", "ResultTable.write_csv", "figures.write_csv", _count_write_csv),
    ("hcppnet.figures", "ResultTable.write_metadata", "figures.write_metadata", None),
    ("hcppnet.point_process", "sample_ppp", "point_process.sample_ppp", None),
    ("hcppnet.point_process", "sample_hcpp", "point_process.sample_hcpp", None),
    ("hcppnet.point_process", "matern2_thin", "point_process.matern2_thin", _count_thin),
    ("hcppnet.point_process", "second_moment", "point_process.second_moment", None),
    ("hcppnet.channel", "sample_shadowing", "channel.sample_shadowing", _count_shadowing),
    ("hcppnet.channel", "sample_fading_power", "channel.sample_fading_power", _count_fading),
    ("hcppnet.interference", "avg_interference_hcpp", "interference.avg_interference_hcpp", _count_avg_hcpp),
    ("hcppnet.interference", "avg_interference_ppp", "interference.avg_interference_ppp", None),
    ("hcppnet.interference", "mc_interference", "interference.mc_interference", _count_mc_itf),
    ("hcppnet.interference", "mc_interference_ppp", "interference.mc_interference_ppp", None),
    ("hcppnet.energy", "energy_efficiency_quad", "energy.energy_efficiency_quad", None),
    ("hcppnet.energy", "energy_efficiency_mc", "energy.energy_efficiency_mc", _count_ee_mc),
    ("hcppnet.zf_capacity", "spectral_efficiency_mc", "zf_capacity.spectral_efficiency_mc", _count_se_mc),
    ("hcppnet.zf_capacity", "spectral_efficiency_bound", "zf_capacity.spectral_efficiency_bound", None),
)


class Counters(defaultdict):
    """Named counts, plus the distinct analytic-interference scenarios seen."""

    def __init__(self):
        super().__init__(int)
        self.distinct: set = set()


def _hcppnet_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "hcppnet" and m]


def snapshot() -> dict:
    """Identity of every attribute of every loaded hcppnet module and of the traced classes."""
    snap = {}
    for module in _hcppnet_modules():
        # dunder entries such as __warningregistry__ change as warnings fire
        snap[module.__name__] = {k: id(v) for k, v in vars(module).items() if not k.startswith("__")}
    for home, qualname, _, _ in TRACED:
        cls = getattr(sys.modules.get(home), qualname.partition(".")[0], None)
        if "." in qualname and cls is not None:
            snap[f"{home}.{cls.__name__}"] = {k: id(v) for k, v in vars(cls).items()}
    return snap


class Tracer:
    """Context manager that traces the functions in :data:`TRACED`.

    Spans are ``(name index, start, end, parent index or -1)`` tuples in
    ``self.spans``; ``self.names`` maps the index to the span name.
    ``self.missing`` lists traced names the library no longer defines.
    """

    def __init__(self):
        self.names: list[str] = [t[2] for t in TRACED]
        self.spans: list[tuple[int, float, float, int]] = []
        self.counters = Counters()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._before: dict = {}

    def _wrap(self, fn, name_idx: int, hook):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (name_idx, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self._before = snapshot()
        modules = _hcppnet_modules()
        for idx, (home, qualname, _, hook) in enumerate(TRACED):
            owner_name, _, attr = qualname.rpartition(".")
            home_mod = sys.modules.get(home)
            owner = getattr(home_mod, owner_name, None) if owner_name else home_mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{home}.{qualname}")
                continue
            wrapper = self._wrap(original, idx, hook)
            owners = [owner] if owner_name else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()
        if snapshot() != self._before:
            raise RuntimeError("tracing did not restore the library's bindings")

    def layer_totals(self) -> tuple[dict, dict, Counter]:
        """Total seconds, self seconds and calls per span name.

        Self time is a span's duration minus the time its child spans
        cover; calls run on one thread, so children nest without overlap.
        """
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name_idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name_idx, start, end, _) in enumerate(self.spans):
            total[self.names[name_idx]] += end - start
            self_time[self.names[name_idx]] += (end - start) - child[i]
        calls = Counter(self.names[s[0]] for s in self.spans)
        return dict(total), dict(self_time), calls
