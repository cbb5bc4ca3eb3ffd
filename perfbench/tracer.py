"""Spans around calls into ssrna's public functions, installed from outside.

A traced operation replaces every module attribute through which a public
function of a layer is reached (``montecarlo.brownian_increments`` as well as
``simulator.brownian_increments``) with a wrapper that records a span and
passes arguments and return values through untouched.  Spans stay in memory
and are written out when the operation ends; self times are computed from
them afterwards.  Untraced operations install nothing.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
import types
from dataclasses import dataclass, field

LAYERS = ("cli", "montecarlo", "simulator", "stability", "linearization", "model_core", "serialize")

# serialize.fmt formats a single number and runs once per value written; a
# span per call would cost more than the writers whose spans already hold it.
UNTRACED = frozenset({"serialize.fmt"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _increment_key(args, kwargs, result):
    names = ("master_seed", "replicate", "coordinate", "n_steps", "dt")
    key = [_arg(args, kwargs, i, n) for i, n in enumerate(names)]
    return {"work": key[3], "key": key}


def _file_bytes(index):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(_arg(args, kwargs, index, "path"))}


def _steps(result, dt):
    # the last recorded step is always the final one
    return round(float(result.times[-1]) / dt)


def _path_steps(cfg_index):
    return lambda args, kwargs, result: {"work": _steps(result, _arg(args, kwargs, cfg_index, "cfg").dt)}


def _ensemble_rsteps(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"work": cfg.replicates * _steps(result, cfg.sim.dt)}


# Extra facts a span carries, computed after its end stamp: work done
# (draws, steps, replicate-steps), bytes written, and the stream key.
HOOKS = {
    "simulator.brownian_increments": _increment_key,
    "simulator.integrate_ode": _path_steps(1),
    "simulator.integrate_sde": _path_steps(3),
    "montecarlo.run_ensemble": _ensemble_rsteps,
    "simulator.write_trajectory_csv": _file_bytes(1),
    "montecarlo.write_ensemble_csv": _file_bytes(1),
    "montecarlo.write_sweep_csv": _file_bytes(1),
    "serialize.dumps": lambda args, kwargs, result: {"bytes": len(result.encode())},
}


def public_functions() -> dict[str, types.FunctionType]:
    """``layer.name`` -> function, for functions a layer defines without a leading underscore."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ssrna.{layer}")
        for name, obj in vars(module).items():
            qualified = f"{layer}.{name}"
            if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                    and not name.startswith("_") and qualified not in UNTRACED):
                found[qualified] = obj
    return found


class Tracer:
    """Records one operation's spans: name, start and end (CLOCK_MONOTONIC ns),
    the enclosing span, the operation id and the hook's extra facts."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list = []
        self._stack = threading.local()
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions().items()}
        for modname, module in list(sys.modules.items()):
            if modname != "ssrna" and not modname.startswith("ssrna."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def export(self) -> list:
        """Spans as (name, start_ns, end_ns, parent_index, op_id, extra) tuples."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            (name, start, end, -1 if parent is None else index[id(parent)], op_id, extra)
            for name, start, end, parent, op_id, extra in self.spans
        ]

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans = self.spans
        op_id = self.op_id
        local = self._stack
        clock = time.monotonic_ns

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0, 0, stack[-1] if stack else None, op_id, None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper


# ---------------------------------------------------------------------------
# analysis of recorded spans


@dataclass
class FunctionStats:
    calls: int = 0
    s: float = 0.0        # inclusive time of outermost calls
    self_s: float = 0.0   # time not covered by child spans
    work: int = 0
    bytes: int = 0
    keys: set = field(default_factory=set)


def _covered(intervals: list[tuple[int, int]]) -> int:
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def function_stats(spans: list) -> dict[str, FunctionStats]:
    """Aggregate one operation's spans by name; parents index into the same list."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _op, _extra in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats: dict[str, FunctionStats] = {}
    for index, (name, start, end, parent, _op, extra) in enumerate(spans):
        st = stats.setdefault(name, FunctionStats())
        st.calls += 1
        st.self_s += (end - start - _covered(children.get(index, []))) * 1e-9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            st.s += (end - start) * 1e-9
        if extra:
            st.work += extra.get("work", 0)
            st.bytes += extra.get("bytes", 0)
            if "key" in extra:
                st.keys.add(tuple(extra["key"]))
    return stats

