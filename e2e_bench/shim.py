"""Tracing shim: run a program entry point with its layers wrapped in spans.

Usage::

    E2E_SPAN_DIR=DIR E2E_ROLE=NAME python shim.py MODULE:FUNCTION [ARGS...]

runs ``FUNCTION`` from ``MODULE`` the way a console script does
(``sys.argv`` becomes ``[MODULE, *ARGS]``), after installing an import
hook that wraps each function in :data:`TARGETS` with a
``time.perf_counter`` span as soon as its module finishes loading.
Wrapping at load time keeps import order and cost as they are: a module
the program imports lazily is still imported lazily.  Process-pool
children forked later inherit the wrapped functions.

Each span records its layer, start, end, parent span and request id
(plus a few counts, such as simulator events).  Spans stay in memory
and are written to ``DIR/spans-<pid>.json`` when the process exits,
forked pool workers included.  Each file lists the targets wrapped in that process;
a target whose module or attribute no longer exists is skipped.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import importlib.abc
import inspect
import json
import os
import sys
import time

#: (module, attribute path, layer name).
TARGETS = (
    ("repro.experiments.runner", "run_request", "runner.run_request"),
    ("repro.parallel.engine", "SweepEngine.map", "parallel.map"),
    ("repro.parallel.engine", "pmap", "parallel.map"),
    ("repro.core.autotune", "AutoTuner.evaluate", "autotune.evaluate"),
    ("repro.core.schedule.executor", "ScheduleExecutor.run_cpu_only",
     "schedule.run"),
    ("repro.core.schedule.executor", "ScheduleExecutor.run_basic",
     "schedule.run"),
    ("repro.core.schedule.executor", "ScheduleExecutor.run_advanced",
     "schedule.run"),
    ("repro.core.schedule.executor",
     "ScheduleExecutor.run_advanced_parallel_tail", "schedule.run"),
    ("repro.core.schedule.executor", "ScheduleExecutor.run_advanced_multi",
     "schedule.run"),
    ("repro.core.schedule.macro", "try_macro_cpu_only", "schedule.macro"),
    ("repro.core.schedule.macro", "try_macro_basic", "schedule.macro"),
    ("repro.core.schedule.macro", "try_macro_advanced", "schedule.macro"),
    ("repro.sim.engine", "Simulator.run", "sim.run"),
    ("repro.core.model.advanced", "AdvancedModel.optimize", "model.optimize"),
    ("repro.core.model.oracle", "advanced_report", "model.oracle"),
    ("repro.core.model.oracle", "basic_report", "model.oracle"),
    ("repro.obs.manifest", "RunManifest.write", "obs.manifest_write"),
    ("repro.obs.index", "append_entry", "obs.index_append"),
    ("repro.obs.index", "load_index", "obs.index_load"),
    ("repro.serve.protocol", "validate_request", "serve.protocol"),
    ("repro.serve.protocol", "canonical_request", "serve.protocol"),
    ("repro.serve.cache", "cache_key", "serve.protocol"),
    ("repro.serve.cache", "ResultCache.refresh", "serve.cache.refresh"),
    ("repro.serve.daemon", "JobDaemon.submit", "serve.submit"),
    ("repro.serve.worker", "execute_job", "serve.worker.execute_job"),
)

_SPANS: list = []
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None
)
_WRAPPED: list = []
_STATE = {"pid": os.getpid(), "t_start": time.perf_counter()}


def _extra(layer, args, result) -> dict:
    """Per-layer counts recorded on a finished span."""
    if layer == "sim.run":
        return {"events": getattr(args[0], "events_processed", 0)}
    if layer == "schedule.macro":
        return {"hit": result is not None}
    if layer == "obs.index_load":
        return {"lines": len(result) if result is not None else 0}
    if layer == "serve.submit" and result is not None:
        return {
            "rid": getattr(result, "job_id", None),
            "cache_hit": bool(getattr(result, "cache_hit", False)),
        }
    return {}


def _rid(layer, args):
    if layer == "serve.worker.execute_job" and args:
        spec = args[0].get("spec") if isinstance(args[0], dict) else None
        return getattr(spec, "correlation_id", None)
    return None


def _open(layer, args):
    start_events = None
    if layer == "sim.run" and args:
        start_events = getattr(args[0], "events_processed", 0)
    span = {
        "i": len(_SPANS),
        "layer": layer,
        "t0": time.perf_counter(),
        "wall0": time.time(),
        "parent": _CURRENT.get(),
        "rid": _rid(layer, args),
    }
    _SPANS.append(span)
    return span, span["i"], start_events


def _close(span, layer, args, result, start_events):
    span["t1"] = time.perf_counter()
    extra = _extra(layer, args, result)
    if start_events is not None:
        extra["events"] = extra["events"] - start_events
    span.update(extra)


def _wrap(fn, layer):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span, index, start_events = _open(layer, args)
            token = _CURRENT.set(index)
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                _CURRENT.reset(token)
                _close(span, layer, args, result, start_events)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, index, start_events = _open(layer, args)
        token = _CURRENT.set(index)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _CURRENT.reset(token)
            _close(span, layer, args, result, start_events)

    return wrapper


def _patch(module) -> None:
    for module_name, path, layer in TARGETS:
        if module_name != module.__name__:
            continue
        owner = module
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None or not callable(fn):
            continue
        setattr(owner, attr, _wrap(fn, layer))
        _WRAPPED.append(f"{module_name}.{path}")


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds target modules with the other finders, then wraps their
    targets right after the module body has run."""

    _modules = frozenset(module for module, _path, _layer in TARGETS)

    def find_spec(self, name, path, target=None):
        if name not in self._modules:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        exec_module = loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(module)

        loader.exec_module = exec_and_patch
        return spec


def _dump() -> None:
    if os.getpid() != _STATE["pid"]:
        return
    out_dir = os.environ.get("E2E_SPAN_DIR")
    if not out_dir:
        return
    record = {
        "pid": os.getpid(),
        "ppid": os.getppid(),
        "role": os.environ.get("E2E_ROLE", ""),
        "t_start": _STATE["t_start"],
        "t_exit": time.perf_counter(),
        "wrapped": sorted(set(_WRAPPED)),
        "spans": [s for s in _SPANS if "t1" in s],
    }
    path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)


def _after_fork_in_child() -> None:
    """A forked child starts with an empty span list of its own."""
    _SPANS.clear()
    _CURRENT.set(None)
    _STATE["pid"] = os.getpid()
    _STATE["t_start"] = time.perf_counter()


class _ForkHook:
    """Weak-referenceable owner of the multiprocessing after-fork hook."""


_FORK_HOOK = _ForkHook()


def _register_worker_dump(_owner) -> None:
    # Pool workers leave through os._exit, which skips atexit; the
    # multiprocessing finalizers still run on the way out.
    import multiprocessing.util as mp_util

    mp_util.Finalize(None, _dump, exitpriority=100)


def install() -> None:
    """Install the import hook and the exit-time span writers."""
    import multiprocessing.util as mp_util

    sys.meta_path.insert(0, _PatchingFinder())
    atexit.register(_dump)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    mp_util.register_after_fork(_FORK_HOOK, _register_worker_dump)


def main() -> None:
    if len(sys.argv) < 2 or ":" not in sys.argv[1]:
        raise SystemExit("usage: shim.py MODULE:FUNCTION [ARGS...]")
    module_name, func_name = sys.argv[1].split(":", 1)
    install()
    t0 = time.perf_counter()
    module = importlib.import_module(module_name)
    _SPANS.append(
        {
            "i": len(_SPANS),
            "layer": "import",
            "t0": t0,
            "wall0": time.time(),
            "t1": time.perf_counter(),
            "parent": None,
            "rid": None,
            "module": module_name,
        }
    )
    sys.argv = [module_name] + sys.argv[2:]
    sys.exit(getattr(module, func_name)())


if __name__ == "__main__":
    main()
