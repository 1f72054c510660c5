"""Outside-in tracing of cstarkit's seven modules, from the benchmark's files.

``Tracer.install()`` replaces every public function of the modules (and the
public methods, plus ``__call__``, of the classes they define) with a
wrapper that records a span: name, start, end, parent span and job id.
Every module attribute that holds the same function object is patched, so
calls made through ``from .algebra import left_regular_matrix`` style
imports are seen too, and so are the handler references in
``cli._HANDLERS``.  ``uninstall()`` puts every original back.

Spans are kept in flat arrays in memory and written out once, at the end of
a run.  Self time is a span's duration minus the time its direct children
cover; spans are strictly nested because the library is single-threaded.
Wrappers record nothing while no job is open.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np

MODULES = ("linalg", "algebra", "spectral", "gelfand", "states", "qm", "cli")

# cli internals reported as groups: argument parsing/loading, report
# emission, and the self time of the cmd_* handlers.
CLI_GROUPS = {
    "cli.parse": ("cli.parse_matrix", "cli.matrix_from_json", "cli._load_json"),
    "cli.emit": ("cli.emit_report", "cli.matrix_to_json"),
}
_PRIVATE_TRACED = {"cli._load_json"}


def _traced_name(module_name: str, name: str) -> bool:
    return not name.startswith("_") or f"{module_name}.{name}" in _PRIVATE_TRACED


class Tracer:
    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current = -1
        self._job = -1
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ patching

    def _modules(self):
        return [getattr(self.package, m) for m in MODULES]

    def _wrap(self, span: str, fn):
        sid = self._name_ids.setdefault(span, len(self._name_ids))
        if sid == len(self.names):
            self.names.append(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job < 0:
                return fn(*args, **kwargs)
            parent = self._current
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(parent)
            self.job_ids.append(self._job)
            self.end.append(0.0)
            self._current = idx
            self.start.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self._current = parent

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrapped: dict[int, object] = {}
        for mod in self._modules():
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if _traced_name(short, name):
                        wrapped[id(obj)] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not attr.startswith("_") or attr == "__call__"):
                            self._patch(obj, attr, fn, self._wrap(f"{short}.{name}.{attr}", fn))
        for mod in [self.package, *self._modules()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, name, obj, wrapped[id(obj)])
        handlers = self.package.cli._HANDLERS
        for key, fn in list(handlers.items()):
            if id(fn) in wrapped:
                handlers[key] = wrapped[id(fn)]
                self._patches.append((handlers, key, fn, wrapped[id(fn)]))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Trace one job: install the wrappers, tag its spans, remove them."""
        self.install()
        self._job = job_id
        try:
            yield
        finally:
            self._job = -1
            self.uninstall()

    # ---------------------------------------------------------- analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job_ids, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_span(self) -> dict[str, dict]:
        """Call count and summed self seconds per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        a = self.arrays()
        pid, cid = self._name_ids[parent_name], self._name_ids[child_name]
        is_child = (a["name_id"] == cid) & (a["parent"] >= 0)
        parents = a["parent"][is_child]
        return int(np.sum(a["name_id"][parents] == pid))
