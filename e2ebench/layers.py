"""Layer tracing from outside the program: wrap each layer's entry points.

Nothing under ``src/`` is edited.  :class:`LayerTracer` replaces, at
class or module level, the functions through which one layer is
entered -- the public methods, plus the hook methods the layer above
calls (the ones a class overrides from its base) -- with wrappers that
record one span per call: layer, host start, host end and the index of
the enclosing span.  Spans stay in memory while the run lasts and are
written out by :meth:`LayerTracer.write` afterwards.  Each span keeps
the wrapped function's id, so spans map to a layer and to a function.

A layer's *self time* is the total duration of its spans minus the time
their direct child spans cover.  Calls between functions of the same
layer need no wrapper: they already count as that layer's self time.
Generator functions are never wrapped (a wrapper would time only the
creation of the generator); their bodies count towards whichever span
resumes them.  Properties are not wrapped either.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

#: The layers, named after the program's modules.  ``resilience`` and
#: ``faults`` are off the stack of every workload, ``fsck`` runs only in
#: the untimed correctness gate, and ``lint``, ``cli`` and ``analysis``
#: are not on the runtime path, so none of them is traced.
LAYERS = ("vfs", "core", "ffs", "journal", "cache", "blockdev", "disk",
          "engine", "cluster", "obs")

#: (layer, module, class or None for module functions, extra names).
#: For a class, every public function in its own ``__dict__`` is
#: wrapped, plus each private method that overrides one of a base
#: class's (the hooks the layer above calls), plus the extra names.
#: For a module, every public function defined in it is wrapped, or
#: only the extra names when they are given.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("vfs", "repro.vfs.interface", "FileSystem", ()),
    ("core", "repro.core.filesystem", "CFFS", ()),
    ("ffs", "repro.ffs.filesystem", "FFS", ()),
    # The data path both formats share, including the helpers the
    # format subclasses call back into.
    ("ffs", "repro.ffs.base", "BlockFileSystem",
     ("_meta_write", "_gate_freed_blocks", "_release_all_blocks")),
    ("ffs", "repro.ffs.alloc", "GroupedAllocator", ()),
    ("ffs", "repro.ffs.mapping", None,
     ("bmap_lookup", "bmap_ensure", "truncate_blocks")),
    ("journal", "repro.journal.wal", "Journal", ()),
    ("cache", "repro.cache.buffercache", "BufferCache", ()),
    ("blockdev", "repro.blockdev.device", "BlockDevice", ()),
    ("disk", "repro.disk.drive", "SimulatedDisk", ()),
    # The loop calls back into these private methods.
    ("engine", "repro.engine.eventloop", "EventLoop", ()),
    ("engine", "repro.engine.client", "Engine", ("_step",)),
    ("engine", "repro.engine.client", "_CaptureDevice", ()),
    ("engine", "repro.engine.diskqueue", "DiskQueue",
     ("_try_dispatch", "_complete", "_release_and_requeue", "_resubmit")),
    ("cluster", "repro.cluster.core", "Cluster", ("_step", "_take_route_cpu")),
    ("cluster", "repro.cluster.router", "Router", ()),
    ("cluster", "repro.cluster.router", "HashRouter", ()),
    ("cluster", "repro.cluster.router", "UtilizationRouter", ()),
    ("cluster", "repro.cluster.health", "ClusterHealth", ()),
    ("cluster", "repro.cluster.facade", "ClusterFS", ()),
    # The rename legs call these through repro.cluster.core's globals.
    ("cluster", "repro.cluster.intent", None,
     ("durable_write", "durable_unlink")),
    ("cluster", "repro.cluster.core", None,
     ("durable_write", "durable_unlink")),
    ("obs", "repro.obs", None,
     ("span", "record", "incr", "count", "gauge_set", "observe",
      "enabled", "active")),
    ("obs", "repro.obs.metrics", "MetricsRegistry", ()),
    ("obs", "repro.obs.metrics", "Counter", ()),
    ("obs", "repro.obs.metrics", "Gauge", ()),
    ("obs", "repro.obs.metrics", "Histogram", ()),
)


def _plain(value: object) -> Optional[object]:
    """The function behind a class attribute, or None if not wrappable."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if not inspect.isfunction(value) or inspect.isgeneratorfunction(value):
        return None
    return value


def _overrides(cls: type, name: str) -> bool:
    return any(name in vars(base) for base in cls.__mro__[1:]
               if base is not object)


def _class_targets(cls: type, extra: Sequence[str]) -> List[str]:
    names = []
    for name, value in vars(cls).items():
        if name.startswith("__") or _plain(value) is None:
            continue
        if not name.startswith("_") or name in extra or _overrides(cls, name):
            names.append(name)
    return names


def _module_targets(module, extra: Sequence[str]) -> List[str]:
    if extra:
        return list(extra)
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not inspect.isgeneratorfunction(value)]


class LayerTracer:
    """Span recorder plus the wrappers that feed it.

    Use :meth:`install` before building the stack (some hooks are bound
    at construction), set :attr:`recording` around the timed region
    only, and :meth:`uninstall` afterwards.
    """

    def __init__(self) -> None:
        #: Per wrapped function: "owner.name" and its layer index.
        self.names: List[str] = []
        self.layer_of: List[int] = []
        self.fid = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.recording = False
        self._stack: List[int] = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, fid: int):
        perf = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_fid, add_parent = self.fid.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        ends = self.end
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(ends)
            add_fid(fid)
            add_parent(stack[-1])
            add_end(0.0)
            push(idx)
            add_start(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                pop()

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner: object, name: str, lid: int) -> None:
        value = vars(owner)[name]
        fn = _plain(value)
        if fn is None:
            raise TypeError("%r.%s is not a plain function" % (owner, name))
        wrapper = self._wrap(fn, len(self.names))
        self.names.append("%s.%s" % (owner.__name__, name))
        self.layer_of.append(lid)
        if isinstance(value, staticmethod):
            wrapper = staticmethod(wrapper)
        elif isinstance(value, classmethod):
            wrapper = classmethod(wrapper)
        self._saved.append((owner, name, value))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        self.names.clear()
        self.layer_of.clear()
        self.reset()
        for layer, modname, clsname, extra in ENTRY_POINTS:
            lid = LAYERS.index(layer)
            module = importlib.import_module(modname)
            if clsname is None:
                owner: object = module
                names = _module_targets(module, extra)
            else:
                owner = getattr(module, clsname)
                names = _class_targets(owner, extra)
            for name in names:
                self._replace(owner, name, lid)

    def uninstall(self) -> None:
        self.recording = False
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans (keeps the wrappers installed)."""
        for arr in (self.fid, self.parent, self.start, self.end):
            del arr[:]
        del self._stack[1:]

    @property
    def spans(self) -> int:
        return len(self.end)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-layer figures over the recorded spans.

        For each layer: ``calls`` (spans entered from another layer or
        from the benchmark itself, i.e. calls *into* the layer),
        ``spans`` (all of its spans) and ``self_s`` (host seconds of
        self time).  The key ``bench`` holds ``self_s`` outside every
        span: the benchmark loop's own time between its calls into
        the program is the recorded region's wall time minus this sum,
        which the caller knows.
        """
        n = len(self.end)
        start, end, parent, fid = self.start, self.end, self.parent, self.fid
        layer_of = self.layer_of
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
            else:
                roots += end[i] - start[i]
        out = {layer: {"calls": 0, "spans": 0, "self_s": 0.0}
               for layer in LAYERS}
        for i in range(n):
            layer = LAYERS[layer_of[fid[i]]]
            row = out[layer]
            row["spans"] += 1
            row["self_s"] += end[i] - start[i] - child[i]
            p = parent[i]
            if p < 0 or layer_of[fid[p]] != layer_of[fid[i]]:
                row["calls"] += 1
        out["spans"] = {"calls": 0, "spans": n, "self_s": roots}
        return out

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """Write the spans: a JSON header line, then the raw arrays.

        The header names every wrapped function with its layer; the
        arrays follow in the order function id (int32, an index into
        ``functions``), parent span index (-1 at top level), start and
        end (float64 host seconds), each ``count`` long, in native byte
        order -- :func:`read_spans` reads them back.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = dict(meta or {})
        header.update({
            "layers": list(LAYERS), "count": self.spans,
            "functions": [[name, LAYERS[lid]]
                          for name, lid in zip(self.names, self.layer_of)],
            "arrays": ["fid:i", "parent:l", "start:d", "end:d"]})
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(handle)


def read_spans(path: str) -> Tuple[dict, Dict[str, array]]:
    """Load a file written by :meth:`LayerTracer.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        arrays = {}
        for spec in header["arrays"]:
            name, code = spec.split(":")
            arr = array(code)
            arr.fromfile(handle, header["count"])
            arrays[name] = arr
    return header, arrays

