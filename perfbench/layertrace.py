"""Per-layer host self time, measured from outside the program.

:class:`LayerTracer` wraps the functions and methods each ``repro``
package defines, so that every call that crosses into another layer
opens a span. Generator functions (simulation processes) are timed per
resumption: each ``send``/``throw`` into the generator is one span. A
layer's self time is the time its spans were open minus the time their
child spans (other layers it called) were open; calls that stay inside
one layer open no new span. Time inside the traced region but outside
every layer's span is reported as unattributed.

Wrapping is installed and removed at run time; no file under
``src/repro`` changes. Only plain functions are wrapped: properties and
dunder methods other than ``__init__``/``__call__`` keep their own
code, and their time lands in whichever layer called them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: ``repro.<package>`` -> layer. Packages missing here (``scenarios``,
#: ``baselines``) are set-up code and are not wrapped.
LAYER_OF_PACKAGE = {
    "sim": "sim",
    "net": "net",
    "hosts": "net",
    "ldap": "ldap",
    "replica": "replica",
    "metadata": "metadata",
    "gsi": "gsi",
    "gridftp": "gridftp",
    "rm": "rm",
    "storage": "storage",
    "data": "data",
    "cdat": "cdat",
    "campaign": "campaign",
    "obs": "obs",
    "netlogger": "obs",
    "nws": "nws",
    "mds": "nws",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF_PACKAGE.values()))

#: Label of the span that covers the traced region outside every layer.
UNATTRIBUTED = "unattributed"


class LayerTracer:
    """Span stack with per-layer self-time accounting.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.totals: Dict[str, float] = {}
        # [layer, start, child time] per open span
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- span arithmetic ------------------------------------------------
    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def leave(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_time[layer] = (self.self_time.get(layer, 0.0)
                                 + elapsed - child)
        if self._stack:
            self._stack[-1][2] += elapsed

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        self.self_time.clear()
        self.calls.clear()
        self.totals.clear()

    # -- wrappers -------------------------------------------------------
    def wrap(self, fn: Callable, layer: str,
             count_as: Optional[str] = None,
             measure: Optional[Callable[[object], float]] = None):
        """``fn`` with a span in ``layer`` around each call (or each
        resumption, for a generator function). ``count_as`` names a
        call counter; ``measure`` adds a size taken from each result to
        ``totals[count_as]``."""
        tracer = self
        stack = self._stack
        enter, leave = self.enter, self.leave

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if count_as is not None:
                    tracer.calls[count_as] = \
                        tracer.calls.get(count_as, 0) + 1
                inner = fn(*args, **kwargs)
                send_value, error = None, None
                while True:
                    own = not stack or stack[-1][0] != layer
                    if own:
                        enter(layer)
                    try:
                        if error is None:
                            yielded = inner.send(send_value)
                        else:
                            yielded = inner.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        if own:
                            leave()
                    error = None
                    try:
                        send_value = yield yielded
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # forwarded into fn
                        send_value, error = None, exc
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_as is not None:
                tracer.calls[count_as] = tracer.calls.get(count_as, 0) + 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
            if measure is not None:
                tracer.totals[count_as] = (tracer.totals.get(count_as, 0.0)
                                           + measure(result))
            return result
        return traced

    # -- installation over the repro packages -----------------------------
    def install(self, counted: Optional[Dict[str, tuple]] = None) -> None:
        """Wrap every function and method the layer packages define.

        ``counted`` maps a qualified name (``"repro.data.ncformat.
        SdbfReader.read_slab"``) to ``(counter name, measure or None)``.
        Modules must already be imported.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        counted = counted or {}
        replaced: Dict[int, Tuple[object, object]] = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("repro.") and m is not None]
        for module in modules:
            layer = LAYER_OF_PACKAGE.get(module.__name__.split(".")[1])
            if layer is None:
                continue
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer, counted)
                elif isinstance(obj, types.FunctionType):
                    key = f"{module.__name__}.{attr}"
                    count_as, measure = counted.get(key, (None, None))
                    wrapped = self.wrap(obj, layer, count_as, measure)
                    replaced[id(obj)] = (obj, wrapped)
        # Rebind module-level functions wherever they were imported.
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, obj, hit[1])

    def _wrap_class(self, cls: type, layer: str, counted: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr not in ("__init__",
                                                      "__call__"):
                continue
            key = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            count_as, measure = counted.get(key, (None, None))
            if isinstance(obj, types.FunctionType):
                new = self.wrap(obj, layer, count_as, measure)
            elif isinstance(obj, staticmethod):
                new = staticmethod(self.wrap(obj.__func__, layer,
                                             count_as, measure))
            elif isinstance(obj, classmethod):
                new = classmethod(self.wrap(obj.__func__, layer,
                                            count_as, measure))
            else:
                continue
            self._patch(cls, attr, obj, new)

    def _patch(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- traced region --------------------------------------------------
    @contextlib.contextmanager
    def region(self):
        """The traced phase; its own self time is the unattributed
        remainder."""
        self.enter(UNATTRIBUTED)
        try:
            yield self
        finally:
            self.leave()
