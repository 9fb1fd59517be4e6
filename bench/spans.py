"""In-memory span tracing of lpsflow's public functions and methods.

``Tracer.install`` wraps every function and every public method of a class
that an lpsflow module defines and lists in its ``__all__``, plus the operator
constructor that the set-up metrics need. A function imported by name into another
module (``app`` imports ``compute_record``, ``stepper`` imports
``divergence_norm`` and the boundary functions, ...) is replaced in every
namespace where it is looked up, so a call through any of them is recorded.
A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1; spans stay in memory until ``summary`` aggregates them.
"""

import enum
import functools
import inspect
import time

# Constructors wrapped on top of the public surface: their cost is set-up.
EXTRA_METHODS = {"operators.GlobalOperators": ("__init__",)}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package, modules, skip=()):
        """Wrap the public surface of ``modules`` (short module names).

        Span names in ``skip`` stay unwrapped: the caller records them.
        """
        mods = {short: getattr(package, short) for short in modules}
        namespaces = [package] + list(mods.values())
        for short, mod in mods.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{short}.{name}", obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(
                        obj, (BaseException, enum.Enum)):
                    self._install_class(f"{short}.{name}", obj, skip)

    def _install_class(self, prefix, cls, skip):
        extra = EXTRA_METHODS.get(prefix, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{prefix}.{attr}"
            if name in skip:
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(name, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation -----------------------------------------------------------

    def summary(self, step_name):
        """Per span name: calls, total and self seconds, and the calls and
        seconds that ran inside a ``step_name`` span.

        Self time is a span's duration minus the durations of its direct
        children; children of one span run one after another, so they never
        overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        in_step = [False] * len(spans)
        out = {}
        # A parent is recorded before its children, so one forward pass
        # settles in_step and a second one the self times.
        for i, (name, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_step[i] = in_step[parent] or spans[parent][0] == step_name
        for i, (name, t0, t1, parent) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "in_step_calls": 0, "in_step_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
            if in_step[i]:
                row["in_step_calls"] += 1
                row["in_step_s"] += t1 - t0
        return out
