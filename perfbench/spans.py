"""In-memory span tracer that times nvpol's layers from outside the package.

``Tracer.install()`` replaces every binding of each target function in the
loaded ``nvpol`` modules (the defining module and every ``from ... import``
copy) with a timing wrapper, and ``uninstall()`` puts the originals back.
Nothing inside ``src/nvpol`` is edited.

A span records its name, start, end, parent and thread.  Spans opened by a
sweep's pool threads have no parent on their own thread; they attach to the
enclosing ``sweep.scan`` span.  Spans stay in memory until ``dump()``.
"""

import contextlib
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n4_bytes(args, kwargs, result):
    n = args[0].shape[0]
    return {"bytes": n**4 * 16}


def _threads(args, kwargs, result):
    return {"threads": kwargs.get("threads", args[1] if len(args) > 1 else 1)}


def _converged(args, kwargs, result):
    return {"converged": bool(result.converged)}


def _lm_result(args, kwargs, result):
    return {"converged": bool(result[3]), "n_iter": int(result[4])}


# (module whose binding the callers use, attribute, span name, attrs from
# (args, kwargs, result)).  Every other nvpol binding of the same function
# object is wrapped too.
TARGETS = (
    ("nvpol.config", "load_config", "config.load", None),
    ("nvpol.model", "calibrate_pump", "model.calibrate", None),
    ("nvpol.model", "build_hamiltonian", "model.hamiltonian", None),
    ("nvpol.model", "build_collapse_ops", "model.collapse", None),
    ("nvpol.model", "liouvillian", "model.liouvillian", _n4_bytes),
    ("nvpol.model", "liouvillian_dense", "model.liouvillian_dense", None),
    ("nvpol.solver", "steady_state", "solver.steady_state", None),
    ("nvpol.solver", "nuclear_polarization", "solver.observable", None),
    ("nvpol.solver", "electron_polarization", "solver.observable", None),
    ("nvpol.sweep", "sweep_field", "sweep.scan", _threads),
    ("nvpol.sweep", "scan_field_strain", "sweep.scan", _threads),
    ("nvpol.sweep", "solve_point", "sweep.point", None),
    ("nvpol.sweep", "strain_averaged_polarization", "sweep.strain_avg", None),
    ("nvpol.odmr", "fit_spectrum", "odmr.fit", _converged),
    ("nvpol.odmr", "fit_strain_distribution", "odmr.fit", _converged),
    ("nvpol.odmr", "_lm_least_squares", "odmr.lm", _lm_result),
    ("nvpol.odmr", "multi_lorentzian", "odmr.model", None),
    ("nvpol.odmr", "multi_lorentzian_jac", "odmr.jac", None),
    ("nvpol.odmr", "esodmr_lineshape", "odmr.lineshape", None),
)

# spans whose pool-thread work attaches to them
POOL_PARENTS = frozenset({"sweep.scan"})


def _nvpol_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "nvpol" or k.startswith("nvpol."))]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None
        self._patched = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs=None) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self._pool_parent
        span = Span(next(self._ids), name, parent, threading.current_thread().name,
                    time.perf_counter(), attrs=dict(attrs or {}))
        stack.append(span)
        if name in POOL_PARENTS:
            span.attrs["_outer_pool_parent"] = self._pool_parent
            self._pool_parent = span.id
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name in POOL_PARENTS:
            self._pool_parent = span.attrs.pop("_outer_pool_parent")
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself."""
        span = self._open(name, attrs)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _wrap(self, fn, name, attrs_of):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every nvpol binding of every target."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        self.missing = []
        for mod_name, attr, name, attrs_of in TARGETS:
            mod = sys.modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrappers.setdefault(id(fn), (fn, self._wrap(fn, name, attrs_of)))
        for mod in _nvpol_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to the call it wraps (a no-op here)."""
    def noop():
        return None

    traced = Tracer()._wrap(noop, "probe", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


# -- analysis ----------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    def __init__(self, spans):
        self.by_id = {s.id: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def descendants(self, span):
        out = []
        todo = list(self.children.get(span.id, ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s.id, ()))
        return out

    def has_ancestor(self, span, name: str) -> bool:
        p = self.by_id.get(span.parent)
        while p is not None:
            if p.name == name:
                return True
            p = self.by_id.get(p.parent)
        return False

    def self_time(self, span, exclude_names=None) -> float:
        """Span duration minus the time its children (or, given
        exclude_names, its descendants of those names) cover."""
        if exclude_names is None:
            kids = self.children.get(span.id, ())
        else:
            kids = [d for d in self.descendants(span) if d.name in exclude_names]
        return span.duration - covered([(k.start, k.end) for k in kids], span.start, span.end)
