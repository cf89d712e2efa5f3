"""Outside-in tracing of the engine's layers.

`Tracer.install` wraps every public module-level function of each layer
module (`rfhomology.exactlin`, `.novikov`, ...) and rebinds *every* module
attribute and module-level dict value that refers to the same function
object.  `from .exactlin import solve` copies the function into the
importing module's namespace, so patching only `exactlin.solve` would leave
the calls made from `chaincplx` and `rfh` untimed.

Each call records one span `(name, start, end, parent span, operation id)`
in memory.  A few functions also feed argument- and result-derived counters
(repeat, triviality and density of Smith-form inputs, entry growth, ...).
The counters run after the wrapped call has returned, under a span of
their own named `trace.count`, so their cost is subtracted from the
caller's self time and lands only in the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("exactlin", "novikov", "chaincplx", "basemodel", "rfh", "cli")
PACKAGE = "rfhomology"
COUNT_SPAN = "trace.count"


def _matrix_key(A) -> tuple:
    return (A.rows, A.cols, A.entries)


def _max_bits(entries) -> int:
    if not entries:
        return 0
    return max(max(entries), -min(entries)).bit_length()


class Counters:
    """Argument- and result-derived counts of one traced pass."""

    def __init__(self):
        self.snf_seen: set = set()
        self.snf_calls = 0
        self.snf_repeats = 0
        self.snf_trivial = 0
        self.snf_nonzero = 0
        self.snf_entries = 0
        self.snf_max_dim = 0
        self.max_entry_bits = 0
        self.hb_seen: set = set()
        self.hb_calls = 0
        self.hb_repeats = 0
        self.cap_seen: set = set()
        self.cap_calls = 0
        self.cap_repeats = 0
        self.generators_out = 0

    def smith_normal_form(self, args, kwargs, result) -> None:
        A = args[0] if args else kwargs["A"]
        key = _matrix_key(A)
        self.snf_calls += 1
        if key in self.snf_seen:
            self.snf_repeats += 1
        else:
            self.snf_seen.add(key)
        size = A.rows * A.cols
        nonzero = size - A.entries.count(0)
        if nonzero == 0:
            self.snf_trivial += 1
        self.snf_nonzero += nonzero
        self.snf_entries += size
        self.snf_max_dim = max(self.snf_max_dim, A.rows, A.cols)
        self.max_entry_bits = max(self.max_entry_bits, _max_bits(result.U.entries),
                                  _max_bits(result.D.entries), _max_bits(result.V.entries))

    def homology_basis(self, args, kwargs, result) -> None:
        C, d = args[0], args[1]
        key = (_matrix_key(C.boundary_at(d)), _matrix_key(C.boundary_at(d + 1)))
        self.hb_calls += 1
        if key in self.hb_seen:
            self.hb_repeats += 1
        else:
            self.hb_seen.add(key)

    def cap_lambda_matrix(self, args, kwargs, result) -> None:
        model, m = args[0], args[1]
        try:
            key = hash((model, m))
        except TypeError:          # models with matrix-valued fields
            key = hash((repr(model), m))
        self.cap_calls += 1
        if key in self.cap_seen:
            self.cap_repeats += 1
        else:
            self.cap_seen.add(key)

    def enumerate_generators(self, args, kwargs, result) -> None:
        self.generators_out += len(result)

    def hooks(self) -> dict:
        return {
            "exactlin.smith_normal_form": self.smith_normal_form,
            "chaincplx.homology_basis": self.homology_basis,
            "basemodel.cap_lambda_matrix": self.cap_lambda_matrix,
            "rfh.enumerate_generators": self.enumerate_generators,
        }


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent, op id)
        self.stack: list[int] = []
        self.op = -1
        self.counters = Counters()
        self._undo: list = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.op)
            if hook is not None:
                hook(args, kwargs, result)
                spans.append((COUNT_SPAN, t1, clock(), parent, self.op))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions in every engine module."""
        hooks = self.counters.hooks()
        wrappers: dict[int, object] = {}
        keep = []                  # originals stay alive, so ids stay unique
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
                keep.append(obj)
        for mname, mod in list(sys.modules.items()):
            if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._undo.append((setattr, mod, attr, obj))
                    setattr(mod, attr, w)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        w = wrappers.get(id(val))
                        if w is not None:
                            self._undo.append((dict.__setitem__, obj, key, val))
                            obj[key] = w

    def uninstall(self) -> None:
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)

    def begin_pass(self) -> None:
        """Drop the previous pass's spans and counters."""
        self.spans.clear()
        self.counters = Counters()

    # -- derived numbers -----------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Self time and call count per span name.  A span's self time is
        its duration minus the durations of its children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, t0, t1, _, _), nested in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - nested
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def write(self, path) -> None:
        """One JSON array per span; times in microseconds from the first
        span's start."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.writelines(
                f'["{name}",{(t0 - base) * 1e6:.1f},{(t1 - base) * 1e6:.1f},{parent},{op}]\n'
                for name, t0, t1, parent, op in self.spans)
