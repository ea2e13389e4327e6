"""Per-layer tracing from outside the library.

`Tracer.install` replaces the public functions and methods of each library
module with wrappers, rebinding every name under which another hyptorsion
module imported them, and `uninstall` puts the originals back.  A call opens
a span only where it enters a layer from another one; calls a layer makes
into itself run unwrapped apart from a counter, so a layer's self time is its
span time minus the time covered by its child spans.  Spans are aggregated
as they close rather than stored, because a census round makes millions of
kernel calls.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Layers, innermost first, with the modules that make them up.  `cli` has no
# wrapped functions: each operation opens its root span.
LAYERS = (
    ("kernels", ("_kernel_py", "_kernel", "kernels")),
    ("fields", ("fields",)),
    ("polyring", ("polyring",)),
    ("jacobian", ("jacobian",)),
    ("torsion", ("torsion",)),
    ("families", ("families",)),
    ("pairing", ("pairing",)),
    ("numth", ("numth",)),
    ("cli", ()),
)

# Dunder methods that do library work and so are wrapped like public ones.
_DUNDERS = {"__init__", "__post_init__", "__call__", "__add__", "__sub__",
            "__mul__", "__neg__", "__divmod__", "__floordiv__", "__mod__",
            "__pow__"}

# Functions whose inclusive time is kept, under a group name; nested calls
# within the same group are timed once, at the outermost one.
_GROUPS = {
    "fields.field_make": "fields.make",
    "fields.PrimeField.__init__": "fields.make",
    "fields.ExtField.__init__": "fields.make",
    "polyring.is_squarefree": "polyring.is_squarefree",
    "pairing.root_field": "pairing.root_field",
    "pairing.weil_closed": "pairing.weil_closed",
    "families.find_good_mu": "families.find_good_mu",
}

# u_pair calls made inside a find_good_mu scan are the mu candidates tried.
_MU_TRIED = {"families.CoprimeTemplate.u_pair", "families.CharTemplate.u_pair",
             "families._FixedPair.u_pair"}

TWIN_EVERY = 97
TWIN_MAX = 400


def _mulmod_cost(la, lb, lm):
    prod = la + lb - 1 if la and lb else 0
    return la * lb + max(0, prod - lm + 1) * lm


def coeff_mults(name, args):
    """Coefficient multiplications of one kernel call, computed from operand
    lengths (schoolbook products, long division; Euclid counted as three
    products of the operand lengths)."""
    if name == "pmul":
        return len(args[0]) * len(args[1])
    if name == "pdivmod":
        return max(0, len(args[0]) - len(args[1]) + 1) * len(args[1])
    if name == "pmulmod":
        return _mulmod_cost(len(args[0]), len(args[1]), len(args[2]))
    if name == "ppowmod":
        e, d = args[1], len(args[2]) - 1
        return (e.bit_length() + bin(e).count("1")) * _mulmod_cost(d, d, d + 1)
    if name in ("pxgcd", "pinvmod"):
        return 3 * len(args[0]) * len(args[1])
    if name == "pgcd":
        return len(args[0]) * len(args[1])
    if name in ("pscale", "peval", "pmonic"):
        return len(args[0])
    return 0


def _copy(obj):
    if isinstance(obj, list):
        return [_copy(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_copy(x) for x in obj)
    return obj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stack = []            # open spans: [layer, time covered by children]
        self.self_s = defaultdict(float)
        self.entries = defaultdict(int)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.incl = defaultdict(float)
        self.depth = defaultdict(int)
        self.counters = defaultdict(int)
        self.twin_samples = []
        self._kernel_entries = 0
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def root(self, layer, fn, *args):
        """Run fn as the root span of one operation."""
        return self._span(layer, layer, fn, args, {}, None, True, None)

    def _span(self, layer, key, fn, args, kwargs, group, entering, on_entry):
        stack = self.stack
        if entering:
            self.entries[layer] += 1
            if on_entry is not None:
                on_entry(args)
            stack.append([layer, 0.0])
        if group is not None:
            self.depth[group] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[key] += 1
            raise
        finally:
            dur = perf_counter() - start
            if group is not None:
                self.depth[group] -= 1
                if not self.depth[group]:
                    self.incl[group] += dur
            if entering:
                covered = stack.pop()[1]
                self.self_s[layer] += dur - covered
                if stack:
                    stack[-1][1] += dur

    def _wrap(self, layer, key, fn, entry_only=False, on_entry=None):
        tracer = self
        group = _GROUPS.get(key)
        count_mu = key in _MU_TRIED

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        stack = tracer.stack
                        entering = not stack or stack[-1][0] != layer
                        try:
                            item = tracer._span(layer, key, next, (it,), {},
                                                None, entering, None)
                        except StopIteration:
                            return
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            entering = not stack or stack[-1][0] != layer
            if entering or not entry_only:
                tracer.calls[key] += 1
            if count_mu and tracer.depth["families.find_good_mu"]:
                tracer.counters["families.mu_tried"] += 1
            if not entering and group is None:
                return fn(*args, **kwargs)
            return tracer._span(layer, key, fn, args, kwargs, group, entering,
                                on_entry)
        return wrapper

    def _kernel_hook(self, name, compiled):
        def on_entry(args):
            self.counters["kernels.coeff_mults"] += coeff_mults(name, args)
            self._kernel_entries += 1
            if (compiled and self._kernel_entries % TWIN_EVERY == 0
                    and len(self.twin_samples) < TWIN_MAX):
                self.twin_samples.append((name, _copy(args)))
        return on_entry

    # -- installation --------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package.__name__
                                      or name.startswith(prefix))]

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original, wrapped):
        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    self._set(mod, name, wrapped)

    def install(self):
        pkg = self.package.__name__
        for layer, modnames in LAYERS:
            for modname in modnames:
                mod = sys.modules.get(f"{pkg}.{modname}")
                if mod is None:
                    continue
                if layer == "kernels":
                    self._install_kernel(mod)
                    continue
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                        if not name.startswith("_"):
                            self._rebind(obj, self._wrap(layer, f"{layer}.{name}", obj))
                    elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                        self._install_class(layer, mod, obj)

    def _install_kernel(self, mod):
        compiled = bool(getattr(mod, "IS_COMPILED", False))
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not callable(obj) or inspect.isclass(obj) \
                    or inspect.ismodule(obj):
                continue
            if getattr(obj, "__module__", mod.__name__) != mod.__name__:
                continue
            wrapped = self._wrap("kernels", f"kernels.{name}", obj, entry_only=True,
                                 on_entry=self._kernel_hook(name, compiled))
            self._rebind(obj, wrapped)

    def _install_class(self, layer, mod, cls):
        source = getattr(mod, "__file__", None)
        for name, attr in list(cls.__dict__.items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
            if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
                continue
            wrapped = self._wrap(layer, f"{layer}.{cls.__name__}.{name}", fn)
            if isinstance(attr, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(wrapped)
            self._set(cls, name, wrapped)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
