"""Per-module span tracer for the cavityghz package, installed from outside it.

Every public function and every public method or property of a class defined
in one of the layer modules is replaced by a wrapper.  A name bound in
several modules (``from .zeno import bright_state``) is replaced everywhere a
``cavityghz`` module bound it; class attributes are patched on the class.
``uninstall`` puts every original object back.

A call into a layer from another layer opens a span; calls nested inside the
same layer are merged into the enclosing span.  A layer's self time is the
sum of its span durations minus the time covered by child spans, so the self
times of all layers add up to the duration of the outermost span.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import numpy as np

PACKAGE = "cavityghz"
LAYERS = ("cli", "experiments", "hilbert", "model", "zeno", "pulses", "dynamics", "observables")

# Parameter names that carry drive sample times into the pulses layer.
TIME_PARAMS = ("t", "t_vec", "times")
# Names the per-layer counters are read from; reported as absent when missing.
COUNTER_NAMES = (
    "cli.main",
    "experiments.write_result",
    "hilbert.HilbertSpace",
    "pulses.stirap_components",
    "dynamics.evolve_schrodinger",
    "dynamics.evolve_schrodinger_batch",
    "dynamics.evolve_lindblad_batch",
)


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer):
        self.layer = layer
        self.child = 0.0


class LayerStats:
    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # span times are read from this clock
        self.modules = {}
        self.absent_modules = []
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent_modules.append(layer)
        self._patches = []  # (owner, attribute, original object)
        self.wrapped = set()
        self.reset()

    def reset(self):
        self.stack = []
        self.layers = {layer: LayerStats() for layer in LAYERS}
        self.root_time = {}  # qualified name -> inclusive time of spans it opened
        self.samples = 0
        self.cell_steps = 0
        self.cell_steps_unknown = 0
        self.state_bytes = 0
        self.basis_dim = 0

    # --- installation ---------------------------------------------------

    def install(self):
        space_cls = getattr(self.modules.get("hilbert"), "HilbertSpace", None)
        owners = [m for name, m in sys.modules.items()
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, layer, f"{layer}.{name}", space_cls)
                    for owner in owners:
                        for attr, val in list(vars(owner).items()):
                            if val is obj:
                                self._patch(owner, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self.wrapped.add(f"{layer}.{name}")
                    self._install_class(obj, layer, f"{layer}.{name}", space_cls)

    def _install_class(self, cls, layer, qual, space_cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{qual}.{name}"
            if inspect.isfunction(attr):
                new = self._wrap(attr, layer, label, space_cls)
            elif isinstance(attr, (staticmethod, classmethod)):
                new = type(attr)(self._wrap(attr.__func__, layer, label, space_cls))
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(attr.fget, layer, label, space_cls),
                               attr.fset, attr.fdel, attr.__doc__)
            else:
                continue
            self._patch(cls, name, new)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- spans ------------------------------------------------------------

    def _wrap(self, fn, layer, label, space_cls):
        self.wrapped.add(label)
        tracer = self
        signature = inspect.signature(fn)
        params = list(signature.parameters)
        time_pos = next(((i, p) for i, p in enumerate(params) if p in TIME_PARAMS), None)
        counts_steps = layer == "dynamics" and ("steps" in params or "grid" in params)

        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(layer)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats = tracer.layers[layer]
                stats.calls += 1
                stats.self_s += elapsed - frame.child
                if stack:
                    stack[-1].child += elapsed
                tracer.root_time[label] = tracer.root_time.get(label, 0.0) + elapsed
            if time_pos is not None:
                i, name = time_pos
                t = args[i] if i < len(args) else kwargs.get(name)
                if t is not None:
                    tracer.samples += int(np.size(t))
            if counts_steps:
                tracer._count_steps(signature, args, kwargs, result)
            if space_cls is not None and isinstance(result, space_cls):
                tracer.basis_dim = max(tracer.basis_dim, result.dim)
            return result

        return wrapper

    def _count_steps(self, signature, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = bound.arguments
        steps = arguments.get("steps")
        if steps is None and arguments.get("grid") is not None:
            steps = getattr(arguments["grid"], "steps", None)
        if isinstance(steps, (int, np.integer)):
            t_end = arguments.get("t_end")
            cells = int(np.size(t_end)) if t_end is not None and np.ndim(t_end) else 1
            self.cell_steps += cells * int(steps)
        else:
            self.cell_steps_unknown += 1
        self.state_bytes += _state_bytes(result)

    # --- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded since the last reset."""
        out = {f"{layer}.self_s": s.self_s for layer, s in self.layers.items()}
        pulses = self.layers["pulses"]
        dynamics = self.layers["dynamics"]
        out.update({
            "pulses.calls": pulses.calls,
            "pulses.samples": self.samples,
            "pulses.samples_per_call": self.samples / pulses.calls if pulses.calls else 0.0,
            "model.calls": self.layers["model"].calls,
            "dynamics.cell_steps": self.cell_steps,
            "dynamics.ns_per_cell_step": (
                1e9 * dynamics.self_s / self.cell_steps if self.cell_steps else 0.0
            ),
            "dynamics.state_bytes": self.state_bytes,
            "experiments.write_s": self.root_time.get("experiments.write_result", 0.0),
            "hilbert.basis_dim": self.basis_dim,
        })
        return out

    def absent(self) -> list[str]:
        """Counter sources and layer modules that this version of the package lacks."""
        absent = [f"{layer} (module)" for layer in self.absent_modules]
        absent += [name for name in COUNTER_NAMES if name not in self.wrapped]
        if self.cell_steps_unknown:
            absent.append("dynamics.cell_steps (no step count in the arguments)")
        return sorted(absent)


def _state_bytes(result) -> int:
    """Bytes of complex arrays returned by an integrator (directly or as attributes)."""
    if isinstance(result, np.ndarray):
        return result.nbytes if np.iscomplexobj(result) else 0
    if isinstance(result, (tuple, list)):
        return sum(_state_bytes(item) for item in result if isinstance(item, np.ndarray))
    fields = getattr(result, "__dict__", None)
    if fields:
        return sum(_state_bytes(v) for v in fields.values() if isinstance(v, np.ndarray))
    return 0
