"""Span tracer for the benchmark's traced run.

``Tracer.install`` puts spans around the layer entry points of groverlab in
the current process (``child.py`` does so before a traced invocation) and
``Tracer.dump`` writes them to a file.  The spans wrap the names each calling
module binds (for example ``groverlab.cli.probability_trace`` and
``groverlab.spectral.su2_decompose``), so the library itself is not
modified.  Each span keeps its name, start, end, parent span, a work count
and whether it raised a GroverLabError; spans stay in memory until the
invocation ends.  ``layer_totals`` turns a spans file into
per-layer self times and counts, where a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from itertools import chain

import numpy as np

# (module, attribute, layer, work count taken from the call's arguments as
# (position, keyword)).  A class method is named "Class.method".  Algebra
# primitives are wrapped where the library modules bind them; the CLI binds
# none that its workloads call.  A name a module does not bind is skipped.
_STEP_ARG = (2, "m_max")
TARGETS = [
    ("groverlab.kernel", "GroverPhases.from_angles", "kernel", None),
    ("groverlab.cli", "reduced_kernel", "kernel", None),
    ("groverlab.cli", "extended_reduced_kernel", "kernel", None),
    ("groverlab.cli", "full_kernel", "kernel", None),
    ("groverlab.spectral", "grover_operator", "kernel", None),
    ("groverlab.cli", "eigensystem", "spectral", None),
    ("groverlab.cli", "kernel_manifold_points", "spectral", None),
    ("groverlab.cli", "optimal_steps_exact", "spectral", None),
    ("groverlab.cli", "optimal_steps_asymptotic", "spectral", None),
    ("groverlab.cli", "stability_expansion", "spectral", None),
    ("groverlab.cli", "delta_omega_asymptotic", "spectral", None),
    ("groverlab.spectral", "su2_decompose", "spectral", None),
    ("groverlab.cli", "probability_trace", "evolution", _STEP_ARG),
    ("groverlab.cli", "full_space_trace", "evolution", _STEP_ARG),
    ("groverlab.evolution", "EvolutionTrace.from_probs", "evolution.stats", None),
    *[(mod, name, "algebra", None)
      for mod in ("groverlab.kernel", "groverlab.spectral", "groverlab.evolution")
      for name in ("as_matrix", "as_vector", "outer", "dft_matrix")],
    ("groverlab.cli", "_write_csv", "cli.write", None),
    *[("groverlab.cli", f"cmd_{name}", "cli.format", None)
      for name in ("trace", "sweep", "spectrum", "asymptotics", "manifold", "verify")],
]

# Time outside every span: interpreter start, imports, argument parsing,
# installing the tracer, writing the spans and exit.
OUTSIDE = "process"
LAYERS = ("kernel", "spectral", "evolution", "evolution.stats", "algebra",
          "cli.format", "cli.write", OUTSIDE)

_FIELDS = 6  # name index, start ns, end ns, parent index, work, refused


class Tracer:
    """Spans around patched callables, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list[int]] = []
        self._stack = [-1]

    def install(self) -> None:
        from groverlab.errors import GroverLabError
        for mod_name, attr, layer, work in TARGETS:
            module = importlib.import_module(mod_name)
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            raw = vars(holder).get(name)
            if raw is None:
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self._wrap(fn, f"{mod_name}.{attr}", layer, work, GroverLabError)
            setattr(holder, name, classmethod(wrapped) if is_classmethod else wrapped)
            if mod_name == "groverlab.cli" and name.startswith("cmd_"):
                dispatch = module.DISPATCH
                for key, value in dispatch.items():
                    if value is fn:
                        dispatch[key] = wrapped

    def _wrap(self, fn, name, layer, work, refused_type):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        pos, key = work if work is not None else (None, None)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1], 0, 0]
            if pos is not None:
                rec[4] = int(args[pos] if len(args) > pos else kwargs[key])
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except refused_type:
                rec[5] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return span

    def dump(self, path: str) -> None:
        flat = array("q", chain.from_iterable(self.spans))
        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names, "layers": self.layers}).encode()
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            flat.tofile(fh)


def layer_totals(path, wall_s: float) -> dict:
    """Per-layer self seconds, call counts, work and refusals of one invocation.

    ``wall_s`` is the invocation's wall time measured by the parent; the part
    of it that no span covers goes to the ``process`` layer, so the self times
    of all layers sum to ``wall_s``.
    """
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        layers = json.loads(fh.read(size))["layers"]
        spans = np.frombuffer(fh.read(), dtype=np.int64).reshape(-1, _FIELDS)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3]
    child = np.zeros(len(spans), dtype=np.int64)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_ns = dur - child
    layer_of = np.array([LAYERS.index(layer) for layer in layers], dtype=np.int64)
    span_layer = layer_of[spans[:, 0]]
    out = {}
    for idx, layer in enumerate(LAYERS):
        mask = span_layer == idx
        out[layer] = {
            "self_s": float(self_ns[mask].sum()) / 1e9,
            "calls": int(mask.sum()),
            "work": int(spans[mask, 4].sum()),
            "refused": int(spans[mask, 5].sum()),
        }
    out[OUTSIDE]["self_s"] = wall_s - float(dur[~nested].sum()) / 1e9
    return out
