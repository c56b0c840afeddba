"""Spans around every call into tpslab's layers, recorded from outside the program.

`Tracer.install()` replaces each public function of the layer modules, and
the constructor and public methods of their public classes, with a timing
wrapper.  It does so in every tpslab namespace that binds the function,
because `cli`, `spins`, `grid` and `schmidt` use `from ... import`.  Spans
(name, start, end, parent span, request id) are kept in flat arrays and
written out when the run ends; self time is the span's duration minus the
durations of its child spans, accumulated as spans close.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "statefile", "tps", "schmidt", "qcf", "grid", "spins", "bell", "linalg",
          "sampling")

# layer-specific metrics: the inclusive time of these spans (outermost only)
INCLUSIVE = {
    "statefile.load_s": ("statefile.load_state_file",),
    "statefile.save_s": ("statefile.save_state_file", "statefile.write_csv"),
    "statefile.render_s": ("statefile.dump_json", "statefile.render_csv"),
    "tps.relabel_s": ("tps.relabel_tps",),
    "tps.disentangle_s": ("tps.disentangling_tps",),
    "tps.coefficients_s": ("tps.coefficient_matrix",),
    "schmidt.decompose_s": ("schmidt.schmidt", "schmidt.schmidt_values"),
    "qcf.local_s": ("qcf.qcf_local",),
    "bell.chsh_max_s": ("bell.chsh_max",),
    "bell.closed_form_s": ("bell.chsh_max_closed_form",),
    "spins.demo_s": ("spins.demo_spins",),
    "grid.demo_s": ("grid.demo_sum_diff", "grid.demo_general_bijection"),
}
VALIDATIONS = ("linalg.check_state", "linalg.check_hermitian", "linalg.as_vector",
               "linalg.as_matrix")
PROFILES = ("grid.gaussian_profile", "grid.double_gaussian_profile", "grid.fourier_profile",
            "grid.odd_profile")
TPS_INIT = "tps.TensorProductStructure.__init__"

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(f"{layer}.{m}", unit, "lower") for layer in LAYERS
     for m, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"), ("errors", "count"))]
    + [
        ("statefile.load_s", "s", "lower"),
        ("statefile.save_s", "s", "lower"),
        ("statefile.render_s", "s", "lower"),
        ("statefile.bytes_read", "bytes", "lower"),
        ("statefile.bytes_written", "bytes", "lower"),
        ("tps.constructed", "count", "lower"),
        ("tps.dense_bytes", "bytes", "lower"),
        ("tps.relabel_s", "s", "lower"),
        ("tps.disentangle_s", "s", "lower"),
        ("tps.coefficients_s", "s", "lower"),
        ("schmidt.decompose_s", "s", "lower"),
        ("qcf.local_s", "s", "lower"),
        ("qcf.global_s", "s", "lower"),
        ("bell.chsh_max_calls", "count", "lower"),
        ("bell.chsh_max_s", "s", "lower"),
        ("bell.closed_form_s", "s", "lower"),
        ("spins.demo_s", "s", "lower"),
        ("grid.demo_s", "s", "lower"),
        ("grid.profiles", "count", "lower"),
        ("linalg.validations", "count", "lower"),
        ("linalg.svd_calls", "count", "lower"),
        ("linalg.eigh_calls", "count", "lower"),
        ("sampling.draws", "count", "lower"),
        ("sampling.accept_ratio", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unaccounted_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.request = -1
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # per name id, and per (parent name id, name id)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # inclusive time, not nested in the same name
        self.edge_calls = defaultdict(int)
        self.edge_s = defaultdict(float)
        self.bytes_read = 0
        self.bytes_written = 0
        self.dense_bytes = 0
        self._stack: list[list] = []  # [name id, span index, child seconds]
        self._active = defaultdict(int)  # open spans per name id
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        stack, active = self._stack, self._active
        # what to record from the arguments once the call returns
        effect = {"statefile.load_state_file": "read", "statefile.save_state_file": "written",
                  "statefile.write_csv": "written", TPS_INIT: "tps"}.get(name)

        def traced(*args, **kwargs):
            idx = len(self.span_name)
            parent = stack[-1] if stack else None
            self.span_name.append(nid)
            self.span_parent.append(parent[1] if parent else -1)
            self.span_request.append(self.request)
            self.span_end.append(0.0)
            frame = [nid, idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = perf_counter()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                active[nid] -= 1
                self.span_end[idx] = t1
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[2]
                if not active[nid]:
                    self.outer_s[nid] += dur
                if parent is not None:
                    parent[2] += dur
                    edge = (parent[0], nid)
                    self.edge_calls[edge] += 1
                    self.edge_s[edge] += dur
            if effect is not None:
                first = args[0] if args else next(iter(kwargs.values()))
                if effect == "tps":
                    self.dense_bytes += getattr(getattr(first, "unitary", None), "nbytes", 0)
                elif effect == "read":
                    self.bytes_read += os.path.getsize(first)
                else:
                    self.bytes_written += os.path.getsize(first)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layers' public callables in every loaded tpslab module.
        The wrappers are made on the first call and reused after `uninstall`."""
        if not self._patches:
            self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "tpslab" or n.startswith("tpslab.")) and m is not None]
        wrappers = {}
        for mod in namespaces:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._plan_class(obj, f"{layer}.{attr}")
        for mod in namespaces:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[obj]))

    def _plan_class(self, cls, name: str) -> None:
        for attr, obj in vars(cls).items():
            if attr.startswith("_") and attr != "__init__":
                continue
            if inspect.isfunction(obj):
                wrapper = self.wrap(obj, f"{name}.{attr}")
            elif isinstance(obj, (classmethod, staticmethod)):
                wrapper = type(obj)(self.wrap(obj.__func__, f"{name}.{attr}"))
            else:
                continue
            self._patches.append((cls, attr, obj, wrapper))

    # --- results -----------------------------------------------------------

    def _sum(self, table, names) -> float:
        return sum(table[self._ids[n]] for n in names if n in self._ids)

    def _edge(self, table, parent: str, child: str) -> float:
        if parent not in self._ids or child not in self._ids:
            return 0
        return table[(self._ids[parent], self._ids[child])]

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Every per-layer metric in METRICS, for a traced pass that took
        `traced_wall` seconds of request time against `untraced_wall` untraced."""
        out: dict[str, float] = {}
        total_self = 0.0
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
            self_s = sum(self.self_s[i] for i in ids)
            total_self += self_s
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / traced_wall if traced_wall > 0 else 0.0
            out[f"{layer}.errors"] = sum(self.errors[i] for i in ids)
        for metric, names in INCLUSIVE.items():
            out[metric] = self._sum(self.outer_s, names)
        out["qcf.global_s"] = (self._sum(self.outer_s, ["qcf.qcf"])
                               - self._edge(self.edge_s, "qcf.qcf_local", "qcf.qcf"))
        out["statefile.bytes_read"] = self.bytes_read
        out["statefile.bytes_written"] = self.bytes_written
        out["tps.constructed"] = self._sum(self.calls, [TPS_INIT])
        out["tps.dense_bytes"] = self.dense_bytes
        out["bell.chsh_max_calls"] = self._sum(self.calls, ["bell.chsh_max"])
        out["grid.profiles"] = self._sum(self.calls, PROFILES)
        out["linalg.validations"] = self._sum(self.calls, VALIDATIONS)
        out["linalg.svd_calls"] = self._sum(self.calls, ["linalg.svd"])
        out["linalg.eigh_calls"] = self._sum(self.calls, ["linalg.eigh"])
        out["sampling.draws"] = self._sum(self.calls, ["sampling.haar_state"])
        inner = self._edge(self.edge_calls, "sampling.random_entangled_state", "sampling.haar_state")
        accepted = self._sum(self.calls, ["sampling.random_entangled_state"])
        out["sampling.accept_ratio"] = accepted / inner if inner else 0.0
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.unaccounted_s"] = traced_wall - total_self
        out["trace.spans"] = len(self.span_name)
        return out

    def write_spans(self, path) -> None:
        """Gzipped tab-separated spans; times in microseconds from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart_us\tend_us\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_request[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{(self.span_start[i] - t0) * 1e6:.3f}\t"
                         f"{(self.span_end[i] - t0) * 1e6:.3f}\n")


def layer_table(m: dict[str, float]) -> str:
    """Markdown table of the per-layer metrics of one traced run."""
    lines = ["| layer | calls | self_s | share | errors |", "|---|---:|---:|---:|---:|"]
    for layer in LAYERS:
        lines.append(f"| {layer} | {m[layer + '.calls']:.0f} | {m[layer + '.self_s']:.4f} | "
                     f"{m[layer + '.share']:.3f} | {m[layer + '.errors']:.0f} |")
    lines.append(f"| (no layer) | | {m['trace.unaccounted_s']:.4f} | "
                 f"{m['trace.unaccounted_s'] / m['trace.wall_s'] if m['trace.wall_s'] else 0:.3f} | |")
    lines += ["", "| metric | value |", "|---|---:|"]
    per_layer = {f"{layer}.{k}" for layer in LAYERS for k in ("calls", "self_s", "share", "errors")}
    for name, unit, _ in METRICS:
        if name not in per_layer:
            note = " (computed from .unitary.nbytes)" if name == "tps.dense_bytes" else ""
            lines.append(f"| {name}{note} | {m[name]:.6g} {unit} |")
    return "\n".join(lines) + "\n"
