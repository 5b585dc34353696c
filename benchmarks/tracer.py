"""Outside-in tracer: spans and counts around calls into each blp layer.

Nothing inside ``src/blp`` is edited.  :meth:`Tracer.install` replaces
public functions with timing wrappers in *every* ``blp`` module namespace
that holds them -- a name bound by ``from .quadrature import
integrate_field_along`` in ``system`` and ``transforms`` is a separate
binding from ``quadrature.integrate_field_along``, so each binding is
found by identity and patched.  ``Jet3`` methods get counting wrappers on
the class.  :meth:`Tracer.uninstall` puts every original back.

Functions that return solution fields also wrap the returned field's
``u``, ``v`` and ``validity`` closures, so the time spent evaluating a
field is charged to the layer that built it (``catalog.field_eval``,
``transforms.field_eval``, ``reductions.profile_eval``, ...).

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the time covered by its child frames.  Frames of the
module-level functions are also kept as spans (name, start, end, parent
span, request id) in memory and written out by :meth:`Tracer.write`;
the hot ``Jet3`` methods only count and accumulate time.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

from blp import jets, system

#: (module, attribute, span name, kind); kind "field" wraps returned fields
FUNCTIONS = [
    ("jets", "apply_unary", "jets.apply_unary", "time"),
    ("jets", "apply_taylor", "jets.apply_taylor", "time"),
    ("jets", "compose3", "jets.compose3", "time"),
    ("exprdsl", "eval_jet", "exprdsl.eval_jet", "span"),
    ("exprdsl", "parse", "exprdsl.parse", "span"),
    ("quadrature", "gauss_kronrod_15", "quadrature.gk15", "span"),
    ("quadrature", "adaptive_quadrature", "quadrature.adaptive", "span"),
    ("quadrature", "integrate_field_along",
     "quadrature.integrate_field_along", "span"),
    ("specfun", "weierstrass_p", "specfun.weierstrass_p", "span"),
    ("specfun", "weierstrass_series", "specfun.weierstrass_series", "span"),
    ("specfun", "quartic_particular_solution",
     "specfun.quartic_particular_solution", "profile"),
    ("system", "residual", "system.residual", "span"),
    ("system", "residual_uq", "system.residual_uq", "span"),
    ("system", "residual_report", "system.residual_report", "span"),
    ("system", "covering_residual", "system.covering_residual", "span"),
    ("system", "convert", "system.convert", "field"),
    ("catalog", "instantiate", "catalog.instantiate", "field"),
    ("catalog", "sample_bindings", "catalog.sample_bindings", "span"),
    ("catalog", "heat_witness_library", "catalog.heat_witness_library",
     "span"),
    ("transforms", "apply_symmetry", "transforms.apply_symmetry", "field"),
    ("transforms", "laplace_forward_uq", "transforms.construct", "field"),
    ("transforms", "laplace_inverse_uq", "transforms.construct", "field"),
    ("transforms", "laplace_forward_uv", "transforms.construct", "field"),
    ("transforms", "laplace_inverse_uv", "transforms.construct", "field"),
    ("transforms", "darboux", "transforms.construct", "field"),
    ("transforms", "darboux_iterated", "transforms.construct", "field"),
    ("transforms", "uq_seed", "transforms.construct", "field"),
    ("transforms", "covering_solutions_for_constraint",
     "transforms.construct", "span"),
    ("reductions", "integrate_painleve2", "reductions.integrate",
     "trajectory"),
    ("reductions", "integrate_painleve4_form", "reductions.integrate",
     "trajectory"),
    ("reductions", "reconstruct_2_4", "reductions.reconstruct", "field"),
    ("reductions", "reconstruct_2_9", "reductions.reconstruct", "field"),
    ("liealg", "commutator", "liealg.commutator", "span"),
    ("liealg", "check_subalgebra", "liealg.certificate", "span"),
    ("liealg", "normalizer_check", "liealg.certificate", "span"),
    ("liealg", "in_span", "liealg.certificate", "span"),
    ("liealg", "is_zero", "liealg.certificate", "span"),
    ("cli", "main", "cli.main", "span"),
]

#: (module, class, method, counter name); counted and timed, no spans
METHODS = [
    ("jets", "Jet3", "__init__", "jets.init"),
    ("jets", "Jet3", "__mul__", "jets.mul"),
    ("jets", "Jet3", "__rmul__", "jets.mul"),
    ("jets", "Jet3", "__add__", "jets.add"),
    ("jets", "Jet3", "__radd__", "jets.add"),
    ("jets", "Jet3", "__sub__", "jets.sub"),
    ("jets", "Jet3", "__rsub__", "jets.sub"),
    ("jets", "Jet3", "__truediv__", "jets.div"),
    ("jets", "Jet3", "__rtruediv__", "jets.div"),
    ("jets", "Jet3", "derive", "jets.derive"),
    ("jets", "Jet3", "truncate", "jets.truncate"),
    ("jets", "Jet3", "extract", "jets.extract"),
    ("exprdsl", "Expr", "__call__", "exprdsl.expr_call"),
    ("exprdsl", "Expr", "diff", "exprdsl.diff"),
]

#: span name of the closures of a field returned by a "field" function
FIELD_SPAN = {
    "system.convert": "system.convert.eval",
    "catalog.instantiate": "catalog.field_eval",
    "transforms.apply_symmetry": "transforms.field_eval",
    "transforms.construct": "transforms.field_eval",
    "reductions.reconstruct": "reductions.profile_eval",
}


class Tracer:
    """Call counts, self times and spans for one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(lambda: defaultdict(int))
        self.mul_by_order = defaultdict(int)
        self.trajectory_nodes: list[int] = []
        self.spans: list = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # frame = [child seconds, span index of the nearest recorded frame]
        self._stack: list[list] = [[0.0, -1]]
        self.request_id = -1
        self._patches: list[tuple] = []

    # -- frames ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(self, name: str, fn, record: bool = True):
        """Wrap ``fn`` so each call is a frame (and a span if ``record``)."""
        nid = self._name_id(name)
        stack, spans = self._stack, self.spans
        calls, self_s, errors = self.calls, self.self_s, self.errors

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                idx = len(spans)
                spans.append(None)
                frame = [0.0, idx]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[name][type(exc).__name__] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if record:
                    spans[idx] = (nid, t0, t1, parent[1], self.request_id)

        wrapper.__wrapped__ = fn
        return wrapper

    def request(self, request_id: int, label: str, fn, *args):
        """Run one benchmark request inside its own root span."""
        self.request_id = request_id
        return self.timed(f"bench.request.{label}", fn)(*args)

    # -- patching --------------------------------------------------------

    def _field_hook(self, span: str, fn):
        field_span = FIELD_SPAN[span]
        timed = self.timed

        def build(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, system.SolutionField):
                out = out.with_meta(u=timed(field_span, out.u),
                                    v=timed(field_span, out.v),
                                    validity=timed(field_span, out.validity))
            return out
        return build

    def _trajectory_hook(self, fn):
        nodes = self.trajectory_nodes

        def integrate(*args, **kwargs):
            traj = fn(*args, **kwargs)
            nodes.append(len(traj.grid))
            return traj
        return integrate

    def _profile_hook(self, fn):
        timed = self.timed

        def build(*args, **kwargs):
            return timed("specfun.profile_eval", fn(*args, **kwargs))
        return build

    def _mul_counter(self, fn):
        """Count jet-by-jet products by order; scalar scalings are not
        truncated convolutions, so they are left out of the by-order count."""
        by_order, jet = self.mul_by_order, jets.Jet3

        def mul(a, b):
            if isinstance(b, jet):
                by_order[a.order] += 1
            return fn(a, b)
        return mul

    def install(self, extra_methods=()):
        """Patch every binding of the traced functions and methods.

        ``extra_methods`` lists (class, method, counter name) triples owned
        by the caller, e.g. the benchmark's own witness maps.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "blp" or name.startswith("blp."))
                   and m is not None]
        for mod_name, attr, span, kind in FUNCTIONS:
            original = getattr(sys.modules[f"blp.{mod_name}"], attr)
            inner = original
            if kind == "field":
                inner = self._field_hook(span, original)
            elif kind == "trajectory":
                inner = self._trajectory_hook(original)
            elif kind == "profile":
                inner = self._profile_hook(original)
            wrapper = self.timed(span, inner, record=kind != "time")
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for mod_name, cls_name, meth, counter in METHODS:
            cls = getattr(sys.modules[f"blp.{mod_name}"], cls_name)
            self._patch_method(cls, meth, counter)
        for cls, meth, counter in extra_methods:
            self._patch_method(cls, meth, counter)

    def _patch_method(self, cls, meth, counter):
        original = cls.__dict__[meth]
        inner = self._mul_counter(original) if counter == "jets.mul" \
            else original
        self._patch(cls, meth, self.timed(counter, inner, record=False))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        """Restore every patched attribute, last patched first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched(self) -> list[tuple]:
        return list(self._patches)

    # -- results ---------------------------------------------------------

    def write(self, path: str) -> int:
        """Write the spans as gzipped JSON lines; returns the span count."""
        spans = [s for s in self.spans if s is not None]
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, t0, t1, parent, rid in spans:
                fh.write(f"[{nid},{t0!r},{t1!r},{parent},{rid}]\n")
        return len(spans)
