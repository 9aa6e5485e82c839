"""Timing wrappers around the library's layer entry points.

A Tracer patches module attributes of conecert (the names each module
looks up at call time, including names other modules imported by name)
with wrappers that keep a call stack.  Every wrapped call adds its
duration to its caller's child time, so a layer's self time is its
duration minus the time spent in wrapped calls below it.  Coarse calls
also keep a span (name, start, end, parent, op id) in memory; hot leaf
calls (compiled drift evaluations, brackets, relative degrees) keep
only per-layer totals.  Calls outside a benchmark operation (the output checks) are not
recorded.  Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import time

# (layer name, [(module, attribute), ...], keep a span per call)
LAYERS = [
    ("polyfield.compile", [("conecert.reach", "compile_field"),
                           ("conecert.montecarlo", "compile_field"),
                           ("conecert.polyfield", "compile_field"),
                           ("conecert.reach", "compile_jacobian"),
                           ("conecert.polyfield", "compile_jacobian")], True),
    ("polyfield.lie_bracket", [("conecert.polyfield", "lie_bracket"),
                               ("conecert.closure", "lie_bracket"),
                               ("conecert.reach", "lie_bracket")], False),
    ("polyfield.ad_power", [("conecert.polyfield", "ad_power"),
                            ("conecert.closure", "ad_power")], False),
    ("polyfield.relative_degree", [("conecert.polyfield", "relative_degree"),
                                   ("conecert.closure", "relative_degree")], False),
    ("closure.compute_C", [("conecert.closure", "compute_C")], True),
    ("closure.step", [("conecert.closure", "closure_step")], True),
    ("closure.choose_basis", [("conecert.closure", "choose_basis")], True),
    ("closure.membership", [("conecert.closure", "d_membership"),
                            ("conecert.reach", "d_membership"),
                            ("conecert.equilibria", "d_membership")], False),
    ("closure.twist", [("conecert.closure", "twist_rank_check"),
                       ("conecert.reach", "twist_rank_check")], True),
    ("equilibria.find", [("conecert.equilibria", "find_equilibria"),
                         ("conecert.reach", "find_equilibria")], True),
    ("reach.flow", [("conecert.reach", "_integrate_once")], True),
    ("reach.gramian", [("conecert.reach", "gramian")], True),
    ("reach.k_rank", [("conecert.reach", "k_rank")], True),
    ("reach.synthesis", [("conecert.reach", "synthesize_leg")], True),
    ("reach.certify", [("conecert.reach", "certify")], True),
    ("montecarlo.simulate", [("conecert.montecarlo", "simulate")], True),
]

# Layers whose self time is summed for the accounting of a traced pass;
# field and Jacobian evaluations are layers of their own.
EVAL_LAYERS = ("polyfield.field_eval", "polyfield.jac_eval")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._op_id = None
        self._certify_pieces: list[int] = []
        self._saved: list[tuple] = []

    # ---------------------------------------------------------------- core

    def _enter(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, t0, t1, keep_span):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if keep_span:
            self.spans.append((name, t0, t1, frame[0], parent, self._op_id))

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def op(self, kind, op_id):
        """Root span of one benchmark operation."""
        self._op_id = op_id
        frame, parent = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit("op." + kind, frame, parent, t0, time.perf_counter(), True)
            self._op_id = None

    def _wrap(self, name, fn, keep_span, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:  # outside a benchmark operation
                return fn(*args, **kwargs)
            frame, parent = tracer._enter()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(name, frame, parent, t0, time.perf_counter(), keep_span)
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            tracer._exit(name, frame, parent, t0, time.perf_counter(), keep_span)
            if after is not None:
                after(args, kwargs, out, None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------ layer specifics

    def _wrap_compiled(self, compile_name, fn):
        """Compiled callables returned by compile_field/compile_jacobian
        become field_eval/jac_eval layers counting evaluated points."""
        layer = "polyfield.jac_eval" if "jacobian" in compile_name else "polyfield.field_eval"
        inner = self._wrap(layer, fn, False)
        tracer = self

        def evaluate(x):
            if not tracer._stack:
                return fn(x)
            shape = getattr(x, "shape", None)
            npts = 1
            if shape:
                for s in shape[:-1]:
                    npts *= s
            tracer.count(layer + ".points", npts)
            return inner(x)

        return evaluate

    def _after(self, name):
        """Counter hook for a layer, or None."""
        if name == "equilibria.find":
            def after(args, kwargs, out, exc):
                if out is not None:
                    self.count("equilibria.find.found", len(out))
            return after
        if name == "reach.flow":
            def after(args, kwargs, out, exc):
                if out is not None:
                    self.count("reach.flow.steps", len(out.times) - 1)
            return after
        if name == "reach.synthesis":
            def after(args, kwargs, out, exc):
                pieces = kwargs.get("pieces", args[4] if len(args) > 4 else 6)
                if self._certify_pieces and pieces > self._certify_pieces[-1]:
                    self.count("reach.synthesis.escalations")
                if exc is not None:
                    self.count("reach.synthesis.failed")
            return after
        if name == "montecarlo.simulate":
            def after(args, kwargs, out, exc):
                if out is None:
                    return
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                steps = int(round(cfg.t / cfg.dt))
                self.count("montecarlo.simulate.path_steps", cfg.n_paths * steps)
                self.count("montecarlo.simulate.stopped_paths",
                           out.stopped_fraction * out.n_paths)
                self.count("montecarlo.simulate.paths", out.n_paths)
            return after
        return None

    def _wrap_closure_step(self, fn):
        inner = self._wrap("closure.step", fn, True)
        tracer = self

        def step(state, *args, **kwargs):
            if not tracer._stack:
                return fn(state, *args, **kwargs)
            pairs0 = len(state.pairs_done)
            size0 = (len(state.odd_constants) + len(state.even_constants)
                     + len(state.nonconstant_generators))
            new = inner(state, *args, **kwargs)
            size1 = (len(new.odd_constants) + len(new.even_constants)
                     + len(new.nonconstant_generators))
            tracer.count("closure.rounds")
            tracer.count("closure.pairs", len(new.pairs_done) - pairs0)
            tracer.count("closure.added", size1 - size0)
            return new

        return step

    def _wrap_certify(self, fn):
        inner = self._wrap("reach.certify", fn, True)
        tracer = self

        def certify(model, basis, x, z, t, options=None):
            tracer._certify_pieces.append(options.pieces if options is not None else 8)
            try:
                return inner(model, basis, x, z, t, options)
            finally:
                tracer._certify_pieces.pop()

        return certify

    def _wrap_least_squares(self, fn):
        """Counts solver evaluations; the time stays with synthesis."""
        tracer = self

        def least_squares(*args, **kwargs):
            sol = fn(*args, **kwargs)
            if not tracer._stack:
                return sol
            tracer.count("reach.synthesis.nfev", int(sol.nfev))
            tracer.count("reach.synthesis.njev", int(getattr(sol, "njev", 0) or 0))
            return sol

        return least_squares

    # ------------------------------------------------------------ install

    def _patch(self, module, attr, wrapper_factory):
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    def install(self):
        import importlib

        for name, targets, keep_span in LAYERS:
            for mod_name, attr in targets:
                module = importlib.import_module(mod_name)
                if name == "polyfield.compile":
                    def factory(fn, attr=attr):
                        timed = self._wrap("polyfield.compile", fn, True)
                        return lambda V: self._wrap_compiled(attr, timed(V))
                elif name == "closure.step":
                    factory = self._wrap_closure_step
                elif name == "reach.certify":
                    factory = self._wrap_certify
                else:
                    def factory(fn, name=name, keep_span=keep_span):
                        return self._wrap(name, fn, keep_span, self._after(name))
                self._patch(module, attr, factory)
        reach = importlib.import_module("conecert.reach")
        self._patch(reach, "least_squares", self._wrap_least_squares)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------- report

    def stat(self, name, index):
        st = self.stats.get(name)
        return st[index] if st else 0

    def layer_self_s(self) -> float:
        return sum(st[2] for name, st in self.stats.items() if not name.startswith("op."))

    def op_self_s(self) -> float:
        return sum(st[2] for name, st in self.stats.items() if name.startswith("op."))

    def per_layer(self) -> dict:
        """Metrics named in BENCHMARK.json's per_layer list (except the
        models.*, cli.* and trace.* entries, which the runner fills)."""
        s, c = self.stat, self.counts.get
        out = {
            "polyfield.compile.calls": s("polyfield.compile", 0),
            "polyfield.compile.s": s("polyfield.compile", 1),
            "polyfield.compile.self_s": s("polyfield.compile", 2),
            "polyfield.field_eval.calls": s("polyfield.field_eval", 0),
            "polyfield.field_eval.points": c("polyfield.field_eval.points", 0),
            "polyfield.field_eval.s": s("polyfield.field_eval", 1),
            "polyfield.jac_eval.calls": s("polyfield.jac_eval", 0),
            "polyfield.jac_eval.s": s("polyfield.jac_eval", 1),
            "closure.rounds": c("closure.rounds", 0),
            "closure.pairs": c("closure.pairs", 0),
            "closure.added": c("closure.added", 0),
            "closure.useful_ratio": (c("closure.added", 0) / c("closure.pairs")
                                     if c("closure.pairs") else 0.0),
            "closure.step.self_s": s("closure.step", 2),
            "closure.compute_C.self_s": s("closure.compute_C", 2),
            "closure.choose_basis.s": s("closure.choose_basis", 1),
            "closure.membership.calls": s("closure.membership", 0),
            "closure.membership.s": s("closure.membership", 1),
            "closure.twist.calls": s("closure.twist", 0),
            "closure.twist.s": s("closure.twist", 1),
            "closure.twist.self_s": s("closure.twist", 2),
            "equilibria.find.calls": s("equilibria.find", 0),
            "equilibria.find.s": s("equilibria.find", 1),
            "equilibria.find.self_s": s("equilibria.find", 2),
            "equilibria.find.found": c("equilibria.find.found", 0),
            "reach.flow.calls": s("reach.flow", 0),
            "reach.flow.steps": c("reach.flow.steps", 0),
            "reach.flow.self_s": s("reach.flow", 2),
            "reach.gramian.s": s("reach.gramian", 1),
            "reach.k_rank.s": s("reach.k_rank", 1),
            "reach.k_rank.self_s": s("reach.k_rank", 2),
            "reach.synthesis.legs": s("reach.synthesis", 0),
            "reach.synthesis.escalations": c("reach.synthesis.escalations", 0),
            "reach.synthesis.failed": c("reach.synthesis.failed", 0),
            "reach.synthesis.nfev": c("reach.synthesis.nfev", 0),
            "reach.synthesis.njev": c("reach.synthesis.njev", 0),
            "reach.synthesis.self_s": s("reach.synthesis", 2),
            "reach.certify.calls": s("reach.certify", 0),
            "reach.certify.s": s("reach.certify", 1),
            "reach.certify.self_s": s("reach.certify", 2),
            "montecarlo.simulate.s": s("montecarlo.simulate", 1),
            "montecarlo.simulate.self_s": s("montecarlo.simulate", 2),
            "montecarlo.simulate.path_steps": c("montecarlo.simulate.path_steps", 0),
            "montecarlo.simulate.stopped_fraction": (
                c("montecarlo.simulate.stopped_paths", 0) / c("montecarlo.simulate.paths")
                if c("montecarlo.simulate.paths") else 0.0),
        }
        for layer in ("polyfield.lie_bracket", "polyfield.ad_power",
                      "polyfield.relative_degree", *EVAL_LAYERS):
            out[layer + ".calls"] = s(layer, 0)
            out[layer + ".self_s"] = s(layer, 2)
        return out

    def dump(self) -> dict:
        return {
            "layers": {name: {"calls": st[0], "s": st[1], "self_s": st[2]}
                       for name, st in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"name": n, "start": a, "end": b, "id": i, "parent": p, "op": o}
                for n, a, b, i, p, o in self.spans
            ],
        }
