"""Per-layer tracing of halfspace from outside the package.

``Tracer.install`` wraps every public function of each halfspace module at
every module that binds it (modules import by name, so ``solvers.decompose``
and ``operators.decompose`` are separate bindings of one function), plus the
dense numpy/scipy kernels and the sparse LU used by the package.  Each call
records a span (name, layer, start, end, parent span, row id) in memory;
``metrics`` reduces the spans to the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("grid", "expr", "coeffs", "operators", "boundary", "solvers",
           "oracle", "quadnorms", "stripnorms", "dump", "cli")
# private functions wrapped as well: row markers and the Schur fallback
EXTRA = {"cli": ("_rellich_item", "_verify_item"), "operators": ("_sign_schur",)}

# dense kernels: numpy.linalg name -> span name; cond and the matrix 2-norm
# are singular value decompositions too
DENSE = {"eig": "eig", "eigvals": "eigvals", "eigvalsh": "eigvalsh", "inv": "inv",
         "solve": "solve", "lstsq": "lstsq", "svd": "svd", "cond": "svd",
         "slogdet": "slogdet"}

# real flops per LAPACK call, textbook leading terms (Golub & Van Loan);
# complex operands count four real flops per complex one
_FLOPS = {
    "eig": lambda m, n, k: 25 * n**3,
    "eigvals": lambda m, n, k: 10 * n**3,
    "eigvalsh": lambda m, n, k: 4 * n**3 / 3,
    "inv": lambda m, n, k: 2 * n**3,
    "solve": lambda m, n, k: 2 * n**3 / 3 + 2 * n**2 * k,
    "lstsq": lambda m, n, k: 2 * m * n**2 + 2 * m * n * k,
    "svd": lambda m, n, k: 4 * max(m, n) * min(m, n) ** 2 - 4 * min(m, n) ** 3 / 3,
    "slogdet": lambda m, n, k: 2 * n**3 / 3,
    "schur": lambda m, n, k: 25 * n**3,
}

COUNT_METRICS = (
    "dense.eig.calls", "dense.inv.calls", "dense.svd.calls", "dense.eigvals.calls",
    "dense.schur.calls", "dense.factorizations",
    "operators.decompose.calls", "operators.fractional_power.calls",
    "operators.semigroup_apply.calls", "operators.matrix_sign.schur_fallbacks",
    "solvers.t_levels", "grid.vcoords_to_field.calls",
    "oracle.sparse_lu.calls", "oracle.lu_solves", "coeffs.make_family.calls",
)
TIME_METRICS = (
    "dense.eig.s", "dense.self_s",
    "operators.decompose.s", "operators.matrix_sign.eigen.s",
    "operators.matrix_sign.newton.s", "operators.assemble_calB.s",
    "operators.kato_check.s", "operators.self_s",
    "boundary.sgn_blocks.s", "boundary.gamma_nd.s", "boundary.gamma_dn.s",
    "boundary.rellich_constant.s", "boundary.key_lemma_check.s", "boundary.self_s",
    "solvers.solve_neumann_l2.s", "solvers.solve_dirichlet_l2.s",
    "solvers.solve_energy.s", "solvers.evaluate.s", "solvers.evaluate_full_gradient.s",
    "solvers.self_s", "grid.self_s",
    "quadnorms.quad_norm_adapted.s", "quadnorms.semigroup_norm.s",
    "stripnorms.nontangential_norm.s", "stripnorms.square_function_norm.s",
    "oracle.assemble_form.s", "oracle.sparse_lu.s", "oracle.gamma_nd_variational.s",
    "oracle.semigroup_strip_gradient.s", "oracle.self_s",
    "coeffs.hat_transform.s", "expr.evaluate_expr.s",
    "dump.write_report.s", "dump.write_strip_field.s", "cli.self_s",
)
# (name, unit) of every per-layer metric, in report order
METRICS = (
    [(m, "count") for m in COUNT_METRICS]
    + [("dense.eig_per_row", "1/row"), ("dense.gflop_computed", "Gflop"),
       ("operators.factor_reuse", "ratio"), ("dump.bytes_written", "bytes"),
       ("trace.spans", "count"), ("trace.overhead_s", "s")]
    + [(m, "s") for m in TIME_METRICS]
)


class _LUProxy:
    """SuperLU stand-in that records its triangular solves."""

    def __init__(self, tracer, lu):
        self._tracer, self._lu = tracer, lu

    def solve(self, *args, **kwargs):
        with self._tracer.span("oracle.lu_solve", "sparse"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _Span:
    __slots__ = ("tracer", "name", "layer", "index")

    def __init__(self, tracer, name, layer):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else -1
        outer = t.depth.get(self.name, 0) == 0
        t.depth[self.name] = t.depth.get(self.name, 0) + 1
        self.index = len(t.spans)
        t.spans.append([self.name, self.layer, time.perf_counter(), 0.0, parent, t.row, outer])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][3] = time.perf_counter()
        t.stack.pop()
        t.depth[self.name] -= 1
        return False


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.row = -1
        self.row_marker: str | None = None
        self.flops = 0.0
        self.t_levels = 0

    def span(self, name: str, layer: str) -> _Span:
        return _Span(self, name, layer)

    def begin_part(self, row_marker: str | None):
        """Rows of the next part start at each outermost call of
        ``row_marker`` (a span name); None makes the whole part one row."""
        self.row_marker = row_marker
        if row_marker is None:
            self.row += 1

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        if name == "operators.matrix_sign":
            @functools.wraps(fn)
            def sign(op, method="eigen"):
                with tracer.span(f"{name}.{method}", layer):
                    return fn(op, method)
            return sign
        counts_t = name in ("solvers.evaluate", "solvers.evaluate_full_gradient")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == tracer.row_marker and tracer.depth.get(name, 0) == 0:
                tracer.row += 1
            if counts_t:
                ts = args[1] if len(args) > 1 else kwargs["t_grid"]
                tracer.t_levels += len(ts) if hasattr(ts, "__len__") else 1
            with tracer.span(name, layer):
                return fn(*args, **kwargs)
        return wrapper

    def _dense(self, fn, kind: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            if len(shape) >= 2:
                m, n = shape[-2], shape[-1]
                k = 1
                if kind in ("solve", "lstsq") and args:
                    b = args[0]
                    k = b.shape[-1] if getattr(b, "ndim", 1) > 1 else 1
                batch = 1
                for d in shape[:-2]:
                    batch *= d
                scale = 4 if a.dtype.kind == "c" else 1
                tracer.flops += batch * scale * _FLOPS[kind](m, n, k)
            with tracer.span(f"dense.{kind}", "dense"):
                return fn(a, *args, **kwargs)
        return wrapper

    def install(self, package):
        """Patch halfspace (already imported), numpy.linalg and scipy."""
        import numpy.linalg as la
        import scipy.linalg
        import scipy.sparse.linalg as spla

        for np_name, kind in DENSE.items():
            setattr(la, np_name, self._dense(getattr(la, np_name), kind))
        norm = la.norm
        svd_norm = self._dense(norm, "svd")

        @functools.wraps(norm)
        def norm_wrapper(x, ord=None, *args, **kwargs):
            if ord in (2, -2) and getattr(x, "ndim", 0) == 2:
                return svd_norm(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)
        la.norm = norm_wrapper
        scipy.linalg.schur = self._dense(scipy.linalg.schur, "schur")
        splu = spla.splu

        @functools.wraps(splu)
        def splu_wrapper(*args, **kwargs):
            with self.span("oracle.sparse_lu", "sparse"):
                lu = splu(*args, **kwargs)
            return _LUProxy(self, lu)
        spla.splu = splu_wrapper

        mods = [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        bindings = [package] + mods
        for layer, mod in zip(MODULES, mods):
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += EXTRA.get(layer, ())
            for n in names:
                original = getattr(mod, n)
                wrapped = self._wrap(original, f"{layer}.{n.lstrip('_')}", layer)
                for b in bindings:
                    for attr, obj in list(vars(b).items()):
                        if obj is original:
                            setattr(b, attr, wrapped)

    # ------------------------------------------------------------- metrics

    def metrics(self, rows: int, bytes_written: int) -> dict:
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent, row, outer in self.spans:
            calls[name] = calls.get(name, 0) + 1
            if outer:
                inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_time: dict[str, float] = {}
        for i, (name, layer, t0, t1, *_rest) in enumerate(self.spans):
            self_time[layer] = self_time.get(layer, 0.0) + (t1 - t0) - child_time[i]

        def c(name):
            return calls.get(name, 0)

        decompose_eig = sum(
            1 for s in self.spans
            if s[0] == "dense.eig" and s[4] >= 0 and self.spans[s[4]][0] == "operators.decompose")
        out = {
            "dense.eig.calls": c("dense.eig"),
            "dense.inv.calls": c("dense.inv"),
            "dense.svd.calls": c("dense.svd"),
            "dense.eigvals.calls": c("dense.eigvals"),
            "dense.schur.calls": c("dense.schur"),
            "dense.factorizations": sum(c(f"dense.{k}") for k in _FLOPS),
            "operators.decompose.calls": c("operators.decompose"),
            "operators.fractional_power.calls": c("operators.fractional_power"),
            "operators.semigroup_apply.calls": c("operators.semigroup_apply"),
            "operators.matrix_sign.schur_fallbacks": c("operators.sign_schur"),
            "solvers.t_levels": self.t_levels,
            "grid.vcoords_to_field.calls": c("grid.vcoords_to_field"),
            "oracle.sparse_lu.calls": c("oracle.sparse_lu"),
            "oracle.lu_solves": c("oracle.lu_solve"),
            "coeffs.make_family.calls": c("coeffs.make_family"),
            "dense.eig_per_row": c("dense.eig") / rows,
            "dense.gflop_computed": self.flops / 1e9,
            "operators.factor_reuse": (1.0 - decompose_eig / c("operators.decompose")
                                       if c("operators.decompose") else 0.0),
            "dump.bytes_written": bytes_written,
            "trace.spans": len(self.spans),
        }
        for m in TIME_METRICS:
            if m.endswith(".self_s"):
                out[m] = self_time.get(m[: -len(".self_s")], 0.0)
            else:
                out[m] = inclusive.get(m[: -len(".s")], 0.0)
        return out

    def dump(self) -> list[list]:
        return [s[:6] for s in self.spans]
