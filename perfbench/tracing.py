"""Outside-in per-layer tracing of magnomech.

The tracer rebinds public functions of the library in every ``magnomech``
module namespace that holds them, so calls made through ``cli``, ``sweep`` or
the package namespace all pass through a span. Nothing in ``src/`` is edited.

Spans are aggregated as they close instead of being stored: for each span
name the tracer keeps the call count and the self time (span duration minus
the time covered by its child spans). A call whose caller is a span of the
same name is folded into that span, so ``drift_from_params`` calling
``quadrature_drift`` counts as one drift call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: (module, attribute, span name). Attributes are looked up in the module
#: named first and rebound wherever else the same object is bound.
TARGETS = (
    ("magnomech.cli", "main", "cli"),
    ("magnomech.config", "default_config", "config"),
    ("magnomech.config", "load_config", "config"),
    ("magnomech.config", "apply_overrides", "config"),
    ("magnomech.config", "merge_layers", "config"),
    ("magnomech.config", "build_params", "config"),
    ("magnomech.steady_state", "working_point", "steady_state.working_point"),
    ("magnomech.dynamics", "quadrature_drift", "dynamics.drift"),
    ("magnomech.dynamics", "drift_from_params", "dynamics.drift"),
    ("magnomech.dynamics", "stability", "dynamics.stability"),
    ("magnomech.dynamics", "diffusion_matrix", "dynamics.diffusion"),
    ("magnomech.dynamics", "diffusion_from_params", "dynamics.diffusion"),
    ("magnomech.measures", "solve_lyapunov", "measures.lyapunov"),
    ("magnomech.measures", "physicality_margin", "measures.physicality"),
    ("magnomech.measures", "pair_measures", "measures.pair"),
    ("magnomech.measures", "ppt_symplectic_eigenvalues", "measures.ppt_check"),
    ("magnomech.measures", "steering", "measures.steering"),
    ("magnomech.measures", "steering_between", "measures.steering"),
    ("magnomech.sweep", "run_sweep", "sweep.driver"),
    ("magnomech.sweep", "evaluate_point", "sweep.evaluate"),
    ("magnomech.sweep", "vanishing_temperature", "sweep.vanish"),
)

#: Method targets: (module, class, method, span name).
METHOD_TARGETS = (
    ("magnomech.sweep", "SweepResult", "to_csv", "sweep.to_csv"),
)

#: Error codes a sweep cell can carry, plus the codes the benchmark gives
#: exceptions raised by whole-call library functions.
ERROR_CODES = ("degenerate_denominator", "non_convergence", "singular_solve",
               "eigen_solve", "nonphysical_cm", "cross_check_mismatch",
               "parameter_error", "bracket_invalid", "unstable", "error")

_EXCEPTION_CODES = {
    "DegenerateDenominatorError": "degenerate_denominator",
    "NonConvergenceError": "non_convergence",
    "SingularSolveError": "singular_solve",
    "EigenSolveError": "eigen_solve",
    "NonPhysicalCMError": "nonphysical_cm",
    "CrossCheckMismatchError": "cross_check_mismatch",
    "ParameterError": "parameter_error",
    "BracketInvalidError": "bracket_invalid",
    "UnstableSystemError": "unstable",
}


def exception_code(exc: BaseException) -> str:
    """Error code of a library exception, by class name."""
    return _EXCEPTION_CODES.get(type(exc).__name__, "error")


class Tracer:
    """Aggregating span recorder; use as a context manager around traced work."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_rel_residual = 0.0
        self._stack: list[list] = []   # [name, start, child_time]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, func, observe=None):
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return func(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            result = error = None
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if observe is not None:
                    observe(args, kwargs, result, error)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def _observer(self, attr: str):
        counts = self.counts
        if attr == "working_point":
            def observe(args, kwargs, result, exc):
                if result is not None:
                    counts["steady_state.iterations"] += result.iterations
        elif attr == "stability":
            def observe(args, kwargs, result, exc):
                if result is not None and result.stable:
                    counts["dynamics.stable"] += 1
        elif attr == "solve_lyapunov":
            def observe(args, kwargs, result, exc):
                if result is None:
                    return
                diffusion = args[1] if len(args) > 1 else kwargs["diffusion"]
                scale = float(abs(diffusion.d).max())
                if scale > 0.0:
                    self.max_rel_residual = max(self.max_rel_residual,
                                                result.residual / scale)
        elif attr == "pair_measures":
            def observe(args, kwargs, result, exc):
                if exc is not None and exception_code(exc) == "cross_check_mismatch":
                    counts["measures.cross_check_failures"] += 1
        elif attr == "evaluate_point":
            def observe(args, kwargs, result, exc):
                counts["sweep.points"] += 1
                if result is not None and result["error"]:
                    counts["sweep.failed." + result["error"]] += 1
        elif attr == "vanishing_temperature":
            def observe(args, kwargs, result, exc):
                if exc is not None:
                    counts["sweep.failed." + exception_code(exc)] += 1
        else:
            return None
        return observe

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod_name in {t[0] for t in TARGETS + METHOD_TARGETS}:
            importlib.import_module(mod_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "magnomech" or n.startswith("magnomech.")) and m is not None]
        for mod_name, attr, span in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span, original, self._observer(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, span in METHOD_TARGETS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()
