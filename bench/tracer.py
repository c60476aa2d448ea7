"""Outside-in tracing of probcal's public functions.

Each hook names a public function by its defining module. ``Tracer.install``
replaces every binding of that function object in the loaded ``probcal``
modules -- the defining module and every module that imported it by name --
so a call is timed wherever it is looked up. Spans (name, start, end,
parent) and counts are kept in memory; ``Tracer.uninstall`` restores the
original bindings. A hook whose function no longer exists is reported as
absent instead of failing the run.
"""

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Hook:
    name: str            # metric prefix, "<layer>.<function>"
    module: str          # defining module
    function: str        # attribute name in the defining module
    span: bool = True    # False: count calls only, no span
    count_as: Optional[str] = None  # counter name for count-only hooks
    on_result: Optional[Callable] = None  # (tracer, result) -> None
    callbacks: tuple = ()  # (argument, span name): callable arguments timed as child spans


def _isotonic_breakpoints(tracer, model):
    for m in getattr(model, "maps", ()):
        bp = getattr(m, "breakpoints", None)
        if bp is not None:
            tracer.counts["ovr.isotonic_breakpoints"] += len(bp)


def _resamples(tracer, result):
    tracer.counts["stattest.resamples"] += int(getattr(result, "n_resamples", 0))


def _optim_result(tracer, result):
    tracer.counts["optim.iterations"] += int(getattr(result, "iterations", 0))
    tracer.counts["optim.converged"] += int(bool(getattr(result, "converged", False)))


HOOKS = (
    Hook("cli.read_predictions", "probcal.cli", "read_predictions"),
    Hook("cli.write_probabilities", "probcal.cli", "write_probabilities"),
    Hook("cli.save_model", "probcal.cli", "save_model"),
    Hook("cli.load_model", "probcal.cli", "load_model"),
    Hook("core.clip_probabilities", "probcal.core", "clip_probabilities"),
    Hook("core.as_probability_matrix", "probcal.core", "as_probability_matrix",
         span=False, count_as="core.validate_calls"),
    Hook("core.as_label_vector", "probcal.core", "as_label_vector",
         span=False, count_as="core.validate_calls"),
    Hook("optim.minimize", "probcal.optim", "minimize", on_result=_optim_result,
         callbacks=(("fun", "optim.fun"), ("hess", "optim.hess"))),
    Hook("dirichlet.fit", "probcal.dirichlet", "fit"),
    Hook("scaling.fit_temperature", "probcal.scaling", "fit_temperature"),
    Hook("scaling.fit_affine_logit", "probcal.scaling", "fit_affine_logit"),
    Hook("ovr.fit_ovr", "probcal.ovr", "fit_ovr", on_result=_isotonic_breakpoints),
    Hook("ovr.apply_ovr", "probcal.ovr", "apply_ovr"),
    Hook("models.fit_calibrator", "probcal.models", "fit_calibrator"),
    Hook("harness.cross_val_fit", "probcal.harness", "cross_val_fit"),
    Hook("harness.compare_methods", "probcal.harness", "compare_methods"),
    Hook("metrics.evaluate", "probcal.metrics", "evaluate"),
    Hook("metrics.log_loss", "probcal.metrics", "log_loss"),
    Hook("stattest.calibration_test", "probcal.stattest", "calibration_test",
         on_result=_resamples),
    Hook("stattest.counter_uniforms", "probcal.stattest", "counter_uniforms"),
)


class Tracer:
    """Collects spans and counts while its hooks are installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []        # [name, start, end, parent index]
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._saved = []       # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.counts[name + "_calls"] += 1

    def _wrap(self, hook, original):
        tracer = self
        if not hook.span:
            def counted(*args, **kwargs):
                tracer.counts[hook.count_as] += 1
                return original(*args, **kwargs)
            return counted

        signature = inspect.signature(original) if hook.callbacks else None

        def traced(*args, **kwargs):
            if signature is not None:
                args, kwargs = tracer._wrap_callbacks(hook, signature, args, kwargs)
            result = tracer._timed(hook.name, original, args, kwargs)
            if hook.on_result is not None:
                hook.on_result(tracer, result)
            return result
        return traced

    def _wrap_callbacks(self, hook, signature, args, kwargs):
        bound = signature.bind_partial(*args, **kwargs)
        for arg, name in hook.callbacks:
            fn = bound.arguments.get(arg)
            if callable(fn):
                bound.arguments[arg] = (
                    lambda *a, _fn=fn, _name=name, **k: self._timed(_name, _fn, a, k)
                )
        return bound.args, bound.kwargs

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "probcal" or n.startswith("probcal."))]
        for hook in self.hooks:
            owner = sys.modules.get(hook.module)
            original = getattr(owner, hook.function, None) if owner else None
            if original is None:
                self.absent.append(hook.name)
                continue
            wrapper = self._wrap(hook, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- summaries -----------------------------------------------------------

    def totals(self):
        """Per span name: (inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            incl, own = out.get(name, (0.0, 0.0))
            out[name] = (incl + end - start, own + end - start - covered)
        return out

    def records(self):
        """Spans as JSON-ready dicts, in start order."""
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)]
