"""Span tracing of gausscap's public functions, installed from outside.

Each traced function is replaced by a wrapper at every lookup site: every
`gausscap.*` module attribute bound to it (so `gausscap.bounds.bosonic_entropy`
is wrapped along with `gausscap.symplectic.bosonic_entropy`), and for classes
the `__init__` on the class itself. Spans are aggregated in memory as they
close, per layer: calls, inclusive time and self time (a span's duration
minus the time covered by its child spans). Calls are also counted per
(outermost layer, layer) pair, so a count can be attributed to the
operation that caused it. Nothing is written until `snapshot()`.
"""

import sys
from collections import Counter
from time import perf_counter_ns

# Layer name -> (module, attribute) pairs; "Class.__init__" wraps construction.
LAYERS = {
    "symplectic.bosonic_entropy": [("gausscap.symplectic", "bosonic_entropy")],
    "symplectic.symplectic_eigenvalues": [("gausscap.symplectic", "symplectic_eigenvalues")],
    "symplectic.is_physical_cov": [("gausscap.symplectic", "is_physical_cov")],
    "symplectic.GaussianState": [("gausscap.symplectic", "GaussianState.__init__")],
    "channels.GaussianChannel": [("gausscap.channels", "GaussianChannel.__init__")],
    "channels.PhaseInsensitiveParams": [("gausscap.channels", "PhaseInsensitiveParams.__init__")],
    "channels.apply": [("gausscap.channels", "apply")],
    "bounds.closed_forms": [
        ("gausscap.bounds", name)
        for name in (
            "additive_lower", "additive_naj", "additive_plob", "additive_flagged_extension",
            "amplifier_lower", "amplifier_plob", "amplifier_naj", "amplifier_flagged_extension",
            "beta_tilde", "attenuator_lower", "attenuator_plob", "attenuator_rosati",
            "attenuator_extension",
        )
    ],
    "bounds.reports": [
        ("gausscap.bounds", name)
        for name in ("bounds_additive", "bounds_amplifier", "bounds_attenuator",
                     "bounds_report", "BoundReport.to_dict")
    ],
    "bounds.decomposition": [
        ("gausscap.bounds", "combined_decomposition_bound"),
        ("gausscap.bounds", "golden_section_minimize"),
    ],
    "bounds.oracle": [("gausscap.bounds", "coherent_info_thermal")],
    "figures.build": [("gausscap.figures", "build_figure")],
    "figures.write_csv": [("gausscap.figures", "write_csv")],
    "verify.checks": [
        ("gausscap.verify", name)
        for name in (
            "check_extended_attenuator_degradability", "check_flag_condition",
            "check_gauge_covariance", "check_classical_mixing_representation",
            "check_spectrum_asymptotics",
        )
    ],
}

GOLDEN = ("gausscap.bounds", "golden_section_minimize")


class Tracer:
    def __init__(self):
        self.layers = {name: [0, 0, 0] for name in LAYERS}  # calls, total ns, self ns
        self.calls = Counter()  # per function "module.attr"
        self.nested = Counter()  # (outermost layer, layer) -> calls
        self.golden_evals = 0
        self.missing = []
        self._stack = []  # [layer, child ns] per open span
        self._undo = []

    def _wrap(self, layer: str, key: str, fn):
        stats, stack, calls, nested = self.layers[layer], self._stack, self.calls, self.nested

        def traced(*args, **kwargs):
            stack.append([layer, 0])
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()[1]
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                calls[key] += 1
                if stack:
                    stack[-1][1] += dt
                    nested[(stack[0][0], layer)] += 1
                else:
                    nested[(layer, layer)] += 1

        return traced

    def _count_golden(self, fn):
        def golden(f, *args, **kwargs):
            def objective(x):
                self.golden_evals += 1
                return f(x)

            return fn(objective, *args, **kwargs)

        return golden

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gausscap" or name.startswith("gausscap."))]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                key = f"{modname}.{attr}"
                owner = sys.modules.get(modname)
                cls_name, _, meth = attr.partition(".")
                orig = getattr(owner, cls_name, None)
                if meth:
                    cls, orig = orig, vars(orig).get(meth) if orig is not None else None
                if orig is None:
                    self.missing.append(key)
                    continue
                if meth:
                    self._set(cls, meth, self._wrap(layer, key, orig), orig)
                    continue
                fn = self._count_golden(orig) if (modname, attr) == GOLDEN else orig
                wrapper = self._wrap(layer, key, fn)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, name, wrapper, orig)

    def _set(self, owner, name, new, old):
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def uninstall(self):
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def snapshot(self) -> dict:
        return {
            "layers": {k: {"calls": c, "total_ns": t, "self_ns": s}
                       for k, (c, t, s) in self.layers.items()},
            "calls": dict(self.calls),
            "nested": {f"{a}>{b}": n for (a, b), n in self.nested.items()},
            "golden_evals": self.golden_evals,
            "missing": self.missing,
        }
