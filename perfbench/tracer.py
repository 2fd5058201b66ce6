"""Outside-in tracing of cotzeta's layers.

The tracer replaces public functions on cotzeta's modules with wrappers that
record one span per call: (span id, parent id, name, start, end, request id).
Calls that go through a module attribute, such as ``specfn.hurwitz_zeta``
from inside ``riemann_zeta`` or ``recip``, reach the wrapper; names bound by
``from ... import`` inside the package (``ComplexVal``, ``_e_twist``) do not,
so only functions reached through a module attribute are listed.  Helpers
whose cost is close to the wrapper's own (``bernoulli_number``,
``poly_eval``, ``ComplexVal`` arithmetic) are left alone.

Spans are kept in memory while the traced pass runs and reduced to per-layer
metrics afterwards; the wrappers are removed again when the pass ends, so the
untraced passes run cotzeta's own functions.
"""

from __future__ import annotations

import contextvars
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import mpmath

# Functions wrapped per module.  Each is reached through a module attribute
# by its callers inside the package or by the benchmark.
WRAPPED = {
    "exact": ["apostol_sum", "dedekind_sum", "thm13_rhs", "exact_c_minus_n",
              "verify_thm13", "psi_polynomial", "g_polynomial", "zeta_neg_int"],
    "specfn": ["hurwitz_zeta", "riemann_zeta", "hurwitz_zeta_x_deriv",
               "complex_gamma", "polygamma", "cot_derivative",
               "apostol_bernoulli", "lerch_phi", "divisor_sigma",
               "_sigma_prefix_mpc", "eisenstein_E"],
    "sums": ["bc_sum_general", "bc_sum", "bc_sum_higher", "cotangent_sum_C",
             "cotangent_sum_C_trig"],
    "recip": ["cot_product_line_integral", "line_integral_cotcot",
              "closed_form_integral", "verify_cor23", "verify_thm12",
              "laurent_coeff_cot", "laurent_coeff_zeta", "laurent_coeff",
              "convolution_at_zero", "residue_at_one", "_generalized_lhs",
              "verify_thm31", "verify_thm32", "verify_cor33", "g_a_numeric",
              "psi_a_numeric", "verify_thm11", "verify_eisenstein_period",
              "verify_thm14_cross", "verify_dedekind_recip"],
    "estermann": ["estermann_series", "estermann_hurwitz",
                  "estermann_nonpositive", "verify_thm44", "verify_prop43",
                  "verify_lemma42", "verify_lemma41", "verify_cor45"],
}

# Calls counted (not spanned) while a span of the given name is open:
# counter name -> (open span name, counted callable name).
NESTED_COUNTS = {
    "recip.cot_product_line_integral.cot_evals": ("recip.cot_product_line_integral", "mpmath.cot"),
}

# Calls whose returned abs_err is compared with the target they were given.
TARGET_CHECKED = ("specfn.hurwitz_zeta", "estermann.estermann_series")


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the time covered by child spans.

    ``spans`` holds (span id, parent id, name, start, end, request id).  The
    layer is single threaded, so children of one span never overlap and their
    covered time is the sum of their durations.
    """
    child_time: dict = defaultdict(float)
    for sid, parent, _name, start, end, _req in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid]
            for sid, _parent, _name, start, end, _req in spans}


def _target_of(rest, kwargs):
    """target_abs_err of the PrecisionConfig passed after the value arguments."""
    import cotzeta
    cfg = kwargs.get("cfg", rest[0] if rest else None)
    return (cfg or cotzeta.DEFAULT_PRECISION).target_abs_err


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.error_ids: set = set()
        self.target_misses: Counter = Counter()
        self.nested: Counter = Counter()
        self._open: Counter = Counter()
        self._current = contextvars.ContextVar("span", default=None)
        self._request = contextvars.ContextVar("request", default=None)
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    def _count_nested(self, callee: str):
        for counter, (opener, counted) in NESTED_COUNTS.items():
            if counted == callee and self._open[opener]:
                self.nested[counter] += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        self._count_nested(name)
        sid = self._next_id
        self._next_id += 1
        parent = self._current.get()
        token = self._current.set(sid)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.error_ids.add(sid)
            raise
        finally:
            end = time.perf_counter()
            self._open[name] -= 1
            self._current.reset(token)
            self.spans.append((sid, parent, name, start, end, self._request.get()))

    @contextmanager
    def request(self, request_id: int):
        """Mark every span opened inside as belonging to one request."""
        token = self._request.set(request_id)
        try:
            yield
        finally:
            self._request.reset(token)

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "specfn.hurwitz_zeta":
            def wrapper(s, x, *args, **kwargs):
                half = "left" if mpmath.re(s) < 0.5 else "right"
                out = tracer.span(f"{name}.{half}", fn, s, x, *args, **kwargs)
                tracer._check_target(name, out, args, kwargs)
                return out
        elif name in TARGET_CHECKED:
            def wrapper(*args, **kwargs):
                out = tracer.span(name, fn, *args, **kwargs)
                tracer._check_target(name, out, args[1:], kwargs)
                return out
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _check_target(self, name, out, args, kwargs):
        if out.abs_err > _target_of(args, kwargs):
            self.target_misses[name] += 1

    @contextmanager
    def installed(self):
        """Wrap the listed functions (and mpmath's cot) for the duration."""
        import cotzeta
        saved = []
        try:
            for layer, names in WRAPPED.items():
                module = getattr(cotzeta, layer)
                for fname in names:
                    original = getattr(module, fname)
                    saved.append((module, fname, original))
                    setattr(module, fname, self._wrap(f"{layer}.{fname}", original))
            from cotzeta import cli
            group_main = cli.main.main
            cli.main.main = self._wrap("cli.main", group_main)
            saved.append((cli.main, "main", None))
            original_cot = mpmath.cot
            saved.append((mpmath, "cot", original_cot))

            def cot(*args, **kwargs):
                self._count_nested("mpmath.cot")
                return original_cot(*args, **kwargs)

            mpmath.cot = cot
            yield self
        finally:
            for owner, fname, original in reversed(saved):
                if original is None:  # an instance attribute shadowing a method
                    delattr(owner, fname)
                else:
                    setattr(owner, fname, original)

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name and per-layer call counts, self times and error counts.

        A layer's error count is the number of exceptions that left the layer:
        raising spans whose parent belongs to another layer (or is the bench).
        """
        selfs = self_times(self.spans)
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        name_of = {}
        for sid, _parent, name, _start, _end, _req in self.spans:
            name_of[sid] = name
            calls[name] += 1
            self_s[name] += selfs[sid]
            self_s[_layer(name)] += selfs[sid]
        errors: Counter = Counter()
        layer_errors: Counter = Counter()
        for sid, parent, name, _start, _end, _req in self.spans:
            if sid in self.error_ids:
                errors[name] += 1
                if parent is None or _layer(name_of[parent]) != _layer(name):
                    layer_errors[_layer(name)] += 1
        return {"calls": calls, "self_s": self_s, "errors": errors,
                "layer_errors": layer_errors, "target_misses": self.target_misses,
                "nested": self.nested}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]
