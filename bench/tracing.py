"""Per-layer tracing for the wittcount benchmark, installed at run time.

``Tracer.install()`` replaces chosen public functions and methods of the
wittcount modules with timing wrappers and ``Tracer.uninstall()`` puts the
originals back; no library source changes.  Every wrapped call pushes a
frame on one stack, so a call's self time is its duration minus the time
of the wrapped calls made inside it.  Layer-entry functions also record a
span (name, start, end, parent span) per call; the hot ``polys`` and
``rationals`` methods only add to per-name counters.

The ``fields`` layer is too fine-grained to wrap: ``field_op_ns`` times the
raw ``*_val`` operations directly, and ``poly_op_us`` times polynomial
multiply and divide at fixed degrees, both outside the traced pass.
"""

from __future__ import annotations

import importlib
import random
import statistics
import sys
import time

from wittcount.polys import Polynomial


def _mul_pairs(a, b, *_):
    """Coefficient pairs a schoolbook multiply visits."""
    return len(a.coeffs) * (len(b.coeffs) if isinstance(b, Polynomial) else 1)


def _divmod_pairs(a, b, *_):
    """Quotient steps times divisor length for long division."""
    return len(b.coeffs) * max(len(a.coeffs) - len(b.coeffs) + 1, 0)


# (module, attribute path, span name, one span per call?, work counter)
TARGETS = (
    ("wittcount.polys", "Polynomial.__mul__", "polys.mul", False, _mul_pairs),
    ("wittcount.polys", "Polynomial.__divmod__", "polys.divmod", False, _divmod_pairs),
    ("wittcount.polys", "Polynomial.__add__", "polys.add", False, None),
    ("wittcount.polys", "Polynomial.gcd", "polys.gcd", False, None),
    ("wittcount.rationals", "RationalFunction.__init__", "rationals.normalize", False, None),
    ("wittcount.rationals", "partial_fractions", "rationals.partial_fractions", False, None),
    ("wittcount.witt", "WittVector.add", "witt.add", True, None),
    ("wittcount.witt", "WittVector.neg", "witt.neg", True, None),
    ("wittcount.witt", "WittVector.mul", "witt.mul", True, None),
    ("wittcount.asw", "witt_normalize", "asw.witt_normalize", True, None),
    ("wittcount.asw", "hasse_normalize", "asw.hasse_normalize", True, None),
    ("wittcount.asw", "AswNormalForm.certificate_holds", "asw.certificate_holds", True, None),
    ("wittcount.asw", "infinity_behavior", "asw.infinity_behavior", True, None),
    ("wittcount.counting", "oracle_cyclic_subgroups", "counting.oracle_cyclic", True, None),
    ("wittcount.counting", "oracle_as_classes", "counting.oracle_as_classes", True, None),
    ("wittcount.counting", "oracle_as_classes_by_conductor", "counting.oracle_as_classes",
     True, None),
    ("wittcount.counting", "v_n", "counting.closed_form", True, None),
    ("wittcount.counting", "w", "counting.closed_form", True, None),
    ("wittcount.counting", "t1", "counting.closed_form", True, None),
    ("wittcount.counting", "s_n", "counting.closed_form", True, None),
    ("wittcount.carlitz", "carlitz_compose_check", "carlitz.compose_check", True, None),
    ("wittcount.carlitz", "carlitz_gcd_check", "carlitz.gcd_check", True, None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in TARGETS))
DRIVER_SPAN = "bench.driver"


def _wittcount_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "wittcount" or name.startswith("wittcount."))]


class Tracer:
    """Spans and counters for one traced pass; not reentrant across threads."""

    def __init__(self):
        self._stack = [[0.0, -1]]  # frames: [time of wrapped children, enclosing span]
        self.spans = []  # (name, start_s, end_s, parent span index or -1)
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES + (DRIVER_SPAN,)}
        self._patches = []  # (owner, attribute, original), in install order

    # -- wrappers --

    def _wrap(self, fn, name, per_call, work):
        stack, spans, stat = self._stack, self.spans, self.stats[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            index = len(spans) if per_call else parent
            if per_call:
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    stat[3] += work(*args)
                return result
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                stat[2] += duration
                if per_call:
                    spans[index] = (name, started, ended, parent)

        wrapper.__wrapped__ = fn
        wrapper.bench_span = name
        return wrapper

    def span(self, fn, name=DRIVER_SPAN):
        """``fn`` wrapped in a per-call span (by default the driver's root span)."""
        return self._wrap(fn, name, True, None)

    # -- install / uninstall --

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _wittcount_modules()
        try:
            for module_name, path, name, per_call, work in TARGETS:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, per_call, work)
                # every name bound to the original: aliases such as
                # __rmul__ = __mul__, and ``from .x import f`` in other modules
                holders = modules if not owner_path else [owner]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._patches.append((holder, key, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --

    def counters(self):
        """{span name: {calls, self_s, total_s, work}} over the traced pass."""
        return {name: {"calls": c, "self_s": s, "total_s": t, "work": w}
                for name, (c, s, t, w) in self.stats.items()}


def leftover_wrappers():
    """Names in the wittcount modules and classes still bound to a wrapper."""
    found = []
    for module in _wittcount_modules():
        for key, value in vars(module).items():
            if getattr(value, "bench_span", None):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, "bench_span", None):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


# -- timed operations beside the traced pass --

FIELD_OPS = ("add", "neg", "sub", "mul", "inv")
FIELD_QS = ((2, 1), (3, 1), (2, 2))
FIELD_CALLS = 4000
POLY_MUL_DEGREES = {8: 400, 40: 40, 200: 2}  # degree -> calls per repeat
POLY_DIVMOD_DEGREES = {40: 40, 200: 2}
REPEATS = 5


def _median_time(run, calls):
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        samples.append((time.perf_counter() - started) / calls)
    return statistics.median(samples)


def field_op_ns(seed):
    """Median ns per raw ``*_val`` call, including the calling loop."""
    import wittcount as wc

    rng = random.Random(f"fields/{seed}")
    out = {}
    for p, s in FIELD_QS:
        fld = wc.field(p, s)
        xs = [rng.randrange(fld.q) for _ in range(FIELD_CALLS)]
        ys = [rng.randrange(1, fld.q) for _ in range(FIELD_CALLS)]
        pairs = list(zip(xs, ys))
        binary = {"add": fld.add_val, "sub": fld.sub_val, "mul": fld.mul_val}
        unary = {"neg": (fld.neg_val, xs), "inv": (fld.inv_val, ys)}
        for op in FIELD_OPS:
            if op in binary:
                f = binary[op]
                run = lambda: [f(a, b) for a, b in pairs]
            else:
                f, args = unary[op]
                run = lambda: [f(a) for a in args]
            out[f"fields.{op}_ns.q{fld.q}"] = _median_time(run, FIELD_CALLS) * 1e9
    return out


def _random_poly(rng, fld, degree):
    return Polynomial(fld, [rng.randrange(fld.q) for _ in range(degree)] + [rng.randrange(1, fld.q)])


def poly_op_us(seed):
    """Median us per multiply over F_4 and per long division over F_3.

    A division at degree d divides a degree-2d dividend by a degree-d divisor.
    """
    import wittcount as wc

    rng = random.Random(f"polys/{seed}")
    out = {}
    f4, f3 = wc.field(2, 2), wc.field(3, 1)
    for degree, calls in POLY_MUL_DEGREES.items():
        a, b = _random_poly(rng, f4, degree), _random_poly(rng, f4, degree)
        out[f"polys.mul_us.q4.deg{degree}"] = _median_time(
            lambda: [a * b for _ in range(calls)], calls) * 1e6
    for degree, calls in POLY_DIVMOD_DEGREES.items():
        a, b = _random_poly(rng, f3, 2 * degree), _random_poly(rng, f3, degree)
        out[f"polys.divmod_us.q3.deg{degree}"] = _median_time(
            lambda: [divmod(a, b) for _ in range(calls)], calls) * 1e6
    return out
