"""Per-layer counts, self times and spans for the traced run.

``LayerTrace.install()`` wraps each layer's public functions (and a few
``Mat2``/``SimpleCrust`` methods on their classes) and patches every name
under which barkfib modules look them up: ``from .sl2z import conj``
binds ``barkfib.splitting.conj``, so patching ``barkfib.sl2z.conj``
alone would miss every call the search makes.  ``uninstall()`` restores
the originals.

Time is charged to a timing key (a layer, or for ``splitting`` one of its
stages).  A call that enters a key other than the innermost active one is
timed; its duration is added to that key's self time and subtracted from
the enclosing key's, so each key's self time excludes its child layers.
Calls within the same key (``Mat2.__mul__`` building a ``Mat2``) are only
counted, which keeps hot leaf calls cheap: they get an aggregated count
and time, never a span.  Layer-entry calls get a span with a parent id.
"""

import functools
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, timing key, counter, span?) for module functions.
FUNCTIONS = [
    ("sl2z", "conj", "sl2z", "sl2z.conj_calls", False),
    ("sl2z", "eval_word", "sl2z", "sl2z.eval_word_calls", False),
    ("sl2z", "inverse", "sl2z", None, False),
    ("sl2z", "trace", "sl2z", None, False),
    ("sl2z", "parse_word", "sl2z", None, False),
    ("sl2z", "format_word", "sl2z", None, False),
    ("kodaira", "standard_monodromy", "kodaira", "kodaira.standard_monodromy_calls", False),
    ("kodaira", "classify", "kodaira", "kodaira.classify_calls", False),
    ("kodaira", "standard_word", "kodaira", None, False),
    ("kodaira", "parse_fiber", "kodaira", None, False),
    ("kodaira", "euler", "kodaira", None, False),
    ("splitting", "search_factorization", "splitting.search", "splitting.search_calls", True),
    ("splitting", "enumerate_multisets", "splitting.enumerate", None, False),
    ("splitting", "decomposition_verdict", "splitting.verdict", "splitting.verdict_calls", False),
    ("splitting", "verify_witness", "splitting.other", None, False),
    ("splitting", "all_witnesses", "splitting.other", None, False),
    ("splitting", "euler_deficit", "splitting.other", None, False),
    ("crust", "enumerate_simple_crusts", "crust", "crust.enumerate_calls", True),
    ("crust", "core_section_exists", "crust", "crust.core_section_checks", False),
    ("crust", "classify_subbranch", "crust", None, False),
    ("crust", "is_proportional", "crust", None, False),
    ("crust", "crust_from_json", "crust", None, False),
    ("crust", "crust_to_json", "crust", None, False),
    ("crust", "stellar_from_json", "crust", None, False),
    ("subord", "full_report", "subord", "subord.full_report_calls", True),
    ("subord", "predict_counts", "subord", "subord.predict_calls", False),
    ("subord", "determine_types", "subord", None, False),
    ("subord", "count_bounds", "subord", None, False),
    ("subord", "core_invariant", "subord", None, False),
    ("localmodel", "singular_s_values", "localmodel", "localmodel.s_values_calls", False),
    ("localmodel", "singular_points", "localmodel", None, False),
    ("localmodel", "essential_zeros", "localmodel", "localmodel.ezeros_calls", True),
    ("localmodel", "subordinate_s_from_core", "localmodel", None, False),
    ("cli", "main", "cli", "cli.main_calls", True),
]

# (module, class, method, timing key, counter) patched on the class.
METHODS = [
    ("sl2z", "Mat2", "__init__", "sl2z", "sl2z.mat_new"),
    ("sl2z", "Mat2", "__mul__", "sl2z", "sl2z.mul_calls"),
    ("sl2z", "Mat2", "__eq__", "sl2z", None),
    ("sl2z", "Mat2", "__hash__", "sl2z", None),
    ("sl2z", "Word", "__init__", "sl2z", None),
    ("crust", "SimpleCrust", "__post_init__", "crust", None),
    ("crust", "SimpleCrust", "first_values", "crust", None),
    ("crust", "SimpleCrust", "proportional_subbranches", "crust", None),
    ("subord", "SplittingReport", "to_json", "subord", None),
    ("localmodel", "LocalCurveSpec", "__post_init__", "localmodel", None),
]

LAYERS = ("sl2z", "kodaira", "splitting", "crust", "subord", "localmodel", "cli")

COUNTERS = [
    "sl2z.mat_new",
    "sl2z.mul_calls",
    "sl2z.conj_calls",
    "sl2z.eval_word_calls",
    "kodaira.standard_monodromy_calls",
    "kodaira.classify_calls",
    "splitting.search_calls",
    "splitting.conj_calls",
    "splitting.conj_distinct",
    "splitting.candidates",
    "splitting.verdict_calls",
    "splitting.forbidden",
    "crust.enumerate_calls",
    "crust.core_section_checks",
    "crust.simplecrust_attempts",
    "crust.simplecrust_rejects",
    "crust.crusts_found",
    "subord.full_report_calls",
    "subord.predict_calls",
    "subord.hypothesis_fallbacks",
    "subord.ambiguous",
    "localmodel.s_values_calls",
    "localmodel.points_verified",
    "localmodel.ezeros_calls",
    "localmodel.ezeros_found",
    "cli.main_calls",
]

# Self-time metrics and the timing keys each one sums.
SELF_TIMES = {
    "sl2z.self_s": ("sl2z",),
    "kodaira.self_s": ("kodaira",),
    "splitting.search_self_s": ("splitting.search",),
    "splitting.enumerate_self_s": ("splitting.enumerate",),
    "splitting.verdict_self_s": ("splitting.verdict",),
    "splitting.self_s": (
        "splitting.search",
        "splitting.enumerate",
        "splitting.verdict",
        "splitting.other",
    ),
    "crust.self_s": ("crust",),
    "subord.self_s": ("subord",),
    "localmodel.self_s": ("localmodel",),
    "cli.self_s": ("cli",),
}

# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "splitting.conj_useful_ratio": ("splitting.conj_distinct", "splitting.conj_calls"),
    "splitting.forbidden_ratio": ("splitting.forbidden", "splitting.verdict_calls"),
    "crust.accept_ratio": ("crust.crusts_found", "crust.simplecrust_attempts"),
}


class LayerTrace:
    """Counts, self times and spans; state lives on the instance."""

    def __init__(self):
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self.spans = []
        self.request = None  # id of the query being run
        self._stack = []  # [timing key, child seconds] per timed frame
        self._span_stack = []
        self._patches = []
        self._search_conjugates = []  # per active search: {base: set}

    # ---------------------------------------------------------- wrapping
    def _timed(self, key, fn, counter=None, span_name=None, after=None):
        """Wrap ``fn``: count it, time it when it enters a new key, and
        call ``after(args, result, exc)`` for derived counts."""
        counts, self_time, stack = self.counts, self.self_time, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if stack and stack[-1][0] == key and span_name is None:
                if after is None:
                    return fn(*args, **kwargs)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    after(args, None, exc)
                    raise
                after(args, result, None)
                return result
            frame = [key, 0.0]
            span = self._open_span(span_name) if span_name else None
            stack.append(frame)
            start = perf_counter()
            result = exc_seen = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                exc_seen = exc
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_time[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span is not None:
                    self._close_span(span)
                if after is not None:
                    after(args, result, exc_seen)
            return result

        return wrapper

    def _open_span(self, name):
        parent = self._span_stack[-1]["id"] if self._span_stack else None
        span = {
            "id": len(self.spans),
            "parent": parent,
            "name": name,
            "request": self.request,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._span_stack.append(span)
        return span

    def _close_span(self, span):
        span["end"] = perf_counter()
        self._span_stack.pop()

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_everywhere(self, modules, original, wrapper):
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapper)

    # ------------------------------------------------- derived counters
    def _after_hooks(self, mods):
        counts = self.counts
        forbidden = mods["splitting"].FORBIDDEN
        hypothesis_error = mods["subord"].HypothesisError

        def enumerate_done(args, result, exc):
            if result is not None:
                counts["splitting.candidates"] += len(result)

        def verdict_done(args, result, exc):
            if result is not None and result[0] == forbidden:
                counts["splitting.forbidden"] += 1

        def crusts_done(args, result, exc):
            if result is not None:
                counts["crust.crusts_found"] += len(result)

        def report_done(args, result, exc):
            if result is not None and result.ambiguous:
                counts["subord.ambiguous"] += 1

        def predict_done(args, result, exc):
            if isinstance(exc, hypothesis_error):
                counts["subord.hypothesis_fallbacks"] += 1

        def points_done(args, result, exc):
            if result is not None:
                counts["localmodel.points_verified"] += len(result)

        def ezeros_done(args, result, exc):
            if result is not None:
                counts["localmodel.ezeros_found"] += len(result)

        return {
            "enumerate_multisets": enumerate_done,
            "decomposition_verdict": verdict_done,
            "enumerate_simple_crusts": crusts_done,
            "full_report": report_done,
            "predict_counts": predict_done,
            "singular_points": points_done,
            "essential_zeros": ezeros_done,
        }

    def install(self):
        import barkfib
        from barkfib import cli, crust, kodaira, localmodel, sl2z, splitting, subord

        mods = {
            "sl2z": sl2z,
            "kodaira": kodaira,
            "splitting": splitting,
            "crust": crust,
            "subord": subord,
            "localmodel": localmodel,
            "cli": cli,
        }
        modules = [barkfib] + list(mods.values())
        hooks = self._after_hooks(mods)
        stack = self._stack

        for mod_name, attr, key, counter, span in FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            fn = original
            if attr == "search_factorization":
                fn = self._search_entry(original)
            wrapper = self._timed(
                key,
                fn,
                counter,
                "%s.%s" % (mod_name, attr) if span else None,
                hooks.get(attr),
            )
            self._patch_everywhere(modules, original, wrapper)
            if attr == "conj":
                # The search's own binding also counts conjugations tried.
                self._patch(splitting, "conj", self._search_conj(wrapper, stack))

        for mod_name, cls_name, method, key, counter in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[method]
            if cls_name == "SimpleCrust" and method == "__post_init__":
                original = self._crust_attempt(original)
            self._patch(cls, method, self._timed(key, original, counter))
        return self

    def _search_entry(self, search):
        """Collect the distinct conjugates of one search, per base matrix."""

        @functools.wraps(search)
        def entry(*args, **kwargs):
            conjugates = defaultdict(set)
            self._search_conjugates.append(conjugates)
            try:
                return search(*args, **kwargs)
            finally:
                self._search_conjugates.pop()
                self.counts["splitting.conj_distinct"] += sum(map(len, conjugates.values()))

        return entry

    def _search_conj(self, conj_wrapper, stack):
        """``conj`` as the search looks it up: conjugations made by the search
        itself (not by the witness check it calls) are counted."""
        counts, active = self.counts, self._search_conjugates

        def conj(m, g):
            result = conj_wrapper(m, g)
            if stack and stack[-1][0] == "splitting.search":
                counts["splitting.conj_calls"] += 1
                active[-1][m.entries()].add(result.entries())
            return result

        return conj

    def _crust_attempt(self, post_init):
        counts = self.counts

        def attempt(crust_self):
            enumerating = self._in_span("crust.enumerate_simple_crusts")
            if enumerating:
                counts["crust.simplecrust_attempts"] += 1
            try:
                post_init(crust_self)
            except ValueError:
                if enumerating:
                    counts["crust.simplecrust_rejects"] += 1
                raise

        return attempt

    def _in_span(self, name):
        return bool(self._span_stack) and self._span_stack[-1]["name"] == name

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ----------------------------------------------------------- results
    def metrics(self):
        out = {name: float(self.counts[name]) for name in COUNTERS}
        for name, (num, den) in RATIOS.items():
            out[name] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        for name, keys in SELF_TIMES.items():
            out[name] = sum(self.self_time[k] for k in keys)
        return out

    def span_summary(self):
        summary = {}
        for span in self.spans:
            entry = summary.setdefault(span["name"], {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += span["end"] - span["start"]
        return summary
