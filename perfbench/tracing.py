"""Per-layer tracing by patching the package's public entry points.

Each wrapper opens a span on a stack, calls the original with the same
arguments and returns its result untouched.  A span's self time is its
duration minus the time covered by its child spans.  Counters are read off
the arguments and results at the same boundaries.  Wrappers are installed
where callers look the names up: a function imported by name into another
module (``from .limits import limit_length`` in ``pipeline``) is patched in
every module that holds it.

Tracing is only installed for the traced run; the untraced run measures
the end-to-end numbers without any wrapper in place.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer metric prefix, defining module, attribute or Class.method, hook)
# Hooks receive (tracer, frame, args, kwargs, result).


def _subst_hook(tr, frame, args, kwargs, result):
    n = len(result)
    tr.count["subst.letters_out"] += n
    if tr.stack:
        tr.stack[-1][1] += n


def _apply_cyclic_hook(tr, frame, args, kwargs, result):
    tr.count["words.letters_cancelled"] += frame[1] - len(result)


def _limit_length_hook(tr, frame, args, kwargs, result):
    tr.count["limits.limit_length.m_stop_sum"] += result.m_stop
    tr.count["limits.limit_length.escalations"] += int(result.classification.escalated)


def _classify_growth_hook(tr, frame, args, kwargs, result):
    tr.count["limits.classify_growth.escalations"] += int(result.escalated)


def _pf_eigen_hook(tr, frame, args, kwargs, result):
    tr.count["spectral.pf_eigen.iterations"] += result.iterations


def _expand_leaf_hook(tr, frame, args, kwargs, result):
    tr.count["laminations.expand_leaf.letters"] += len(result.word)


def _longest_leaf_segment_hook(tr, frame, args, kwargs, result):
    word = args[0] if args else kwargs["word"]
    corpus = args[1] if len(args) > 1 else kwargs["corpus"]
    # both orientations of the doubled word, against every block's automaton
    tr.count["laminations.longest_leaf_segment.letters_scanned"] += 4 * len(word) * corpus.k


def _weak_limit_probe_hook(tr, frame, args, kwargs, result):
    # The sweep retries a dissenting probe on the same cached orbit.
    orbit = kwargs.get("orbit")
    key = (result.word, id(orbit)) if orbit is not None else None
    if key is not None and key == tr.last_probe:
        tr.count["laminations.weak_limit_probe.retries"] += 1
        tr.count["laminations.weak_limit_probe.retry_useful"] += int(result.verdict)
    tr.last_probe = key


def _window_hook(tr, frame, args, kwargs, result):
    tr.count["laminations.quasiperiodicity_window.prefix_letters"] += result.prefix_length


def _cancellation_hook(tr, frame, args, kwargs, result):
    tr.count["cancellation.measure_cancellation.splits"] += result.count


def _substitute_hook(tr, frame, args, kwargs, result):
    tr.count["maps.substitute.letters_out"] += len(result)


SPANS = (
    ("subst", "traintracks._subst", "SubstTable.__call__", _subst_hook),
    ("words.apply_cyclic", "traintracks.words", "Automorphism.apply_cyclic", _apply_cyclic_hook),
    ("words.validate", "traintracks.words", "Automorphism.validate", None),
    ("words.enumerate_cyclic_words", "traintracks.words", "enumerate_cyclic_words", None),
    ("maps.is_train_track", "traintracks.maps", "GraphMap.is_train_track", None),
    ("maps.map_path", "traintracks.maps", "GraphMap.map_path", None),
    ("maps.compose", "traintracks.maps", "GraphMap.compose", None),
    ("spectral.analyze_train_track", "traintracks.spectral", "analyze_train_track", None),
    ("spectral.pf_eigen", "traintracks.spectral", "pf_eigen", _pf_eigen_hook),
    ("limits.limit_length", "traintracks.limits", "limit_length", _limit_length_hook),
    ("limits.classify_growth", "traintracks.limits", "classify_growth", _classify_growth_hook),
    ("limits.per_block_lengths", "traintracks.limits", "per_block_lengths", None),
    ("limits.convergence_constants", "traintracks.limits", "convergence_constants", None),
    ("laminations.find_eigen_seed", "traintracks.laminations", "find_eigen_seed", None),
    ("laminations.expand_leaf", "traintracks.laminations", "expand_leaf", _expand_leaf_hook),
    ("laminations.automaton", "traintracks.laminations", "_SuffixAutomaton.__init__", None),
    (
        "laminations.longest_leaf_segment",
        "traintracks.laminations",
        "longest_leaf_segment",
        _longest_leaf_segment_hook,
    ),
    ("laminations.weak_limit_probe", "traintracks.laminations", "weak_limit_probe", _weak_limit_probe_hook),
    ("laminations.quasiperiodicity_window", "traintracks.laminations", "quasiperiodicity_window", _window_hook),
    ("cancellation.measure_cancellation", "traintracks.cancellation", "measure_cancellation", _cancellation_hook),
    ("pipeline.parse_input", "traintracks.pipeline", "parse_input", None),
    ("pipeline.analyze", "traintracks.pipeline", "analyze", None),
    ("pipeline.equivalence_sweep", "traintracks.pipeline", "equivalence_sweep", None),
    ("pipeline.report_json", "traintracks.pipeline", "report_json", None),
)

# Counted at the boundary but not timed as spans: these run inside hot
# loops whose time already belongs to the spans around them.
COUNTERS = (
    ("traintracks.maps", "GraphMap.substitute", _substitute_hook),
)


class Tracer:
    """Span stack with self time, call counts and boundary counters."""

    def __init__(self):
        self.stack = []  # one [child seconds, child substitution letters] per open span
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.orbit = {"applications": 0, "max_letters": 0, "truncations": 0}
        self.last_probe = None

    def span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self.self_s[name] += dt - frame[0]
                self.total_s[name] += dt
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][0] += dt
            if hook is not None:
                hook(self, frame, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, None, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def orbit_counter(self, fn):
        """CyclicOrbit.word_at: applications, longest word, budget cuts."""

        def wrapper(orbit, m):
            before = len(orbit.words)
            was_cut = orbit.truncated
            result = fn(orbit, m)
            grown = len(orbit.words) - before
            if grown:
                self.orbit["applications"] += grown
                longest = max(len(w) for w in orbit.words[before:])
                self.orbit["max_letters"] = max(self.orbit["max_letters"], longest)
            if orbit.truncated and not was_cut:
                self.orbit["truncations"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every entry point; returns a function that restores them."""
        undo = []
        for name, module, attr, hook in SPANS:
            _patch(module, attr, lambda fn, n=name, h=hook: self.span(n, fn, h), undo)
        for module, attr, hook in COUNTERS:
            _patch(module, attr, lambda fn, h=hook: self.counter(fn, h), undo)
        _patch("traintracks.limits", "CyclicOrbit.word_at", self.orbit_counter, undo)

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def metrics(self) -> dict:
        """Per-layer metric values keyed by their benchmark names."""
        s, c, n = self.self_s, self.count, self.calls
        retries = c["laminations.weak_limit_probe.retries"]
        return {
            "subst.calls": n["subst"],
            "subst.self_s": s["subst"],
            "subst.letters_out": c["subst.letters_out"],
            "words.apply_cyclic.calls": n["words.apply_cyclic"],
            "words.apply_cyclic.self_s": s["words.apply_cyclic"],
            "words.letters_cancelled": c["words.letters_cancelled"],
            "words.validate.self_s": s["words.validate"],
            "words.enumerate_cyclic_words.self_s": s["words.enumerate_cyclic_words"],
            "maps.is_train_track.self_s": s["maps.is_train_track"],
            "maps.map_path.calls": n["maps.map_path"],
            "maps.map_path.self_s": s["maps.map_path"],
            "maps.substitute.letters_out": c["maps.substitute.letters_out"],
            "maps.compose.self_s": s["maps.compose"],
            "spectral.analyze_train_track.self_s": s["spectral.analyze_train_track"],
            "spectral.pf_eigen.self_s": s["spectral.pf_eigen"],
            "spectral.pf_eigen.iterations": c["spectral.pf_eigen.iterations"],
            "limits.orbit.applications": self.orbit["applications"],
            "limits.orbit.max_letters": self.orbit["max_letters"],
            "limits.orbit.truncations": self.orbit["truncations"],
            "limits.limit_length.calls": n["limits.limit_length"],
            "limits.limit_length.self_s": s["limits.limit_length"],
            "limits.limit_length.m_stop_sum": c["limits.limit_length.m_stop_sum"],
            "limits.limit_length.escalations": c["limits.limit_length.escalations"],
            "limits.classify_growth.self_s": s["limits.classify_growth"],
            "limits.classify_growth.escalations": c["limits.classify_growth.escalations"],
            "limits.per_block_lengths.self_s": s["limits.per_block_lengths"],
            "limits.convergence_constants.self_s": s["limits.convergence_constants"],
            "limits.convergence_constants.total_s": self.total_s["limits.convergence_constants"],
            "laminations.find_eigen_seed.self_s": s["laminations.find_eigen_seed"],
            "laminations.expand_leaf.self_s": s["laminations.expand_leaf"],
            "laminations.expand_leaf.letters": c["laminations.expand_leaf.letters"],
            "laminations.automaton.builds": n["laminations.automaton"],
            "laminations.automaton.self_s": s["laminations.automaton"],
            "laminations.longest_leaf_segment.calls": n["laminations.longest_leaf_segment"],
            "laminations.longest_leaf_segment.self_s": s["laminations.longest_leaf_segment"],
            "laminations.longest_leaf_segment.letters_scanned": c[
                "laminations.longest_leaf_segment.letters_scanned"
            ],
            "laminations.weak_limit_probe.calls": n["laminations.weak_limit_probe"],
            "laminations.weak_limit_probe.retries": retries,
            "laminations.weak_limit_probe.retry_hits": (
                c["laminations.weak_limit_probe.retry_useful"] / retries if retries else 0.0
            ),
            "laminations.quasiperiodicity_window.calls": n["laminations.quasiperiodicity_window"],
            "laminations.quasiperiodicity_window.self_s": s["laminations.quasiperiodicity_window"],
            "laminations.quasiperiodicity_window.prefix_letters": c[
                "laminations.quasiperiodicity_window.prefix_letters"
            ],
            "cancellation.measure_cancellation.self_s": s["cancellation.measure_cancellation"],
            "cancellation.measure_cancellation.splits": c["cancellation.measure_cancellation.splits"],
            "pipeline.parse_input.self_s": s["pipeline.parse_input"],
            "pipeline.analyze.self_s": s["pipeline.analyze"],
            "pipeline.equivalence_sweep.self_s": s["pipeline.equivalence_sweep"],
            "pipeline.report_json.self_s": s["pipeline.report_json"],
        }


def _patch(module, attr, make, undo):
    """Replace ``module.attr`` (or ``module.Class.method``) everywhere it is bound."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, make(original))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if (name == "traintracks" or name.startswith("traintracks.")) and getattr(mod, attr, None) is original:
            undo.append((mod, attr, original))
            setattr(mod, attr, wrapped)
