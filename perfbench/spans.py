"""Outside-in tracing of the rokhlin layers.

The program is not edited: each traced function is replaced, in every
``rokhlin`` module that holds a reference to it, by a wrapper that records a
span (name, start, end, parent, request).  Methods are replaced on their
class.  Spans stay in memory until the traced pass ends; counters are derived
afterwards from the results the wrappers kept, so counting never lands inside
a parent's span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced callable; the span name is
# "<module>.<last attribute>".
TRACED = (
    ("dynsys", "load_system"),
    ("dynsys", "orbit_decomposition"),
    ("dynsys", "FiniteDynamicalSystem.apply"),
    ("markers", "greedy_markers"),
    ("markers", "marker_certificate"),
    ("towers", "build_tower_family"),
    ("towers", "tower_supports"),
    ("towers", "build_partition"),
    ("towers", "folner_average"),
    ("towers", "verify_tower"),
    ("cstar", "norm"),
    ("cstar", "fiber_sup_norm"),
    ("cstar", "periodic_embedding"),
    ("approx", "run_approximation"),
    ("approx", "derive_params"),
    ("approx", "quotient_approx"),
    ("approx", "quasicentral_unit"),
    ("approx", "ideal_approx"),
    ("approx", "verify_quotient_corner"),
    ("approx", "verify_ideal_corner"),
    ("approx", "assemble_and_verify"),
    ("approx", "IdealSide.composite"),
    ("approx", "QuotientSide.sample"),
    ("cli", "main"),
    ("cli", "parse_element"),
    ("cli", "emit_report"),
)


def _mu_entries(mu) -> int:
    return sum(len(fn) for level in mu for fn in level.values())


def _max_denominator(mu) -> int:
    return max(
        (v.denominator for level in mu for fn in level.values() for v in fn.values()),
        default=1,
    )


# Deterministic counters: name -> (span whose results feed it, result -> int).
COUNTERS = {
    "dynsys.apply_calls": ("dynsys.apply", None),
    "markers.count": ("markers.greedy_markers", lambda cert: len(cert.markers)),
    "towers.mu_entries": ("towers.folner_average", _mu_entries),
    "towers.max_denominator": ("towers.folner_average", _max_denominator),
    "cstar.norm_calls": ("cstar.norm", None),
    "cstar.fiber_sup_norm_calls": ("cstar.fiber_sup_norm", None),
    "cstar.grid_points": ("cstar.fiber_sup_norm", lambda res: sum(res.grids.values())),
    "approx.composite_calls": ("approx.composite", None),
    "approx.sample_calls": ("approx.sample", None),
    "cli.report_bytes": ("cli.emit_report", lambda text: len(text.encode())),
}
# counters taken as a maximum over results rather than a sum
_MAX_COUNTERS = {"towers.max_denominator"}
_KEEP_RESULTS = {span for span, fn in COUNTERS.values() if fn is not None}


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1]}"


def self_metric(name: str) -> str:
    """Per-layer metric holding a span's summed self time."""
    return "cli.main_self_s" if name == "cli.main" else f"{name}_s"


class Tracer:
    """Span recorder installed over the rokhlin modules for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request tag]
        self.results: list[tuple[str, object]] = []
        self.request: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, name in _KEEP_RESULTS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                self.results.append((name, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED callable; a name the program no longer has is
        listed in ``missing`` and its metrics read 0."""
        modules = [m for key, m in sys.modules.items() if key == "rokhlin" or key.startswith("rokhlin.")]
        for module, path in TRACED:
            owner = sys.modules.get(f"rokhlin.{module}")
            *outer, attr = path.split(".")
            for part in [*outer, attr]:
                parent, owner = owner, getattr(owner, part, None)
            if owner is None:
                self.missing.append(span_name(module, path))
                continue
            original, owner = owner, parent
            wrapper = self._wrap(span_name(module, path), original)
            if outer:  # a method: replace it on its class
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Self time per span, inclusive time per span and request tag,
        top-level time, the deterministic counters and the missing names."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        tagged: dict[tuple[str, str], float] = defaultdict(float)
        top = 0.0
        for idx, (name, start, end, parent, tag) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
            calls[name] += 1
            if tag is not None:
                tagged[(name, tag)] += end - start
            if parent < 0:
                top += end - start
        counters: dict[str, int] = {}
        for counter, (span, fn) in COUNTERS.items():
            if fn is None:
                counters[counter] = calls.get(span, 0)
                continue
            values = [fn(res) for name, res in self.results if name == span]
            if counter in _MAX_COUNTERS:
                counters[counter] = max(values, default=0)
            else:
                counters[counter] = sum(values)
        return {
            "self_s": dict(self_s),
            "tagged_s": {f"{name}@{tag}": v for (name, tag), v in tagged.items()},
            "top_level_s": top,
            "counters": counters,
            "missing": self.missing,
        }
