"""Spans around the layers of `cichon`, recorded from outside the package.

`Tracer.install()` replaces named public functions and methods, at module
and class attribute level, with wrappers that record a span (name, start,
end, parent) and accumulate per-span-name call counts and self time (span
time minus the time of its child spans).  Every module of the package
that imported the same function object gets the wrapper too.  A target
that no longer exists is reported with 0 calls instead of failing.
`remove()` restores the originals, so untraced passes run the plain code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, span name).  Span names follow the layers: the
# package's modules, with the CLI's file codec split out of `cli`.
TARGETS = (
    ("cichon.cli", "run", "cli.run"),
    ("cichon.cli", "_load_json", "cli.decode"),
    ("cichon.combinatorics", "FinFunc.from_obj", "cli.decode"),
    ("cichon.combinatorics", "Slalom.from_obj", "cli.decode"),
    ("cichon.combinatorics", "Family.from_obj", "cli.decode"),
    ("cichon.posets", "condition_from_obj", "cli.decode"),
    ("cichon.cli", "_dump", "cli.encode"),
    ("cichon.combinatorics", "FinFunc.to_obj", "cli.encode"),
    ("cichon.combinatorics", "Slalom.to_obj", "cli.encode"),
    ("cichon.combinatorics", "Family.to_obj", "cli.encode"),
    ("cichon.combinatorics", "ThresholdReport.to_obj", "cli.encode"),
    ("cichon.combinatorics", "RelationReport.to_obj", "cli.encode"),
    ("cichon.posets", "condition_to_obj", "cli.encode"),
    ("cichon.diagram", "Cut.to_obj", "cli.encode"),
    ("cichon.combinatorics", "least_threshold", "combinatorics.least_threshold"),
    ("cichon.combinatorics", "family_report", "combinatorics.family_report"),
    ("cichon.combinatorics", "FinFunc.__post_init__", "combinatorics.construct"),
    ("cichon.combinatorics", "Family.__post_init__", "combinatorics.construct"),
    ("cichon.combinatorics", "Slalom.__post_init__", "combinatorics.construct"),
    ("cichon.combinatorics", "WidthProfile.__post_init__", "combinatorics.construct"),
    ("cichon.constructions", "family_dominator", "constructions.family_dominator"),
    ("cichon.constructions", "least_avoider", "constructions.least_avoider"),
    ("cichon.constructions", "round_robin_ioe", "constructions.round_robin_ioe"),
    ("cichon.constructions", "family_slalom", "constructions.family_slalom"),
    ("cichon.constructions", "sum_evader_bound", "constructions.sum_evader_bound"),
    ("cichon.posets", "FiniteTree.children", "posets.children"),
    ("cichon.posets", "validate", "posets.validate"),
    ("cichon.posets", "leq", "posets.leq"),
    ("cichon.posets", "fusion_leq", "posets.fusion_leq"),
    ("cichon.posets", "splitting_nodes", "posets.splitting_nodes"),
    ("cichon.posets", "canonical_enum", "posets.canonical_enum"),
    ("cichon.projections", "proj_loc_to_d", "projections.project"),
    ("cichon.projections", "proj_loc_to_e", "projections.project"),
    ("cichon.projections", "lift_loc_to_d", "projections.lift"),
    ("cichon.projections", "lift_loc_to_e", "projections.lift"),
    ("cichon.projections", "reduce_e", "projections.lift"),
    ("cichon.diagram", "_load_kb", "diagram.kb_load"),
    ("cichon.diagram", "propagate", "diagram.propagate"),
    ("cichon.diagram", "enumerate_cuts", "diagram.enumerate_cuts"),
    ("cichon.diagram", "emit_dot", "diagram.emit"),
    ("cichon.diagram", "emit_json", "diagram.emit"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
LIFTS = ("lift_loc_to_d", "lift_loc_to_e")


def _tree_nodes(cond) -> int:
    if hasattr(cond, "sacks_part"):
        return len(cond.sacks_part.nodes) + len(cond.laver_part.nodes)
    return len(getattr(cond, "nodes", ()))


class Tracer:
    """Wraps the TARGETS; spans are kept in memory up to `span_cap`."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.stack: list[list] = []  # [child seconds, span id] per open span
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.next_id = 0
        self.record_spans = False
        self.reset()

    def reset(self):
        """Start a new accounting period (one pass)."""
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.first_s: dict[str, float] = {}
        self.counters = dict.fromkeys(
            ("positions", "tree_nodes", "compares", "compare_validates",
             "lift_attempts", "lifts_rejected"), 0,
        )
        self._compare_depth = 0
        self._report_depth = 0

    # -- patching --------------------------------------------------------------

    def install(self):
        if self.patches:
            return
        self.missing = []
        packages = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "cichon"]
        for module_name, path, span in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, span, attr))
            else:
                wrapped = self._wrap(raw, span, attr)
            self._patch(owner, attr, raw, wrapped)
            if not outer:  # also rebind names imported into other modules
                for module in packages:
                    for name, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._patch(module, name, raw, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self.patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn, span, attr):
        tracer = self
        enter = getattr(self, f"_enter_{span.replace('.', '_')}", None)
        leave = getattr(self, f"_leave_{span.replace('.', '_')}", None)
        is_lift = attr in LIFTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, tracer.next_id]
            tracer.next_id += 1
            if enter is not None:
                enter(args)
            raised = True
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[span] += 1
                tracer.self_s[span] += duration - frame[0]
                tracer.first_s.setdefault(span, duration)
                if stack:
                    stack[-1][0] += duration
                if leave is not None:
                    leave()
                if is_lift:
                    tracer.counters["lift_attempts"] += 1
                    tracer.counters["lifts_rejected"] += raised
                if tracer.record_spans:
                    if len(tracer.spans) < tracer.span_cap:
                        tracer.spans.append((span, start, end, frame[1], parent))
                    else:
                        tracer.spans_dropped += 1

        return wrapper

    # Counters measured where the work happens.

    def _enter_posets_leq(self, args):
        if self._compare_depth == 0:
            self.counters["compares"] += 1
            self.counters["tree_nodes"] += _tree_nodes(args[1]) + _tree_nodes(args[2])
        self._compare_depth += 1

    _enter_posets_fusion_leq = _enter_posets_leq

    def _leave_posets_leq(self):
        self._compare_depth -= 1

    _leave_posets_fusion_leq = _leave_posets_leq

    def _enter_posets_validate(self, args):
        if self._compare_depth:
            self.counters["compare_validates"] += 1

    def _enter_combinatorics_family_report(self, args):
        family = args[2]
        self.counters["positions"] += len(family) * family.horizon
        self._report_depth += 1

    def _leave_combinatorics_family_report(self):
        self._report_depth -= 1

    def _enter_combinatorics_least_threshold(self, args):
        if not self._report_depth:
            self.counters["positions"] += args[1].horizon
