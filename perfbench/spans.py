"""Spans around calls into involq's public functions, and their self times.

A traced pass wraps each function in TRACED at every module attribute that
holds it, which includes the names bound by ``from ... import`` (such as
``centralizer`` in s2t, geometry and census, or ``compute_census`` in
pipeline). Spans are kept in memory and written out when the pass ends.
Two counters are kept beside them: centralizer calls on an already-seen
(group, element), and lookups through ``PermGroup.index``, counted by a
counting mapping swapped into every group the traced code builds.
"""

from __future__ import annotations

import functools
import sys
import weakref
from time import perf_counter

TRACED = (
    "catalog.build_entry",
    "nearfield.make_field",
    "nearfield.make_dickson",
    "nearfield.verify_nearfield_axioms",
    "permgroup.affine_group",
    "permgroup.parse_group_doc",
    "permgroup.centralizer",
    "permgroup.conjugacy_class",
    "s2t.certify_sharply_2_transitive",
    "s2t.verify_basic_properties",
    "geometry.check_geometry_conditions",
    "geometry.build_geometry",
    "geometry.verify_line_lemma",
    "geometry.plane_closure",
    "geometry.verify_no_proper_plane",
    "geometry.divisible_subgroup_scan",
    "splitting.neumann_split_test",
    "splitting.coordinatize",
    "splitting.roundtrip_check",
    "census.census",
    "census.verify_xalpha_covering",
    "pipeline.verify_group",
    "pipeline.recover_target",
    "pipeline.census_target",
    "pipeline.write_report",
)
GROUP_BUILDERS = ("permgroup.affine_group", "permgroup.parse_group_doc")
CENTRALIZER = "permgroup.centralizer"


class CountingIndex(dict):
    """A dict that counts the lookups made through it."""

    def __init__(self, data, tracer: "Tracer"):
        super().__init__(data)
        self._tracer = tracer

    def __getitem__(self, key):
        self._tracer.index_lookups += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._tracer.index_lookups += 1
        return dict.get(self, key, default)

    def __contains__(self, key):
        self._tracer.index_lookups += 1
        return dict.__contains__(self, key)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list = []        # [name, start, end, parent, entry]
        self.entry: str | None = None
        self.index_lookups = 0
        self.centralizer_repeats = 0
        self._stack: list[int] = []
        self._seen_centralizers = weakref.WeakKeyDictionary()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.entry]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name in GROUP_BUILDERS:
                self._count_index(result)
            elif name == CENTRALIZER and len(args) == 2:
                self._note_centralizer(*args)
            return result

        return traced

    def _count_index(self, group) -> None:
        index = getattr(group, "index", None)
        if type(index) is dict:
            group.index = CountingIndex(index, self)

    def _note_centralizer(self, group, element) -> None:
        key = element.tobytes() if hasattr(element, "tobytes") else element
        seen = self._seen_centralizers.setdefault(group, set())
        if key in seen:
            self.centralizer_repeats += 1
        seen.add(key)

    def install(self) -> list[str]:
        """Wrap every TRACED function in the loaded involq modules; return the missing ones."""
        modules = [m for n, m in sys.modules.items() if n == "involq" or n.startswith("involq.")]
        missing = []
        for qualname in TRACED:
            module_name, fn_name = qualname.split(".")
            original = getattr(sys.modules.get(f"involq.{module_name}"), fn_name, None)
            if original is None:
                missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        return missing


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time (duration minus direct children) and call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, _), children in zip(spans, child_time):
        selfs[name] = selfs.get(name, 0.0) + (end - start - children)
        calls[name] = calls.get(name, 0) + 1
    return selfs, calls
