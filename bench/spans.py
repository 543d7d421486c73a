"""Span recording around grsdual's layer boundaries, from outside the package.

The traced child installs a `Tracer` before running a workload.  The tracer
replaces each target function with a wrapper that records one span (name,
start, end, parent, run id, whether it raised) and replaces the six scalar
`FieldCtx` operations with wrappers that only count calls: there are
millions of those, so timing each one would swamp the run.  Their time shows
up as self time of whichever span called them.

Every binding of a wrapped function is patched, not just the defining one:
`from .grs import dual_coefficients` copies the function object into
`construct` and `verify`, so patching `grs.dual_coefficients` alone would
miss those callers.  A target that no longer exists raises
`WrapTargetMissing` before anything is patched, so a rename in the package
cannot silently zero a metric.  `uninstall` restores every original.

The second half of the module turns recorded spans into per-layer metrics.
It imports nothing from grsdual, so the parent process can use it on the
spans file a child wrote.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Iterable

PACKAGE = "grsdual"
LAYERS = ("gf", "linalg", "grs", "construct", "verify", "cli")

# (layer, module, attribute path) of every function that gets a span.
# Private names are listed only where a metric needs that boundary: the
# lazy table builds, and the per-subset elimination path of the MDS check.
SPAN_TARGETS = (
    ("gf", "gf", "make_field"),
    ("gf", "gf", "FieldCtx._ensure_tables"),
    ("gf", "gf", "FieldCtx._build_np_ops"),
    ("gf", "gf", "FieldCtx.character_table"),
    ("linalg", "linalg", "rank_rows"),
    ("linalg", "linalg", "nonsingular_rows"),
    ("linalg", "linalg", "_np_nonsingular"),
    ("grs", "grs", "dual_coefficients"),
    ("grs", "grs", "generator_matrix"),
    ("grs", "grs", "code_to_json"),
    ("grs", "grs", "code_from_json"),
    ("grs", "grs", "stored_generator_from_json"),
    ("construct", "construct", "build"),
    ("construct", "construct", "construct_auto"),
    ("construct", "construct", "construct_even_char"),
    ("construct", "construct", "construct_extended"),
    ("construct", "construct", "construct_square_set"),
    ("construct", "construct", "construct_subfield_points"),
    ("construct", "construct", "construct_roots_of_unity"),
    ("construct", "construct", "construct_theorem_3_5"),
    ("construct", "construct", "search_square_difference_set"),
    ("construct", "construct", "result_to_json"),
    ("verify", "verify", "verify_code"),
    ("verify", "verify", "resolve_mds_mode"),
    ("verify", "verify", "check_self_dual"),
    ("verify", "verify", "check_self_dual_matrix"),
    ("verify", "verify", "check_mds"),
    ("verify", "verify", "check_mds_matrix"),
    ("verify", "verify", "_np_subset_nonsingular"),
    ("verify", "verify", "check_dual_identity"),
    ("cli", "cli", "main"),
)

# FieldCtx methods whose calls are counted, nested calls included
# (sub calls neg and add, so one sub counts three).
COUNTED_OPS = ("add", "sub", "neg", "mul", "inverse", "power")

FAMILY_CONSTRUCTORS = frozenset(
    f"construct.construct_{name}" for name in (
        "even_char", "extended", "square_set", "subfield_points",
        "roots_of_unity", "theorem_3_5"))
SEARCH = "construct.search_square_difference_set"
ELIMINATIONS = frozenset(("linalg.nonsingular_rows", "linalg._np_nonsingular"))
SELF_DUAL = frozenset(("verify.check_self_dual", "verify.check_self_dual_matrix"))
MDS = frozenset(("verify.check_mds", "verify.check_mds_matrix"))
TABLE_BUILDS = frozenset(("gf.FieldCtx._ensure_tables",
                          "gf.FieldCtx._build_np_ops"))
GRS_JSON = frozenset(("grs.code_to_json", "grs.code_from_json",
                      "grs.stored_generator_from_json"))


class WrapTargetMissing(RuntimeError):
    """A function the traced run must wrap does not exist in the package."""


def _resolve(owner, path: str):
    """(object holding the last attribute, attribute name, original)."""
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span and call-count recorder for one traced child."""

    def __init__(self, targets: Iterable[tuple[str, str, str]] = SPAN_TARGETS,
                 counted: Iterable[str] = COUNTED_OPS):
        self.targets = tuple(targets)
        self.counted = tuple(counted)
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_run: list[int] = []
        self.span_err: list[int] = []
        self.span_sub: list[int] = []   # FieldCtx.sub calls inside the span
        self.counts = [0] * len(self.counted)
        self.run_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- installing and removing wrappers --------------------------------

    def install(self) -> None:
        resolved, missing = [], []
        for layer, module, path in self.targets:
            try:
                owner, attr, orig = _resolve(
                    sys.modules[f"{PACKAGE}.{module}"], path)
            except (KeyError, AttributeError):
                missing.append(f"{module}.{path}")
                continue
            resolved.append((owner, attr, orig,
                             self._span_wrapper(f"{layer}.{path}", orig)))
        ctx_cls = getattr(sys.modules.get(f"{PACKAGE}.gf"), "FieldCtx", None)
        for i, op in enumerate(self.counted):
            if ctx_cls is None or op not in ctx_cls.__dict__:
                missing.append(f"gf.FieldCtx.{op}")
                continue
            orig = ctx_cls.__dict__[op]
            resolved.append((ctx_cls, op, orig, self._count_wrapper(i, orig)))
        if missing:
            raise WrapTargetMissing(
                "wrap targets missing from the package: " + ", ".join(missing))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for owner, attr, orig, wrapper in resolved:
            self._patch(owner, attr, orig, wrapper)
            if isinstance(owner, type):
                continue
            # every other module-level binding of the same function object
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig and (m, name) != (owner, attr):
                        self._patch(m, name, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, orig):
        idx = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack
        counts = self.counts
        sub = self.counted.index("sub") if "sub" in self.counted else None

        def subs() -> int:
            return counts[sub] if sub is not None else 0

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_run.append(self.run_id)
            self.span_sub.append(subs())
            self.span_end.append(0)
            self.span_err.append(1)
            stack.append(sid)
            self.span_start.append(clock())
            try:
                result = orig(*args, **kwargs)
                self.span_err[sid] = 0
                return result
            finally:
                self.span_end[sid] = clock()
                self.span_sub[sid] = subs() - self.span_sub[sid]
                stack.pop()

        return wrapper

    def _count_wrapper(self, slot: int, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args):
            counts[slot] += 1
            return orig(*args)

        return wrapper

    # --- export ------------------------------------------------------------

    def export(self) -> dict:
        """Columnar, JSON-ready form of everything recorded."""
        return {
            "names": list(self.names),
            "name": self.span_name,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
            "parent": self.span_parent,
            "run": self.span_run,
            "err": self.span_err,
            "sub_calls": self.span_sub,
            "counts": dict(zip(self.counted, self.counts)),
        }


# --- deriving metrics from exported spans -----------------------------------

def self_times(start: list[int], end: list[int], parent: list[int]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def under(group, span: list[str], parent: list[int]) -> list[bool]:
    """For each span, whether some ancestor's name is in group.

    A span is recorded when it is entered, so its parent has a lower index
    and one forward pass suffices.
    """
    out = [False] * len(span)
    for i, p in enumerate(parent):
        if p >= 0:
            out[i] = out[p] or span[p] in group
    return out


def layer_metrics(trace: dict, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics from one child's exported spans.

    `wall_ns` is the traced child's wall time from the first operation to
    the last; whatever no span covers inside it is `trace.unattributed_s`
    (the benchmark's own loop between operations).  The layer self times
    plus that remainder add up to `trace.wall_s` exactly.
    """
    names = trace["names"]
    span = [names[i] for i in trace["name"]]
    start, end, parent = trace["start_ns"], trace["end_ns"], trace["parent"]
    err, sub_calls = trace["err"], trace["sub_calls"]
    selfs = self_times(start, end, parent)
    dur = [e - s for s, e in zip(start, end)]
    n = len(span)

    def outer(group) -> tuple[int, int]:
        """(count, total ns) of spans in group not nested in the group."""
        nested = under(group, span, parent)
        picked = [i for i in range(n) if span[i] in group and not nested[i]]
        return len(picked), sum(dur[i] for i in picked)

    def self_sum(group) -> int:
        return sum(selfs[i] for i in range(n) if span[i] in group)

    layer_self = defaultdict(int)
    for i in range(n):
        layer_self[span[i].split(".", 1)[0]] += selfs[i]
    top = sum(dur[i] for i in range(n) if parent[i] < 0)

    elim_n, elim_ns = outer(ELIMINATIONS)
    rank_n, rank_ns = outer({"linalg.rank_rows"})
    mds_ns = outer(MDS)[1]
    in_mds = under(MDS, span, parent)
    # nonsingular_rows is the MDS path for fields without dense tables
    subsets = sum(1 for i in range(n)
                  if span[i] == "verify._np_subset_nonsingular"
                  or (span[i] == "linalg.nonsingular_rows" and in_mds[i]))
    attempts = [i for i in range(n) if span[i] in FAMILY_CONSTRUCTORS]
    useful = sum(1 for i in attempts if not err[i])
    in_self_dual = under(SELF_DUAL, span, parent)
    in_family = under(FAMILY_CONSTRUCTORS, span, parent)
    recheck_ns = self_dual_ns = 0
    for i in range(n):
        if span[i] in SELF_DUAL and not in_self_dual[i]:
            if in_family[i]:
                recheck_ns += dur[i]
            else:
                self_dual_ns += dur[i]
    in_search = under({SEARCH}, span, parent)
    search_subs = sum(sub_calls[i] for i in range(n)
                      if span[i] == SEARCH and not in_search[i])
    build_self = sum(selfs[i] for i in range(n)
                     if span[i].startswith("construct.") and span[i] != SEARCH)
    s = 1e-9
    mds_s = mds_ns * s
    metrics = {
        "gf.make_field_s": outer({"gf.make_field"})[1] * s,
        "gf.table_build_s": outer(TABLE_BUILDS)[1] * s,
        "gf.char_table_s": outer({"gf.FieldCtx.character_table"})[1] * s,
        "gf.scalar_ops": sum(trace["counts"].values()),
        "linalg.eliminations": elim_n,
        "linalg.elimination_s": elim_ns * s,
        "linalg.rank_calls": rank_n,
        "linalg.rank_s": rank_ns * s,
        "grs.dual_coefficients_s": outer({"grs.dual_coefficients"})[1] * s,
        "grs.generator_matrix_s": outer({"grs.generator_matrix"})[1] * s,
        "grs.json_s": self_sum(GRS_JSON) * s,
        "construct.build_self_s": build_self * s,
        "construct.recheck_s": recheck_ns * s,
        "construct.family_attempts": len(attempts),
        "construct.useful_ratio": useful / len(attempts) if attempts else 0.0,
        "construct.search_s": self_sum({SEARCH}) * s,
        "construct.search_diff_tests": search_subs,
        "verify.mds_s": mds_s,
        "verify.mds_subsets": subsets,
        "verify.mds_subsets_per_s": subsets / mds_s if mds_s > 0 else 0.0,
        "verify.self_dual_s": self_dual_ns * s,
        "verify.dual_identity_s": outer({"verify.check_dual_identity"})[1] * s,
        "trace.wall_s": wall_ns * s,
        "trace.unattributed_s": (wall_ns - top) * s,
        "trace.spans": n,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0) * s
    return metrics


COUNT_METRICS = ("gf.scalar_ops", "linalg.eliminations", "linalg.rank_calls",
                 "verify.mds_subsets", "construct.search_diff_tests",
                 "construct.family_attempts", "trace.spans")

