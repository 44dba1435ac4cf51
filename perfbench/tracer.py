"""Per-module tracing of gradedvb from outside the package.

The tracer wraps public functions and methods of the package and records,
for every call, a span: its name, start and end, the span that caused it
and the benchmark case it belongs to.  A span's self time is its duration
minus the time of its direct child calls, wrapper included, so that the
wrappers' own time is charged to no module but to ``bookkeeping_s``.
Nothing under ``src/`` is changed: module-level functions are replaced in
every ``gradedvb`` module namespace that bound them by name, methods are
replaced on their class, and :meth:`Tracer.uninstall` puts every
original back.

The weight arithmetic is called millions of times per pass, so its spans
are folded into per-name totals instead of being kept one by one; every
other span is kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (metric group, module, attribute).  The metric group names the layer a
# function's calls and self time are reported under.
TARGETS = (
    ("weights.build", "weights", "weight"),
    ("weights.build", "weights", "Weight.__add__"),
    ("weights.build", "weights", "Weight.__sub__"),
    ("weights.build", "weights", "Weight.__neg__"),
    ("weights.linearized_system", "weights", "linearized_system"),
    ("weights.delta_prime_fiber", "weights", "delta_prime_fiber"),
    ("weights.lift_symbols", "weights", "lift_symbols"),
    ("weights.validate", "weights", "validate"),
    ("algebra.component_basis", "algebra", "component_basis"),
    ("algebra.multiply", "algebra", "multiply"),
    ("algebra.in_chart", "algebra", "Polynomial.in_chart"),
    ("tangent.apply", "tangent", "Derivation.apply"),
    ("tangent.lift", "tangent", "tangent_lift"),
    ("tangent.lift", "tangent", "de_rham"),
    ("tangent.lift", "tangent", "quotient_chart"),
    ("tangent.lift", "tangent", "multiplicity_free_restriction"),
    ("linearize.linearize_chart", "linearize", "linearize_chart"),
    ("linearize.coordinate_table", "linearize", "coordinate_table"),
    ("linearize.morphism_apply", "linearize", "ChartMorphism.apply"),
    ("analysis.check_all_properties", "analysis", "check_all_properties"),
    ("analysis.is_nondegenerate", "analysis", "is_nondegenerate"),
    ("analysis.check_decomposition", "analysis", "check_decomposition"),
    ("analysis.check_cocycle", "analysis", "check_cocycle"),
    ("analysis.check_kernel_preservation", "analysis",
     "check_kernel_preservation"),
    ("analysis.kernel_intersection", "analysis", "kernel_intersection"),
    ("analysis.solve_inverse", "analysis", "solve_inverse"),
    ("analysis.reconstruct_degree2", "analysis", "reconstruct_degree2"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.matvec", "linalg", "matvec"),
    ("linalg.matmul", "linalg", "matmul"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.inv", "linalg", "inv"),
    ("linalg.rank", "linalg", "rank"),
    ("specfile.parse_spec", "specfile", "parse_spec"),
    ("specfile.parse_polynomial", "specfile", "parse_polynomial"),
    ("cli.main", "cli", "main"),
)

# spans of these groups are totalled per name, not kept
FOLDED = frozenset({"weights.build"})


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gradedvb"
                                  or name.startswith("gradedvb."))]


class Tracer:
    """Spans and counters for the wrapped functions of one run.

    Call :meth:`begin_case` before each CLI call so that spans carry the
    case id and ``component_basis`` repeats are counted per call.  The
    wrappers are built once, so the tracer can be installed and removed
    around each traced pass and keep counting.
    """

    def __init__(self) -> None:
        self.names: list[str] = []          # span name table
        self.groups: list[str] = []         # metric group of each name
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # kept spans: (span id, parent id, case, name index, start, end)
        self.spans: list[tuple] = []
        self.case = -1
        self.basis_monomials = 0
        self.basis_repeats = 0
        self.cells = 0
        self.nonzeros = 0
        self.bookkeeping_s = 0.0            # wrapper time outside any span
        self._next_id = 0
        self._stack: list[list] = []        # [span id, child seconds]
        self._seen_bases: set = set()
        self._chart_keys: dict = {}
        self._patches: list = []            # (owner, name, original, wrapper)

    # -- cases --------------------------------------------------------------

    def begin_case(self) -> None:
        """Start the next case: a new case id and no bases requested."""
        self.case += 1
        self._seen_bases = set()
        self._chart_keys = {}

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, group: str, label: str, fn, before=None):
        index = len(self.names)
        self.names.append(label)
        self.groups.append(group)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        calls, self_s, spans = self.calls, self.self_s, self.spans
        keep = group not in FOLDED
        tracer = self

        def traced(*args, **kwargs):
            entry = perf_counter()
            if before is not None:
                before(args, kwargs)
            span = tracer._next_id
            tracer._next_id = span + 1
            frame = [span, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                calls[index] += 1
                self_s[index] += end - start - frame[1]
                if keep:
                    spans.append((span, parent, tracer.case, index, start,
                                  end))
                leave = perf_counter()
                # the wrapper's own time, outside [start, end], is charged
                # to no module: the caller counts the whole wrapped call as
                # child time, and the difference goes to bookkeeping_s
                tracer.bookkeeping_s += (leave - entry) - (end - start)
                if stack:
                    stack[-1][1] += leave - entry

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def _before(self, group: str):
        if group == "algebra.component_basis":
            return self._count_basis
        if group in ("linalg.rref", "linalg.matvec"):
            return self._count_cells
        return None

    def _count_basis(self, args, kwargs) -> None:
        chart, w = args[0], args[1]
        cap = args[2] if len(args) > 2 else kwargs.get("max_degree")
        if cap is None:
            cap = chart.truncation
        key = self._chart_keys.get(id(chart))
        if key is None:
            # equal charts are the same request; keep the object alive so
            # its id cannot be reused within the case
            key = self._chart_keys[id(chart)] = (chart, hash(chart))
        request = (key[1], w, cap)
        if request in self._seen_bases:
            self.basis_repeats += 1
        else:
            self._seen_bases.add(request)

    def _count_cells(self, args, kwargs) -> None:
        matrix = args[0]
        for row in matrix:
            self.cells += len(row)
            self.nonzeros += sum(1 for x in row if x)

    def _after_basis(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.basis_monomials += len(out)
            return out
        return counted

    def install(self) -> None:
        """Wrap every target; fails if a target does not exist."""
        if not self._patches:
            self._patches = self._build_patches()
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def _build_patches(self) -> list:
        patches = []
        modules = _package_modules()
        for group, module_name, attr in TARGETS:
            module = sys.modules["gradedvb." + module_name]
            label = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original,
                                self._wrapper(group, label, original)))
                continue
            original = getattr(module, attr)
            fn = original
            if group == "algebra.component_basis":
                fn = self._after_basis(original)
            wrapped = self._wrapper(group, label, fn, self._before(group))
            for m in modules:
                for name, value in vars(m).items():
                    if value is original:
                        patches.append((m, name, original, wrapped))
        return patches

    # -- results ----------------------------------------------------------

    def group_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per metric group."""
        out: dict[str, list] = {}
        for group, n, s in zip(self.groups, self.calls, self.self_s):
            acc = out.setdefault(group, [0, 0.0])
            acc[0] += n
            acc[1] += s
        return {g: (n, s) for g, (n, s) in out.items()}

    def calls_by_label(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def dump(self, path: str, meta: dict) -> None:
        """Write the kept spans and the per-name totals as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "meta": meta,
                "names": self.names,
                "totals": {name: {"calls": n, "self_s": s}
                           for name, n, s in zip(self.names, self.calls,
                                                 self.self_s)},
                "span_fields": ["id", "parent", "case", "name", "start", "end"],
                "spans": self.spans,
            }, fh)
