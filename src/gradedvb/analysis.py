"""Exact linear algebra on weight components and the verification suite.

Every check here reduces a sheaf-level statement to finite matrices over
the rationals: a weight component of a truncated chart algebra has a
finite monomial basis, and the operators in play are linear over the
weight-0 functions.  Kernels, images, inverses and the six defining
properties of an induced operator family are all decided exactly; a
failing check always produces a concrete witness polynomial.

Truncation is never allowed to lie: any matrix built from images that
lost over-degree terms is flagged, and flagged matrices refuse to
participate in exact arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import (
    Chart,
    Coordinate,
    Monomial,
    Polynomial,
    TruncationOverflow,
    component_basis,
    monomial_poly,
    multiply,
)
from .linearize import (
    ChartMorphism,
    CompositeOperator,
    LinearizedChart,
    compose_DLambda,
    linearize_chart,
)
from .tangent import Derivation, quotient_polynomial
from .weights import (
    ZERO,
    BasisSymbol,
    Weight,
    WeightSystem,
    additional_symbol,
    basic_symbol,
    lift_shift,
    paired_basic,
    weight,
)


class AnalysisError(ValueError):
    """Raised when an analysis operation's hypotheses fail."""


class KernelHypothesisError(AnalysisError):
    """The right-hand side is not in the required kernel intersection."""


# ---------------------------------------------------------------------------
# component matrices
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ComponentMatrix:
    """Exact matrix of an operator between two weight components.

    Columns are the images of the domain basis monomials expanded in the
    codomain basis; ``entries[r][c]`` is the coefficient of codomain
    monomial ``r`` in the image of domain monomial ``c``.
    """

    domain_basis: list[Monomial]
    codomain_basis: list[Monomial]
    entries: linalg.Matrix
    truncated: bool = False

    @property
    def dom_dim(self) -> int:
        return len(self.domain_basis)

    @property
    def cod_dim(self) -> int:
        return len(self.codomain_basis)

    def require_exact(self) -> None:
        if self.truncated:
            raise TruncationOverflow("component matrix lost over-degree terms; "
                                     "raise the truncation degree")

    def is_bijective(self) -> bool:
        self.require_exact()
        return linalg.is_bijective(self.entries, self.dom_dim, self.cod_dim)


def _expand(p: Polynomial, index: dict[Monomial, int], dim: int,
            ) -> tuple[linalg.Vector, bool]:
    """Expand a polynomial over an indexed basis; overflow terms are legal
    only when the polynomial is already flagged."""
    v = [Fraction(0)] * dim
    overflow = p.truncated
    for m, c in p.terms.items():
        at = index.get(m)
        if at is None:
            overflow = True
            continue
        v[at] = c
    return v, overflow


def _matrix_from_apply(apply, dom_chart: Chart, cod_chart: Chart, w: Weight,
                       shift: Weight, max_degree: int | None = None,
                       ) -> ComponentMatrix:
    dom = component_basis(dom_chart, w, max_degree)
    cod = component_basis(cod_chart, w + shift, max_degree)
    index = {m: k for k, m in enumerate(cod)}
    cols = []
    truncated = False
    for m in dom:
        img = apply(monomial_poly(dom_chart, m))
        vec, over = _expand(img, index, len(cod))
        truncated = truncated or over
        cols.append(vec)
    entries = [[cols[c][r] for c in range(len(dom))] for r in range(len(cod))]
    return ComponentMatrix(dom, cod, entries, truncated)


def component_map(op, w: Weight, max_degree: int | None = None) -> ComponentMatrix:
    """Exact matrix of a derivation or composite on a weight component."""
    if isinstance(op, Derivation):
        return _matrix_from_apply(op.apply, op.chart, op.chart, w,
                                  op.weight_shift, max_degree)
    if isinstance(op, CompositeOperator):
        return _matrix_from_apply(op.apply, op.lc.source, op.lc.quotient, w,
                                  op.weight_action, max_degree)
    raise AnalysisError(f"unsupported operator {op!r}")


def _op_matrix(op: Derivation, w: Weight, max_degree: int | None = None,
               ) -> ComponentMatrix:
    cache = getattr(op, "_cm_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(op, "_cm_cache", cache)
    key = (w, max_degree)
    hit = cache.get(key)
    if hit is None:
        hit = _matrix_from_apply(op.apply, op.chart, op.chart, w,
                                 op.weight_shift, max_degree)
        cache[key] = hit
    return hit


def _bsupport(w: Weight) -> tuple[BasisSymbol, ...]:
    return tuple(s for s, c in w.items if s.kind == "additional" and c != 0)


def kernel_intersection(chart: Chart, ops: list[Derivation], w: Weight,
                        ) -> tuple[list[Monomial], list[linalg.Vector]]:
    """Basis monomials of the component at ``w`` and a basis of the joint
    kernel of ``ops`` on it."""
    basis = component_basis(chart, w)
    if not basis:
        return basis, []
    if not ops:
        dim = len(basis)
        return basis, [row[:] for row in linalg.identity(dim)]
    stacked: linalg.Matrix = []
    for op in ops:
        cm = _op_matrix(op, w)
        cm.require_exact()
        stacked.extend(cm.entries)
    if not stacked:
        dim = len(basis)
        return basis, [row[:] for row in linalg.identity(dim)]
    return basis, linalg.nullspace(stacked)


def _vec_poly(chart: Chart, basis: list[Monomial], v: linalg.Vector) -> Polynomial:
    return Polynomial(chart, {m: c for m, c in zip(basis, v) if c != 0})


def _nullspace_of(entries: linalg.Matrix, dom_dim: int) -> list[linalg.Vector]:
    """Right kernel with the empty-codomain case made explicit: a map into
    a zero-dimensional space kills everything."""
    if dom_dim == 0:
        return []
    if not entries:
        return [row[:] for row in linalg.identity(dom_dim)]
    return linalg.nullspace(entries)


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------

def is_nondegenerate(lc_or_chart, sym: BasisSymbol, delta: Weight,
                     ops: dict | None = None) -> bool:
    """Whether one operator restricts to a bijection out of ``delta``.

    The image weight must again be a system element; the check runs the
    exact rank test at every truncation degree up to the chart's.
    """
    chart, operators = _chart_and_ops(lc_or_chart, ops)
    op = operators[sym]
    target = delta + op.weight_shift
    if delta not in chart.system.elements or target not in chart.system.elements:
        raise AnalysisError(f"image weight {target.label} is not a system "
                            "element; non-degeneracy is not asserted there")
    for d in range(1, chart.truncation + 1):
        if not _op_matrix(op, delta, d).is_bijective():
            return False
    return True


def _chart_and_ops(lc_or_chart, ops):
    if isinstance(lc_or_chart, LinearizedChart):
        return lc_or_chart.chart, (ops or lc_or_chart.operators)
    if ops is None:
        raise AnalysisError("operator family required alongside a bare chart")
    return lc_or_chart, ops


# ---------------------------------------------------------------------------
# decomposition of a weight component
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DecompositionResult:
    delta_prime: Weight
    passes: bool
    component_dim: int
    product_dim: int
    kernel_dim: int
    intersection_dim: int
    product_basis: list[Monomial]
    kernel_polys: list[Polynomial]
    witness: Polynomial | None


def check_decomposition(lc_or_chart, delta_prime: Weight,
                        ops: dict | None = None) -> DecompositionResult:
    """Verify that a weight component is spanned by decomposable monomials
    together with the joint kernel of the operators named by the weight's
    additional support.  The spanning is verified exactly; the dimension
    of the overlap of the two parts is reported, not constrained."""
    chart, operators = _chart_and_ops(lc_or_chart, ops)
    basis = component_basis(chart, delta_prime)
    dim = len(basis)
    index = {m: k for k, m in enumerate(basis)}
    product_basis = [m for m in basis
                     if sum(e for c, e in m.factors if not c.weight.is_zero) >= 2]
    relevant = [operators[s] for s in _bsupport(delta_prime)]
    kbasis, kvecs = kernel_intersection(chart, relevant, delta_prime)
    cols: list[linalg.Vector] = []
    for m in product_basis:
        v = [Fraction(0)] * dim
        v[index[m]] = Fraction(1)
        cols.append(v)
    cols.extend(kvecs)
    span = [[cols[c][r] for c in range(len(cols))] for r in range(dim)]
    spanned = linalg.rank(span) if cols else 0
    passes = spanned == dim
    witness = None
    if not passes:
        for m in basis:
            unit = [Fraction(0)] * dim
            unit[index[m]] = Fraction(1)
            if not linalg.column_space_contains(span, unit):
                witness = monomial_poly(chart, m)
                break
    inter = len(product_basis) + len(kvecs) - spanned
    return DecompositionResult(
        delta_prime=delta_prime, passes=passes, component_dim=dim,
        product_dim=len(product_basis), kernel_dim=len(kvecs),
        intersection_dim=inter, product_basis=product_basis,
        kernel_polys=[_vec_poly(chart, kbasis, v) for v in kvecs],
        witness=witness,
    )


# ---------------------------------------------------------------------------
# inverse solve for composite operators
# ---------------------------------------------------------------------------

def solve_inverse(lc: LinearizedChart, symbols: tuple[BasisSymbol, ...],
                  f: Polynomial) -> Polynomial:
    """Solve ``composite(F) = f`` one differential at a time.

    ``f`` must be weight-homogeneous with additional support exactly the
    given symbols, its weight multiplicity-free and non-negative with a
    unit basic coefficient under every symbol's direction, and it must lie
    in the joint kernel of the named operators.  The solution ``F`` over
    the source chart is unique; intermediate steps are linear solves on
    pre-restriction components with the remaining operators pinned to
    zero, peeling the outermost differential first.
    """
    comp = compose_DLambda(lc, tuple(symbols))
    if f.truncated:
        raise TruncationOverflow("right-hand side carries dropped terms")
    if f.is_zero:
        raise KernelHypothesisError("zero right-hand side has no distinguished "
                                    "source weight; solve rejected")
    w = f.homogeneous_weight()
    if not w.is_nonnegative or not w.is_multiplicity_free:
        raise AnalysisError(f"target weight {w.label} must be non-negative "
                            "and multiplicity-free")
    if set(_bsupport(w)) != set(symbols):
        raise AnalysisError("additional support of the weight must match the "
                            "composite's symbols")
    # the guarantee of a solution needs every named step to sit next to a
    # unit of its basic direction; without that the solve may legitimately
    # find the right-hand side outside the image and report failure
    g = f.in_chart(lc.quotient) if f.chart is not lc.quotient else f
    for s in symbols:
        if not _quotient_step(lc, s, g).is_zero:
            raise KernelHypothesisError(f"right-hand side is not killed by "
                                        f"the {s.label} operator")
    wk = w
    rest = list(symbols)
    while rest:
        s = rest.pop(0)
        shift = lift_shift(s)
        wh = wk - shift
        dom = component_basis(lc.quotient, wh)
        stacked: linalg.Matrix = []
        rhs: linalg.Vector = []
        for q, (sym, target_w) in enumerate([(s, wk)] +
                                            [(t, wh + lift_shift(t))
                                             for t in rest]):
            cod = component_basis(lc.quotient, target_w)
            index = {m: k for k, m in enumerate(cod)}
            block = [[Fraction(0)] * len(dom) for _ in range(len(cod))]
            for col, m in enumerate(dom):
                img = _quotient_step(lc, sym, monomial_poly(lc.quotient, m))
                vec, over = _expand(img, index, len(cod))
                if over:
                    raise TruncationOverflow("inverse solve hit the truncation")
                for r in range(len(cod)):
                    block[r][col] = vec[r]
            stacked.extend(block)
            if q == 0:
                gv, over = _expand(g, index, len(cod))
                if over:
                    raise TruncationOverflow("inverse solve hit the truncation")
                rhs.extend(gv)
            else:
                rhs.extend([Fraction(0)] * len(cod))
        sol = linalg.solve(stacked, rhs)
        if sol is None:
            raise KernelHypothesisError("no preimage at weight "
                                        f"{wh.label}; kernel hypothesis violated")
        g = _vec_poly(lc.quotient, dom, sol)
        wk = wh
    return g.in_chart(lc.source)


def _quotient_step(lc: LinearizedChart, sym: BasisSymbol, p: Polynomial,
                   ) -> Polynomial:
    q = lc.lifted_derivations[sym].apply(p.in_chart(lc.lifted))
    return quotient_polynomial(lc.quotient, q)


# ---------------------------------------------------------------------------
# cocycle identity and kernel preservation
# ---------------------------------------------------------------------------

def _inverse_matrix(op: Derivation, source_w: Weight) -> linalg.Matrix:
    cm = _op_matrix(op, source_w)
    cm.require_exact()
    if cm.dom_dim != cm.cod_dim:
        raise AnalysisError(f"operator not invertible out of {source_w.label}: "
                            "component dimensions differ")
    if cm.dom_dim == 0:
        return []
    m = linalg.inv(cm.entries)
    if m is None:
        raise AnalysisError(f"operator not invertible out of {source_w.label}")
    return m


@dataclass(eq=False)
class CocycleResult:
    delta: Weight
    passes: bool
    kernel_dim: int
    witness: Polynomial | None


def check_cocycle(lc_or_chart, i: int, j: int, j1: int, j2: int,
                  delta: Weight, ops: dict | None = None) -> CocycleResult:
    """The signed compatibility identity between step changes, restricted
    to the kernel of the operator named in the weight."""
    chart, operators = _chart_and_ops(lc_or_chart, ops)
    syms = _triple_symbols(chart, i, j, j1, j2)
    b_j, b_j1, b_j2 = syms
    _require_cocycle_weight(delta, i, b_j, b_j1, b_j2, chart)
    uw = lambda s: weight({s: 1})
    d1 = delta - uw(b_j) + uw(b_j1)
    d2 = delta - uw(b_j) + uw(b_j2)
    for need in (d1, d2):
        if need not in chart.system.elements:
            raise AnalysisError(f"required weight {need.label} is not a "
                                "system element")
    lhs = _transfer(operators[b_j2], operators[b_j], delta, d2)
    step1 = _transfer(operators[b_j1], operators[b_j], delta, d1)
    step2 = _transfer(operators[b_j2], operators[b_j1], d1, d2)
    rhs = linalg.matmul(step2, step1)
    basis = component_basis(chart, delta)
    kmat = _op_matrix(operators[b_j], delta)
    kmat.require_exact()
    kvecs = _nullspace_of(kmat.entries, len(basis))
    witness = None
    passes = True
    for v in kvecs:
        left = linalg.matvec(lhs, v) if lhs else []
        right = linalg.matvec(rhs, v) if rhs else []
        if any(a + b != 0 for a, b in zip(left, right)):
            passes = False
            witness = _vec_poly(chart, basis, v)
            break
    return CocycleResult(delta, passes, len(kvecs), witness)


def _transfer(op_fwd: Derivation, op_back: Derivation, src: Weight,
              dst: Weight) -> linalg.Matrix:
    """Matrix of ``op_back^{-1} o op_fwd`` from the ``src`` component to
    the ``dst`` component."""
    fwd = _op_matrix(op_fwd, src)
    fwd.require_exact()
    back_inv = _inverse_matrix(op_back, dst)
    return linalg.matmul(back_inv, fwd.entries)


def _triple_symbols(chart: Chart, i: int, j: int, j1: int, j2: int):
    if len({j, j1, j2}) != 3:
        raise AnalysisError("step indices must be pairwise distinct")
    out = []
    for step in (j, j1, j2):
        sym = next((s for s in chart.system.additional_symbols
                    if s.i == i and s.j == step), None)
        if sym is None:
            raise AnalysisError(f"no operator b{step}_{i} in this chart")
        out.append(sym)
    return tuple(out)


def _require_cocycle_weight(delta: Weight, i: int, b_j, b_j1, b_j2,
                            chart: Chart) -> None:
    a_i = paired_basic(b_j)
    if delta not in chart.system.elements:
        raise AnalysisError(f"{delta.label} is not a system element")
    if delta.coeff(a_i) != 1 or delta.coeff(b_j) != 1:
        raise AnalysisError("weight must contain the basic direction and the "
                            "named step exactly once")
    if delta.coeff(b_j1) != 0 or delta.coeff(b_j2) != 0:
        raise AnalysisError("weight must not contain the other two steps")


@dataclass(eq=False)
class CocycleWitness:
    f: Polynomial
    lhs: Polynomial
    rhs_composite: Polynomial
    sides_differ: bool


def counterexample_off_kernel(lc_or_chart, i: int, j: int, j1: int, j2: int,
                              ops: dict | None = None) -> CocycleWitness:
    """Exhibit a component element outside the kernel on which the two
    sides of the cocycle identity disagree (in both sign readings)."""
    chart, operators = _chart_and_ops(lc_or_chart, ops)
    b_j, b_j1, b_j2 = _triple_symbols(chart, i, j, j1, j2)
    a_i = paired_basic(b_j)
    gens = [c for c in chart.coordinates if c.weight == weight({a_i: 1})]
    if len(gens) < 2:
        raise AnalysisError("need two generators of the basic weight for the "
                            "off-kernel witness")
    xi1, xi2 = gens[0], gens[1]
    f = multiply(chart.gen(xi1), operators[b_j].of(xi2))
    delta = weight({a_i: 1, b_j: 1})
    d2 = delta - weight({b_j: 1}) + weight({b_j2: 1})
    d1 = delta - weight({b_j: 1}) + weight({b_j1: 1})
    basis = component_basis(chart, delta)
    index = {m: k for k, m in enumerate(basis)}
    fv, over = _expand(f, index, len(basis))
    if over:
        raise TruncationOverflow("witness construction hit the truncation")
    lhs = _transfer(operators[b_j2], operators[b_j], delta, d2)
    step1 = _transfer(operators[b_j1], operators[b_j], delta, d1)
    step2 = _transfer(operators[b_j2], operators[b_j1], d1, d2)
    rhs = linalg.matmul(step2, step1)
    lv = linalg.matvec(lhs, fv) if lhs else []
    rv = linalg.matvec(rhs, fv) if rhs else []
    differ = any(a + b != 0 for a, b in zip(lv, rv)) and \
        any(a - b != 0 for a, b in zip(lv, rv))
    cod = component_basis(chart, d2)
    return CocycleWitness(
        f=f,
        lhs=_vec_poly(chart, cod, lv),
        rhs_composite=_vec_poly(chart, cod, rv),
        sides_differ=differ,
    )


@dataclass(eq=False)
class KernelPreservationResult:
    delta: Weight
    delta_prime: Weight
    passes: bool
    source_dim: int
    target_dim: int
    witness: Polynomial | None


def check_kernel_preservation(lc_or_chart, i: int, j: int, j0: int,
                              delta: Weight, delta_prime: Weight,
                              ops: dict | None = None) -> KernelPreservationResult:
    """Whether the step change carries one joint-kernel subsheaf onto the
    other: the weight swaps step ``j0`` for step ``j`` while keeping the
    basic direction."""
    chart, operators = _chart_and_ops(lc_or_chart, ops)
    if j == j0:
        raise AnalysisError("step indices must differ")
    b_j = next((s for s in chart.system.additional_symbols
                if s.i == i and s.j == j), None)
    b_j0 = next((s for s in chart.system.additional_symbols
                 if s.i == i and s.j == j0), None)
    if b_j is None or b_j0 is None:
        raise AnalysisError("missing operators for the requested steps")
    a_i = paired_basic(b_j)
    if delta.coeff(a_i) != 1 or delta.coeff(b_j0) != 1 or delta.coeff(b_j) != 0:
        raise AnalysisError("source weight must contain the basic direction "
                            "and step j0 once, and not step j")
    if delta_prime != delta - weight({b_j0: 1}) + weight({b_j: 1}):
        raise AnalysisError("target weight must swap the two steps")
    for need in (delta, delta_prime):
        if need not in chart.system.elements:
            raise AnalysisError(f"{need.label} is not a system element")
    src_ops = [operators[s] for s in _bsupport(delta)]
    dst_ops = [operators[s] for s in _bsupport(delta_prime)]
    src_basis, src_k = kernel_intersection(chart, src_ops, delta)
    dst_basis, dst_k = kernel_intersection(chart, dst_ops, delta_prime)
    fwd = _op_matrix(operators[b_j], delta)
    fwd.require_exact()
    back_inv = _inverse_matrix(operators[b_j0], delta_prime)
    tr = linalg.matmul(back_inv, fwd.entries)
    image_cols = [linalg.matvec(tr, v) for v in src_k] if tr else []
    dim = len(dst_basis)
    img_mat = [[col[r] for col in image_cols] for r in range(dim)]
    dst_mat = [[col[r] for col in dst_k] for r in range(dim)]
    passes = linalg.same_column_space(img_mat, dst_mat)
    witness = None
    if not passes:
        for col in image_cols:
            if not linalg.column_space_contains(dst_mat, col):
                witness = _vec_poly(chart, dst_basis, col)
                break
        if witness is None:
            for col_idx in range(len(dst_k)):
                if not linalg.column_space_contains(img_mat, dst_k[col_idx]):
                    witness = _vec_poly(chart, dst_basis, dst_k[col_idx])
                    break
    return KernelPreservationResult(delta, delta_prime, passes,
                                    len(src_k), len(dst_k), witness)


# ---------------------------------------------------------------------------
# the six-property certificate
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PropertyCheck:
    label: str
    passed: bool
    witness: str | None = None


@dataclass(eq=False)
class PropertyReport:
    """Pass/fail record for the six defining properties of the operator
    family, with a concrete witness attached to every failure."""

    checks: dict  # int -> list[PropertyCheck]
    names = {
        1: "weight-0 linearity",
        2: "supercommutation",
        3: "non-degeneracy",
        4: "component decomposition",
        5: "cocycle identity",
        6: "kernel preservation",
    }

    def property_passed(self, k: int) -> bool:
        return all(c.passed for c in self.checks.get(k, []))

    def property_vacuous(self, k: int) -> bool:
        return not self.checks.get(k, [])

    @property
    def all_passed(self) -> bool:
        return all(self.property_passed(k) for k in range(1, 7))

    def first_failure(self) -> PropertyCheck | None:
        for k in range(1, 7):
            for c in self.checks.get(k, []):
                if not c.passed:
                    return c
        return None

    def summary_rows(self) -> list[tuple[int, str, str, int, str]]:
        rows = []
        for k in range(1, 7):
            items = self.checks.get(k, [])
            if not items:
                status = "VACUOUS"
            elif all(c.passed for c in items):
                status = "PASS"
            else:
                status = "FAIL"
            witness = next((c.witness or c.label for c in items if not c.passed), "")
            rows.append((k, self.names[k], status, len(items), witness))
        return rows

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "properties": [
                {
                    "index": k,
                    "name": name,
                    "status": status,
                    "checked": count,
                    "witness": witness or None,
                }
                for k, name, status, count, witness in self.summary_rows()
            ],
        }


def _applicable_cocycle_tuples(system: WeightSystem):
    by_dir: dict[int, list[BasisSymbol]] = {}
    for s in system.additional_symbols:
        by_dir.setdefault(s.i, []).append(s)
    for i, syms in sorted(by_dir.items()):
        if len(syms) < 3:
            continue
        for b_j, b_j1, b_j2 in itertools.permutations(sorted(syms, key=lambda s: s.j), 3):
            a_i = paired_basic(b_j)
            for delta in system.sorted_elements():
                if (delta.coeff(a_i) == 1 and delta.coeff(b_j) == 1
                        and delta.coeff(b_j1) == 0 and delta.coeff(b_j2) == 0):
                    d1 = delta - weight({b_j: 1}) + weight({b_j1: 1})
                    d2 = delta - weight({b_j: 1}) + weight({b_j2: 1})
                    if d1 in system.elements and d2 in system.elements:
                        yield (i, b_j.j, b_j1.j, b_j2.j, delta)


def _applicable_kernel_tuples(system: WeightSystem):
    by_dir: dict[int, list[BasisSymbol]] = {}
    for s in system.additional_symbols:
        by_dir.setdefault(s.i, []).append(s)
    for i, syms in sorted(by_dir.items()):
        if len(syms) < 2:
            continue
        for b_j, b_j0 in itertools.permutations(sorted(syms, key=lambda s: s.j), 2):
            a_i = paired_basic(b_j)
            for delta in system.sorted_elements():
                if (delta.coeff(a_i) == 1 and delta.coeff(b_j0) == 1
                        and delta.coeff(b_j) == 0):
                    dp = delta - weight({b_j0: 1}) + weight({b_j: 1})
                    if dp in system.elements:
                        yield (i, b_j.j, b_j0.j, delta, dp)


def check_all_properties(chart: Chart, ops: dict) -> PropertyReport:
    """Run all six property checks on every applicable weight.

    ``chart`` must carry a multiplicity-free system whose basis splits
    into basic directions and lift steps; ``ops`` maps each lift step to
    its odd derivation.  Report-valued: failures carry witnesses.
    """
    system = chart.system
    if not all(w.is_multiplicity_free for w in system.elements):
        raise AnalysisError("chart system must be multiplicity free")
    for s in system.additional_symbols:
        if s not in ops:
            raise AnalysisError(f"operator family misses {s.label}")
    checks: dict[int, list[PropertyCheck]] = {k: [] for k in range(1, 7)}

    zero_coords = [c for c in chart.coordinates if c.weight.is_zero]
    for s in sorted(ops, key=lambda t: t.sort_key):
        for x in zero_coords:
            img = ops[s].of(x)
            checks[1].append(PropertyCheck(
                f"D[{s.label}]({x.name}) = 0", img.is_zero,
                None if img.is_zero else f"D[{s.label}]({x.name}) = {img.text()}"))

    syms = sorted(ops, key=lambda t: t.sort_key)
    for a_idx in range(len(syms)):
        for b_idx in range(a_idx, len(syms)):
            sa, sb = syms[a_idx], syms[b_idx]
            for c in chart.coordinates:
                g = chart.gen(c)
                acom = ops[sa].apply(ops[sb].apply(g)) + ops[sb].apply(ops[sa].apply(g))
                ok = acom.is_zero
                checks[2].append(PropertyCheck(
                    f"[D[{sa.label}],D[{sb.label}]]({c.name}) = 0", ok,
                    None if ok else f"[D[{sa.label}],D[{sb.label}]]({c.name}) "
                                    f"= {acom.text()}"))

    for s in syms:
        shift = ops[s].weight_shift
        for delta in system.sorted_elements():
            if delta + shift not in system.elements:
                continue
            ok = is_nondegenerate(chart, s, delta, ops)
            checks[3].append(PropertyCheck(
                f"D[{s.label}] bijective out of ({delta.label})", ok,
                None if ok else f"D[{s.label}] not bijective on the "
                                f"({delta.label}) component"))

    for delta in system.sorted_elements():
        if delta.is_zero:
            continue
        res = check_decomposition(chart, delta, ops)
        checks[4].append(PropertyCheck(
            f"decomposition at ({delta.label}) "
            f"[overlap dim {res.intersection_dim}]", res.passes,
            None if res.passes else
            f"({delta.label}): {res.witness.text() if res.witness else '?'} "
            "is not spanned"))

    for (i, j, j1, j2, delta) in _applicable_cocycle_tuples(system):
        try:
            res = check_cocycle(chart, i, j, j1, j2, delta, ops)
        except AnalysisError as exc:
            checks[5].append(PropertyCheck(
                f"cocycle (i={i}, j={j}, j1={j1}, j2={j2}) at ({delta.label})",
                False, str(exc)))
            continue
        checks[5].append(PropertyCheck(
            f"cocycle (i={i}, j={j}, j1={j1}, j2={j2}) at ({delta.label})",
            res.passes,
            None if res.passes else f"fails on {res.witness.text()}"))

    for (i, j, j0, delta, dp) in _applicable_kernel_tuples(system):
        try:
            res = check_kernel_preservation(chart, i, j, j0, delta, dp, ops)
        except AnalysisError as exc:
            checks[6].append(PropertyCheck(
                f"kernels (i={i}, j={j}, j0={j0}) ({delta.label}) -> "
                f"({dp.label})", False, str(exc)))
            continue
        checks[6].append(PropertyCheck(
            f"kernels (i={i}, j={j}, j0={j0}) ({delta.label}) -> ({dp.label})",
            res.passes,
            None if res.passes else
            f"mismatch witness {res.witness.text() if res.witness else '?'}"))

    return PropertyReport(checks)


# ---------------------------------------------------------------------------
# degree-2 reconstruction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ReconstructionResult:
    m2: Chart
    linearized: LinearizedChart
    phi: ChartMorphism
    new_generator_images: list[Polynomial]
    kernel_dim: int
    verified: bool


def _fiber_monomials(chart: Chart, w: Weight) -> list[Monomial]:
    return [m for m in component_basis(chart, w)
            if all(not c.weight.is_zero for c, _ in m.factors)]


def _relabel_chart(dvb: Chart, mapping: dict) -> tuple[Chart, dict]:
    """Rewrite a chart over renamed basis symbols; returns the chart and
    the coordinate bijection old -> new."""
    def map_w(w: Weight) -> Weight:
        return weight({mapping.get(s, s): c for s, c in w.items})

    basis = tuple(sorted((mapping.get(s, s) for s in dvb.system.basis),
                         key=lambda s: s.sort_key))
    system = WeightSystem(basis, frozenset(map_w(w) for w in dvb.system.elements))
    cmap = {}
    coords = []
    for c in dvb.coordinates:
        nc = Coordinate(c.cid, map_w(c.weight), c.parity)
        cmap[c] = nc
        coords.append(nc)
    return Chart(system, tuple(coords), dvb.truncation), cmap


def _relabel_poly(p: Polynomial, target: Chart, cmap: dict) -> Polynomial:
    terms = {}
    for m, coeff in p.terms.items():
        terms[Monomial(tuple((cmap[c], e) for c, e in m.factors))] = coeff
    return Polynomial(target, terms, p.truncated)


def reconstruct_degree2(dvb: Chart, op: Derivation) -> ReconstructionResult:
    """Rebuild a rank-1 degree-2 chart from a double-vector-bundle chart
    with one odd non-degenerate operator.

    The new top component is the kernel of the operator inside the
    composite-weight component; generators are a complement of the
    decomposable part of that kernel.  Returns the rebuilt chart, its
    linearization, and the verified intertwining isomorphism onto the
    input.
    """
    if op.parity != 1:
        raise AnalysisError("operator must be odd")
    shift = op.weight_shift
    beta_syms = [s for s, c in shift.items if c == 1]
    alpha_syms = [s for s, c in shift.items if c == -1]
    if len(beta_syms) != 1 or len(alpha_syms) != 1 or len(shift.items) != 2:
        raise AnalysisError("operator weight must be one step minus one "
                            "basic direction")
    beta, alpha = beta_syms[0], alpha_syms[0]
    ua, ub = weight({alpha: 1}), weight({beta: 1})
    expected = {ZERO, ua, ub, ua + ub}
    if set(dvb.system.elements) != expected:
        raise AnalysisError("chart is not a double-vector-bundle chart over "
                            "{0, a, b, a+b}")
    for x in dvb.coordinates:
        if x.weight.is_zero and not op.of(x).is_zero:
            raise AnalysisError("operator is not linear over weight 0")

    a1 = basic_symbol(1, alpha.parity)
    b21 = additional_symbol(2, 1, alpha.parity)
    if (alpha, beta) == (a1, b21):
        rl, cmap = dvb, {c: c for c in dvb.coordinates}
    else:
        rl, cmap = _relabel_chart(dvb, {alpha: a1, beta: b21})
    inv_cmap = {v: k for k, v in cmap.items()}
    if rl.truncation < 2:
        raise AnalysisError("reconstruction needs truncation degree >= 2")
    rl_op = Derivation(rl, weight({b21: 1, a1: -1}), 1,
                       {cmap[c]: _relabel_poly(img, rl, cmap)
                        for c, img in op.images.items()})
    wa, wb = weight({a1: 1}), weight({b21: 1})

    # a chart with degree headroom: images of the operator may raise the
    # polynomial degree, and the kernel of the honest (untruncated) map on
    # the degree-filtered domain is what the construction needs
    big = Chart(rl.system, rl.coordinates, rl.truncation + 2, rl.applied_lifts)
    op_big = Derivation(big, rl_op.weight_shift, 1,
                        {c: Polynomial(big, img.terms)
                         for c, img in rl_op.images.items()})

    def headroom_matrix(w: Weight, dom_cap: int):
        dom = component_basis(big, w, dom_cap)
        cod = component_basis(big, w + op_big.weight_shift)
        index = {m: k for k, m in enumerate(cod)}
        cols = []
        for m in dom:
            img = op_big.apply(monomial_poly(big, m))
            vec, over = _expand(img, index, len(cod))
            if over:
                raise TruncationOverflow("operator image escaped even the "
                                         "headroom truncation")
            cols.append(vec)
        entries = [[cols[c][r] for c in range(len(dom))]
                   for r in range(len(cod))]
        return dom, entries

    # non-degeneracy as a module map: over the truncated coefficient ring
    # a linear map of free modules is invertible exactly when its
    # constant-term matrix is
    side_dom = [m for m in _fiber_monomials(rl, wa)]
    side_cod = [m for m in _fiber_monomials(rl, wb)]
    cod_index = {m: k for k, m in enumerate(side_cod)}
    side_cols = []
    for m in side_dom:
        img = op_big.apply(monomial_poly(big, m))
        img = Polynomial(big, {mm: cc for mm, cc in img.terms.items()
                               if all(not c0.weight.is_zero
                                      for c0, _ in mm.factors)})
        vec, over = _expand(img, cod_index, len(side_cod))
        if over:
            raise TruncationOverflow("side-component image escaped the "
                                     "headroom truncation")
        side_cols.append(vec)
    side_mat = [[side_cols[c][r] for c in range(len(side_dom))]
                for r in range(len(side_cod))]
    if not linalg.is_bijective(side_mat, len(side_dom), len(side_cod)):
        raise AnalysisError("operator is degenerate between the side "
                            "components")

    wc = wa + wb
    basis_c, entries_c = headroom_matrix(wc, rl.truncation)
    kern = _nullspace_of(entries_c, len(basis_c))

    fiber = _fiber_monomials(rl, wc)
    fib_index = [basis_c.index(m) for m in fiber]
    # constant-coefficient kernel, filtered by top factor degree
    xcount = {d: len([m for m in component_basis(rl, ZERO, d)])
              for d in range(0, rl.truncation + 1)}
    const_k: dict[int, list[linalg.Vector]] = {}
    n_rows = len(entries_c)
    for dmax in (1, 2):
        cols = [k for k in fib_index if basis_c[k].degree <= dmax]
        sub = [[entries_c[r][k] for k in cols] for r in range(n_rows)]
        vecs = _nullspace_of(sub, len(cols))
        const_k[dmax] = [(cols, v) for v in vecs]  # type: ignore[assignment]
    dim1 = len(const_k[1])
    dim2 = len(const_k[2])
    expect = dim1 * xcount[max(rl.truncation - 1, 0)] + \
        (dim2 - dim1) * xcount[max(rl.truncation - 2, 0)]
    if len(kern) != expect:
        raise AnalysisError("kernel is not generated by constant-coefficient "
                            "elements at this truncation; cannot chartify")

    def lift_vec(cols_vec) -> linalg.Vector:
        cols, v = cols_vec
        out = [Fraction(0)] * len(basis_c)
        for c, val in zip(cols, v):
            out[c] = val
        return out

    kconst = [lift_vec(cv) for cv in const_k[2]]
    # intersection with the decomposable span: kernel vectors with no
    # single-generator part
    single_idx = [k for k in fib_index if basis_c[k].degree == 1]
    prod_rows = [[Fraction(1) if c == k else Fraction(0) for c in range(len(basis_c))]
                 for k in single_idx]
    kmat = [[v[r] for v in kconst] for r in range(len(basis_c))]
    inter = []
    if kconst:
        sel = linalg.matmul(prod_rows, kmat) if prod_rows else []
        coeffs = linalg.nullspace(sel) if sel else \
            [row[:] for row in linalg.identity(len(kconst))]
        for cf in coeffs:
            vec = [sum((cf[t] * kconst[t][r] for t in range(len(kconst))),
                       Fraction(0)) for r in range(len(basis_c))]
            inter.append(vec)
    chosen: list[linalg.Vector] = []
    pool = [[col[r] for col in inter] for r in range(len(basis_c))] if inter \
        else [[] for _ in range(len(basis_c))]
    current = [row[:] for row in pool]
    cur_rank = linalg.rank(current) if inter else 0
    for v in kconst:
        trial = [current[r] + [v[r]] for r in range(len(basis_c))]
        if linalg.rank(trial) > cur_rank:
            chosen.append(v)
            current = trial
            cur_rank += 1
    kappa_rl = [_vec_poly(rl, basis_c, v) for v in chosen]

    base_dim = rl.base_dim
    ka = sum(1 for c in rl.coordinates if c.weight == wa)
    m2_system = WeightSystem((a1,), frozenset({ZERO, weight({a1: 1}),
                                               weight({a1: 2})}))
    m2 = Chart.from_dims(m2_system, {ZERO: base_dim,
                                     weight({a1: 1}): ka,
                                     weight({a1: 2}): len(kappa_rl)},
                         rl.truncation)
    lin = linearize_chart(m2)

    rl_zero = sorted((c for c in rl.coordinates if c.weight.is_zero),
                     key=lambda c: c.sort_key)
    rl_side = sorted((c for c in rl.coordinates if c.weight == wa),
                     key=lambda c: c.sort_key)
    lin_zero = sorted((c for c in lin.chart.coordinates if c.weight.is_zero),
                      key=lambda c: c.sort_key)
    zero_pair = {c: inv_cmap[rl_zero[k]] for k, c in enumerate(lin_zero)}

    def dvb_gen(coord: Coordinate) -> Polynomial:
        return Polynomial(dvb, {Monomial(((coord, 1),)): Fraction(1)})

    pullback = {}
    for c in lin.chart.coordinates:
        if c.weight.is_zero:
            pullback[c] = dvb_gen(zero_pair[c])
            continue
        k = int(c.cid.base_name.rsplit("_", 1)[1]) - 1
        if c.weight == wa:
            pullback[c] = dvb_gen(inv_cmap[rl_side[k]])
        elif c.weight == wb:
            pullback[c] = op.apply(dvb_gen(inv_cmap[rl_side[k]]))
        else:
            pullback[c] = _unrelabel(kappa_rl[k], dvb, inv_cmap)
    phi = ChartMorphism(dvb, lin.chart, pullback,
                        {a1: alpha, b21: beta})

    verified = _verify_reconstruction(phi, lin, op, dvb)
    return ReconstructionResult(
        m2=m2, linearized=lin, phi=phi,
        new_generator_images=[_unrelabel(k, dvb, inv_cmap) for k in kappa_rl],
        kernel_dim=len(kern), verified=verified,
    )


def _unrelabel(p: Polynomial, dvb: Chart, inv_cmap: dict) -> Polynomial:
    terms = {}
    for m, coeff in p.terms.items():
        terms[Monomial(tuple((inv_cmap[c], e) for c, e in m.factors))] = coeff
    return Polynomial(dvb, terms, p.truncated)


def _verify_reconstruction(phi: ChartMorphism, lin: LinearizedChart,
                           op: Derivation, dvb: Chart) -> bool:
    (b21,) = lin.chart.system.additional_symbols
    dop = lin.operators[b21]
    for c in lin.chart.coordinates:
        lhs = phi.apply(dop.of(c))
        rhs = op.apply(phi.pullback[c])
        if lhs != rhs:
            return False
    for w in lin.chart.system.sorted_elements():
        dom = _fiber_monomials(lin.chart, w)
        cod = _fiber_monomials(dvb, phi._map_weight(w))
        index = {m: k for k, m in enumerate(cod)}
        cols = []
        for m in dom:
            img = phi.apply(monomial_poly(lin.chart, m))
            img = Polynomial(dvb, {mm: cc for mm, cc in img.terms.items()
                                   if all(not c0.weight.is_zero
                                          for c0, _ in mm.factors)})
            vec, over = _expand(img, index, len(cod))
            if over:
                return False
            cols.append(vec)
        mat = [[cols[c][r] for c in range(len(dom))] for r in range(len(cod))]
        if not linalg.is_bijective(mat, len(dom), len(cod)):
            return False
    return True
