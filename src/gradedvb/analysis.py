"""Exact linear algebra on weight components and the verification suite.

Every check here reduces a sheaf-level statement to finite matrices over
the rationals: a weight component of a truncated chart algebra has a
finite monomial basis, and the operators in play are linear over the
weight-0 functions.  Kernels, images, inverses and the six defining
properties of an induced operator family are all decided exactly; a
failing check always produces a concrete witness polynomial.

Every component matrix built from images comes from one function,
:func:`_component_matrix`, into the sparse rows of :mod:`gradedvb.linalg`,
nonzero entries only.  Its columns are the images of the domain monomials,
keyed by sort key: for a derivation, the :meth:`Derivation.leibniz`
image of each monomial, straight from the generator images; for the
morphism matrices of the reconstruction check, the terms of each pushed
forward monomial on the fiber part of the source.  Vectors are sparse
too, and a question about the span of a family of vectors is asked of
the family itself, with :func:`linalg.rank`.  The fiber part of a chart
is the chart :attr:`Chart.fibers`, and a derivation's part there is the
one it induces (:func:`_restricted`).  A derivation gets one full-degree
matrix per weight from :func:`component_map`, memoized in its declared
``matrix_memo`` field; a check at a lower degree cap slices it with
:meth:`ComponentMatrix.capped` instead of building the matrix again, and
its inverse is computed once, in the matrix's declared ``inverse`` field.

The checks of properties 3 to 6 work block by block where they can.
When the chart has no negative weight and only even weight-0
coordinates, and each operator kills the weight-0 coordinates and sends
every other coordinate to an unflagged linear combination of coordinates
of nonzero weight (:func:`_fiberwise`, tested once per family), an
operator sends a base monomial ``b`` times a fiber monomial of degree
``k`` to ``b`` times fiber monomials of degree ``k``.  Its component
matrix is then a direct sum of one block per ``(b, k)``, and the block
depends on ``k`` only.  The checks run on the fiber chart
(:func:`_fiber_view`), which drops the weight-0 coordinates and so holds
one copy of each block, and count the degree-``k`` block once for each
base monomial of degree at most the truncation minus ``k``
(:func:`_base_count`).  Ranks, kernels and bijectivity add over a
direct sum, so a pass there is a pass on the input chart, with every
dimension summed over the copies.
Anything but a clean pass (a failure, an error, a flag) is decided again
on the whole component (:func:`_blockwise`), so every witness and message
is the input chart's.  A family without the structure runs the same check
bodies on the whole component, one block counted once.
:func:`check_all_properties` hands its checks one family that keeps the
joint kernels and transfer matrices computed so far, so properties 4 and
6 share their kernels.

Every check takes ``(chart, ops, ...)``, with lift steps as symbols, and
reads ``ops`` only through :func:`_operators`.  :func:`certificate_plan`
lists the checks of all six properties, in report order, and
:func:`check_all_properties` runs that list in one loop.  Where the
checks of properties 3, 5 and 6 apply is stated once, as the reason a
check does not apply (``_image_obstacle``, ``_steps_obstacle``,
``_swap_obstacle``): the check raises it, and the plan leaves the case
out.

Truncation is never allowed to lie: any matrix built from images that
lost over-degree terms is flagged, and flagged matrices refuse to
participate in exact arguments.  Each caller picks its own policy for a
flagged matrix: carry the flag, raise, or fail the check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
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
    LinearizedChart,
    compose_DLambda,
    linearize_chart,
)
from .tangent import Derivation
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

_LOST_TERMS = ("component matrix lost over-degree terms; raise the "
               "truncation degree")
_FLAGGED_IMAGES = ("operator images lost over-degree terms; raise the "
                   "truncation degree")
_ONE = Fraction(1)


@dataclass(eq=False)
class ComponentMatrix:
    """Exact matrix of an operator between two weight components.

    Columns are the images of the domain basis monomials expanded in the
    codomain basis.  ``entries`` holds one sparse row per codomain
    monomial (see :mod:`gradedvb.linalg`): ``entries[r]`` maps ``c`` to
    the coefficient of codomain monomial ``r`` in the image of domain
    monomial ``c``, nonzero coefficients only.  ``overflow[c]`` flags a
    column whose image lost terms.  ``inverse`` holds the inverse of
    ``entries``, in the same form, once :func:`_inverse_matrix` has
    computed it.
    """

    domain_basis: list[Monomial]
    codomain_basis: list[Monomial]
    entries: linalg.Matrix
    overflow: list[bool]
    inverse: linalg.Matrix | None = field(default=None, init=False,
                                          repr=False)

    @property
    def dom_dim(self) -> int:
        return len(self.domain_basis)

    @property
    def cod_dim(self) -> int:
        return len(self.codomain_basis)

    @property
    def truncated(self) -> bool:
        return any(self.overflow)

    def require_exact(self, message: str = _LOST_TERMS) -> None:
        if self.truncated:
            raise TruncationOverflow(message)

    def is_bijective(self) -> bool:
        self.require_exact()
        return (self.dom_dim == self.cod_dim
                and linalg.rank(self.entries) == self.dom_dim)

    def capped(self, d: int) -> "ComponentMatrix":
        """The matrix between the parts of degree at most ``d`` of both
        components.  A column is flagged when it is flagged here or has a
        nonzero entry in a codomain row of degree above ``d``, which a
        build on the capped bases sees outside its codomain."""
        cols = [k for k, m in enumerate(self.domain_basis) if m.degree <= d]
        keep, high = [], set()
        for row, m in zip(self.entries, self.codomain_basis):
            if m.degree <= d:
                keep.append(row)
            else:
                high.update(row)
        return ComponentMatrix(
            [self.domain_basis[k] for k in cols],
            [m for m in self.codomain_basis if m.degree <= d],
            _columns(keep, cols),
            [self.overflow[k] or k in high for k in cols])


def _columns(rows: linalg.Matrix, cols: list[int]) -> linalg.Matrix:
    """The sparse rows restricted to the columns ``cols``, renumbered in
    that order."""
    at = {k: i for i, k in enumerate(cols)}
    return [{at[k]: x for k, x in row.items() if k in at} for row in rows]


def _expand(p: Polynomial, index: dict[Monomial, int],
            ) -> tuple[linalg.Vector, bool]:
    """Expand a polynomial over an indexed basis; overflow terms are legal
    only when the polynomial is already flagged."""
    v = {}
    overflow = p.truncated
    for m, c in p.terms.items():
        at = index.get(m)
        if at is None:
            overflow = True
            continue
        v[at] = c
    return v, overflow


def _component_matrix(dom: list[Monomial], cod: list[Monomial], columns,
                      ) -> ComponentMatrix:
    """The matrix from the span of ``dom`` to the span of ``cod`` whose
    ``k``-th column is the image of ``dom[k]``, given in the form of
    :meth:`Derivation.leibniz`.  A column is flagged when its image is
    flagged or has a nonzero entry outside ``cod``.
    """
    index = {m.sort_key: r for r, m in enumerate(cod)}
    entries: linalg.Matrix = [{} for _ in cod]
    overflow = []
    for k, (values, _, over) in enumerate(columns):
        for key, x in values.items():
            r = index.get(key)
            if r is None:
                over = True
            else:
                entries[r][k] = x
        overflow.append(over)
    return ComponentMatrix(dom, cod, entries, overflow)


def component_map(op: Derivation, w: Weight) -> ComponentMatrix:
    """Exact matrix of a derivation on the weight-``w`` component, built
    once per weight and memoized in the derivation's ``matrix_memo``."""
    hit = op.matrix_memo.get(w)
    if hit is None:
        dom = component_basis(op.chart, w)
        hit = op.matrix_memo[w] = _component_matrix(
            dom, component_basis(op.chart, w + op.weight_shift),
            map(op.leibniz, dom))
    return hit


def _terms_on(chart: Chart, p: Polynomial) -> dict[Monomial, Fraction]:
    """The terms of ``p`` whose factors all lie in ``chart``: ``p`` with
    its other coordinates set to zero."""
    have = chart.coordinate_set
    return {m: x for m, x in p.terms.items()
            if all(c in have for c, _ in m.factors)}


def _restricted(op: Derivation, chart: Chart) -> Derivation:
    """The derivation that ``op`` induces on ``chart``, a chart of some
    of its coordinates, with the others set to zero: each kept image
    keeps its flag and its terms whose factors all lie in ``chart``."""
    return Derivation(chart, op.weight_shift, op.parity, {
        c: Polynomial(chart, _terms_on(chart, img), img.truncated)
        for c, img in op.images.items() if c in chart.coordinate_set})


def _bsupport(w: Weight) -> tuple[BasisSymbol, ...]:
    return tuple(s for s, c in w.items if s.kind == "additional" and c != 0)


def kernel_intersection(chart: Chart, ops: list[Derivation], w: Weight,
                        ) -> tuple[list[Monomial], list[linalg.Vector]]:
    """Basis monomials of the component at ``w`` and a basis of the joint
    kernel of ``ops`` on it."""
    basis = component_basis(chart, w)
    stacked: linalg.Matrix = []
    for op in ops:
        cm = component_map(op, w)
        cm.require_exact()
        stacked.extend(cm.entries)
    return basis, linalg.nullspace(stacked, len(basis))


def _vec_poly(chart: Chart, basis: list[Monomial], v: linalg.Vector) -> Polynomial:
    return Polynomial(chart, {basis[k]: c for k, c in v.items()})


def _in_span(vectors: list[linalg.Vector], r: int, v: linalg.Vector) -> bool:
    """Whether ``v`` lies in the span of ``vectors``, whose rank is ``r``."""
    return linalg.rank(vectors + [v]) == r


# ---------------------------------------------------------------------------
# blocks over the fiber degree
# ---------------------------------------------------------------------------

def _fiberwise(op: Derivation) -> bool:
    """Whether ``op`` kills the weight-0 coordinates and sends every other
    coordinate to an unflagged linear combination of coordinates of
    nonzero weight."""
    return all(
        not img.truncated and (not img.terms if c.weight.is_zero else all(
            m.degree == 1 and not m.weight.is_zero for m in img.terms))
        for c, img in op.images.items())


@dataclass(eq=False)
class _View:
    """A chart and an operator family on it that a check body runs on,
    with the joint kernels and transfer matrices computed on it so far.
    ``copies`` is None when the chart is the input chart: each of
    its components is one block, counted once.  On the fiber chart it
    lists, by fiber degree ``k``, how many blocks of the input chart's
    component the degree-``k`` part of a component stands for."""

    chart: Chart
    ops: dict
    copies: list[int] | None = None
    kernels: dict = field(default_factory=dict)
    transfers: dict = field(default_factory=dict)

    def kernel(self, syms: tuple[BasisSymbol, ...], w: Weight,
               ) -> tuple[list[Monomial], list[linalg.Vector]]:
        """:func:`kernel_intersection` of the operators ``syms`` at ``w``,
        computed once per view."""
        hit = self.kernels.get((w, syms))
        if hit is None:
            hit = self.kernels[w, syms] = kernel_intersection(
                self.chart, [self.ops[s] for s in syms], w)
        return hit

    def transfer(self, fwd: BasisSymbol, back: BasisSymbol, src: Weight,
                 dst: Weight) -> linalg.Matrix:
        """:func:`_transfer` of the operators ``fwd`` and ``back``,
        computed once per view."""
        key = (fwd, back, src, dst)
        hit = self.transfers.get(key)
        if hit is None:
            hit = self.transfers[key] = _transfer(
                self.ops[fwd], self.ops[back], src, dst)
        return hit

    def block(self, m: Monomial) -> int:
        return m.degree if self.copies else 0

    def count(self, block: int) -> int:
        """How many blocks of the input chart's component ``block``
        stands for."""
        return self.copies[block] if self.copies else 1

    def dim(self, monomials) -> int:
        """The dimension on the input chart of what ``monomials``, or
        vectors inside the blocks that they lead, stand for."""
        return sum(self.count(self.block(m)) for m in monomials)

    def ranks(self, basis: list[Monomial], vectors: list[linalg.Vector],
              ) -> dict[int, int]:
        """The rank of ``vectors``, each inside one block, per block."""
        groups: dict[int, list[linalg.Vector]] = {}
        for v in vectors:
            groups.setdefault(self.block(basis[next(iter(v))]), []).append(v)
        return {b: linalg.rank(g) for b, g in groups.items()}


def _leads(basis: list[Monomial], vectors: list[linalg.Vector]):
    return (basis[next(iter(v))] for v in vectors)


def _base_count(chart: Chart, k: int) -> int:
    """How many base monomials have degree at most the truncation minus
    ``k``: the copies of a block of fiber degree ``k``."""
    return len(component_basis(chart, ZERO, chart.truncation - k))


def _fiber_view(chart: Chart, ops: dict) -> _View | None:
    """:attr:`Chart.fibers`, with the family ``ops`` restricted to it,
    where the module docstring's block argument holds, else None.  The
    :func:`_restricted` copies sit on ``chart.fibers`` itself, and only
    the view holds them: each :class:`_Family` builds its own."""
    if not all(c.weight.is_nonnegative and not (c.weight.is_zero and c.parity)
               for c in chart.coordinates):
        return None
    if not all((op.chart is chart or op.chart == chart) and _fiberwise(op)
               for op in ops.values()):
        return None
    fibers = chart.fibers
    return _View(fibers, {s: _restricted(op, fibers) for s, op in ops.items()},
                 [_base_count(chart, k) for k in range(chart.truncation + 1)])


class _Family(dict):
    """An operator family by lift step, with the views that the checks of
    properties 3 to 6 run on: ``whole``, the input chart, and ``fibers``,
    from :func:`_fiber_view`.  :func:`check_all_properties` passes one to
    every check, so the views and their memos live for one run; a check
    called with a plain family makes its own."""

    def __init__(self, chart: Chart, ops: dict):
        super().__init__(ops)
        self.whole = _View(chart, ops)
        self.fibers = _fiber_view(chart, ops)


def _family(chart: Chart, ops: dict) -> _Family:
    return ops if isinstance(ops, _Family) else _Family(chart, ops)


def _blockwise(fam: _Family, body, *args):
    """``body(view, *args)`` on the fiber chart when it passes there, else
    on the whole component.  A pass needs only ranks and dimensions, and
    they add over the blocks; anything else (a failure, an error, a flag)
    is decided again on the whole component, so every witness and message
    is the one the input chart gives."""
    if fam.fibers is not None:
        try:
            res = body(fam.fibers, *args)
        except (AnalysisError, TruncationOverflow):
            res = False
        if res is True or res and res.passes:
            return res
    return body(fam.whole, *args)


# ---------------------------------------------------------------------------
# the operator family, where the checks apply, and non-degeneracy
# ---------------------------------------------------------------------------

def _operators(ops: dict, syms) -> list[Derivation]:
    """The operators of the family ``ops`` named by ``syms``, in order."""
    for s in syms:
        if s not in ops:
            raise AnalysisError(f"operator family misses {s.label}")
    return [ops[s] for s in syms]


def _require(reason: str | None) -> None:
    """Raise the reason a check does not apply, if there is one."""
    if reason is not None:
        raise AnalysisError(reason)


def _image_obstacle(system: WeightSystem, delta: Weight, shift: Weight,
                    ) -> str | None:
    """Why non-degeneracy of an operator of weight ``shift`` is not
    asserted out of ``delta``, or None: both ``delta`` and its image weight
    must be system elements."""
    target = delta + shift
    if delta in system.elements and target in system.elements:
        return None
    return (f"image weight {target.label} is not a system element; "
            "non-degeneracy is not asserted there")


def _steps_obstacle(steps: tuple[BasisSymbol, ...]) -> str | None:
    """Why ``steps`` is not a tuple of distinct lift steps over one basic
    direction, or None."""
    if len(set(steps)) != len(steps):
        return "steps must be pairwise distinct"
    if any(s.kind != "additional" or s.i != steps[0].i for s in steps):
        return "steps must be lift steps over one basic direction"
    return None


def _swap_obstacle(system: WeightSystem, held: BasisSymbol,
                   others: tuple[BasisSymbol, ...], delta: Weight,
                   ) -> str | None:
    """Why trading the step ``held`` for each of ``others`` at ``delta``
    is not asserted, or None, for steps that pass :func:`_steps_obstacle`:
    ``delta`` must be a system element holding ``held`` and its basic
    direction once and none of ``others``, and every trade must give a
    system element."""
    if delta not in system.elements:
        return f"{delta.label} is not a system element"
    if (delta.coeff(paired_basic(held)) != 1 or delta.coeff(held) != 1
            or any(delta.coeff(s) != 0 for s in others)):
        return ("weight must contain the basic direction and the held step "
                "once, and no other named step")
    for s in others:
        need = _swap(delta, held, s)
        if need not in system.elements:
            return f"required weight {need.label} is not a system element"
    return None


def is_nondegenerate(chart: Chart, ops: dict, sym: BasisSymbol,
                     delta: Weight) -> bool:
    """Whether the operator ``ops[sym]`` is a bijection out of ``delta``.

    The check applies where :func:`_image_obstacle` finds nothing; it runs
    the exact rank test at every truncation degree up to the chart's, each
    on a slice of the one full-degree matrix.
    """
    (op,) = _operators(ops, (sym,))
    _require(_image_obstacle(chart.system, delta, op.weight_shift))
    return _blockwise(_family(chart, ops), _bijective, sym, delta)


def _bijective(view: _View, sym: BasisSymbol, delta: Weight) -> bool:
    """Bijectivity at every degree cap.  On the fiber chart a capped slice
    is the direct sum of the blocks of fiber degree up to the cap, so the
    top cap decides every cap."""
    full = component_map(view.ops[sym], delta)
    caps = range(1, view.chart.truncation + 1)
    return all(full.capped(d).is_bijective()
               for d in (caps[-1:] if view.copies else caps))


# ---------------------------------------------------------------------------
# decomposition of a weight component
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DecompositionResult:
    """The spanning verdict and dimensions of :func:`check_decomposition`.
    ``product_basis`` and ``kernel_polys``, the decomposable monomials and
    the joint kernel on the whole component, are built on first read."""

    delta_prime: Weight
    passes: bool
    component_dim: int
    product_dim: int
    kernel_dim: int
    intersection_dim: int
    witness: Polynomial | None
    _whole: _View | None = field(default=None, init=False, repr=False)

    @cached_property
    def product_basis(self) -> list[Monomial]:
        return [m for m in component_basis(self._whole.chart, self.delta_prime)
                if _fiber_degree(m) >= 2]

    @cached_property
    def kernel_polys(self) -> list[Polynomial]:
        basis, kvecs = self._whole.kernel(_bsupport(self.delta_prime),
                                         self.delta_prime)
        return [_vec_poly(self._whole.chart, basis, v) for v in kvecs]


def _fiber_degree(m: Monomial) -> int:
    return sum(e for c, e in m.factors if not c.weight.is_zero)


def check_decomposition(chart: Chart, ops: dict, delta_prime: Weight,
                        ) -> DecompositionResult:
    """Verify that a weight component is spanned by decomposable monomials
    together with the joint kernel of the operators named by the weight's
    additional support.  The spanning is verified exactly; the dimension
    of the overlap of the two parts is reported, not constrained."""
    _operators(ops, _bsupport(delta_prime))
    fam = _family(chart, ops)
    res = _blockwise(fam, _decomposition, delta_prime)
    res._whole = fam.whole
    return res


def _decomposition(view: _View, delta_prime: Weight) -> DecompositionResult:
    """The decomposition on a view.  The decomposable monomials are unit
    columns, so with the kernel they span as much as they are many plus
    the rank of the kernel's entries off them; those ranks add over the
    blocks.  A decomposable monomial has fiber degree at least 2, so on
    the fiber chart those blocks are spanned by units alone."""
    basis, kvecs = view.kernel(_bsupport(delta_prime), delta_prime)
    product = [k for k, m in enumerate(basis) if _fiber_degree(m) >= 2]
    units = set(product)
    rest = [{k: x for k, x in v.items() if k not in units} for v in kvecs]
    ranks = view.ranks(basis, [v for v in rest if v])
    spanned = len(product) + sum(ranks.values())
    passes = spanned == len(basis)
    witness = None
    if not passes:
        cols = [{k: _ONE} for k in product] + kvecs
        witness = next((monomial_poly(view.chart, m)
                        for k, m in enumerate(basis)
                        if not _in_span(cols, spanned, {k: _ONE})), None)
    product_dim = view.dim(basis[k] for k in product)
    kernel_dim = view.dim(_leads(basis, kvecs))
    return DecompositionResult(
        delta_prime=delta_prime, passes=passes,
        component_dim=view.dim(basis), product_dim=product_dim,
        kernel_dim=kernel_dim,
        intersection_dim=kernel_dim - sum(view.count(b) * r
                                          for b, r in ranks.items()),
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
    compose_DLambda(lc, tuple(symbols))  # refuses repeated or unapplied steps
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
    ds = lc.quotient_derivations
    g = f.in_chart(lc.quotient) if f.chart is not lc.quotient else f
    for s in symbols:
        step = ds[s].apply(g)
        if step.truncated and step.is_zero:
            raise TruncationOverflow("inverse solve hit the truncation")
        if not step.is_zero:
            raise KernelHypothesisError(f"right-hand side is not killed by "
                                        f"the {s.label} operator")
    wk = w
    rest = list(symbols)
    while rest:
        s = rest.pop(0)
        wh = wk - lift_shift(s)
        stacked: linalg.Matrix = []
        rhs: linalg.Vector = {}
        # the peeled step must give g and every remaining step zero
        for sym, want in [(s, g)] + [(t, lc.quotient.zero()) for t in rest]:
            block = component_map(ds[sym], wh)
            block.require_exact("inverse solve hit the truncation")
            index = {m: k for k, m in enumerate(block.codomain_basis)}
            part, over = _expand(want, index)
            if over:
                raise TruncationOverflow("inverse solve hit the truncation")
            rhs.update((len(stacked) + r, x) for r, x in part.items())
            stacked.extend(block.entries)
        sol = linalg.solve(stacked, rhs, block.dom_dim)
        if sol is None:
            raise KernelHypothesisError("no preimage at weight "
                                        f"{wh.label}; kernel hypothesis violated")
        g = _vec_poly(lc.quotient, block.domain_basis, sol)
        wk = wh
    return g.in_chart(lc.source)


# ---------------------------------------------------------------------------
# cocycle identity and kernel preservation
# ---------------------------------------------------------------------------

def _inverse_matrix(op: Derivation, source_w: Weight) -> linalg.Matrix:
    cm = component_map(op, source_w)
    cm.require_exact()
    if cm.dom_dim != cm.cod_dim:
        raise AnalysisError(f"operator not invertible out of {source_w.label}: "
                            "component dimensions differ")
    if cm.inverse is None:
        cm.inverse = linalg.inv(cm.entries, cm.dom_dim)
    if cm.inverse is None:
        raise AnalysisError(f"operator not invertible out of {source_w.label}")
    return cm.inverse


@dataclass(eq=False)
class CocycleResult:
    delta: Weight
    passes: bool
    kernel_dim: int
    witness: Polynomial | None


def check_cocycle(chart: Chart, ops: dict,
                  steps: tuple[BasisSymbol, BasisSymbol, BasisSymbol],
                  delta: Weight) -> CocycleResult:
    """The signed compatibility identity between the step changes of
    ``steps = (b_j, b_j1, b_j2)``, restricted to the kernel of ``D[b_j]``
    on the ``delta`` component, where ``b_j`` trades for ``b_j1`` and
    ``b_j2`` (:func:`_swap_obstacle`)."""
    _require(_steps_obstacle(steps)
             or _swap_obstacle(chart.system, steps[0], steps[1:], delta))
    _operators(ops, steps)
    return _blockwise(_family(chart, ops), _cocycle, steps, delta)


def _cocycle(view: _View, steps, delta: Weight) -> CocycleResult:
    # the identity reads lhs v == -rhs v, so one product with the sum
    # of the sides tests it
    total = linalg.matadd(*_cocycle_sides(view, steps, delta))
    basis, kvecs = view.kernel(steps[:1], delta)
    dim = view.dim(_leads(basis, kvecs))
    for v in kvecs:
        if linalg.matvec(total, v):
            return CocycleResult(delta, False, dim,
                                 _vec_poly(view.chart, basis, v))
    return CocycleResult(delta, True, dim, None)


def _swap(w: Weight, old: BasisSymbol, new: BasisSymbol) -> Weight:
    """``w`` with one step ``old`` traded for the step ``new``."""
    return w - weight({old: 1}) + weight({new: 1})


def _transfer(op_fwd: Derivation, op_back: Derivation, src: Weight,
              dst: Weight) -> linalg.Matrix:
    """Matrix of ``op_back^{-1} o op_fwd`` from the ``src`` component to
    the ``dst`` component."""
    fwd = component_map(op_fwd, src)
    fwd.require_exact()
    back_inv = _inverse_matrix(op_back, dst)
    return linalg.matmul(back_inv, fwd.entries)


def _cocycle_sides(view: _View, steps, delta: Weight,
                   ) -> tuple[linalg.Matrix, linalg.Matrix]:
    """The two sides of the cocycle identity for the steps ``(b_j, b_j1,
    b_j2)`` on a view, as matrices from the ``delta`` component to the one
    with ``b_j2`` in place of ``b_j``: the direct step change, and the one
    through ``b_j1``."""
    b_j, b_j1, b_j2 = steps
    d1, d2 = _swap(delta, b_j, b_j1), _swap(delta, b_j, b_j2)
    lhs = view.transfer(b_j2, b_j, delta, d2)
    step1 = view.transfer(b_j1, b_j, delta, d1)
    step2 = view.transfer(b_j2, b_j1, d1, d2)
    return lhs, linalg.matmul(step2, step1)


@dataclass(eq=False)
class CocycleWitness:
    f: Polynomial
    lhs: Polynomial
    rhs_composite: Polynomial
    sides_differ: bool


def counterexample_off_kernel(chart: Chart, ops: dict,
                              steps: tuple[BasisSymbol, BasisSymbol,
                                           BasisSymbol]) -> CocycleWitness:
    """Exhibit an element of the ``a_i + b_j`` component outside the kernel
    of ``D[b_j]`` on which the two sides of the cocycle identity for
    ``steps = (b_j, b_j1, b_j2)`` disagree (in both sign readings)."""
    _require(_steps_obstacle(steps))
    b_j, b_j1, b_j2 = steps
    a_i = paired_basic(b_j)
    delta = weight({a_i: 1, b_j: 1})
    _require(_swap_obstacle(chart.system, b_j, (b_j1, b_j2), delta))
    fam = _operators(ops, steps)
    gens = [c for c in chart.coordinates if c.weight == weight({a_i: 1})]
    if len(gens) < 2:
        raise AnalysisError("need two generators of the basic weight for the "
                            "off-kernel witness")
    f = multiply(chart.gen(gens[0]), fam[0].of(gens[1]))
    basis = component_basis(chart, delta)
    fv, over = _expand(f, {m: k for k, m in enumerate(basis)})
    if over:
        raise TruncationOverflow("witness construction hit the truncation")
    lhs, rhs = _cocycle_sides(_View(chart, ops), steps, delta)
    lv, rv = linalg.matvec(lhs, fv), linalg.matvec(rhs, fv)
    cod = component_basis(chart, _swap(delta, b_j, b_j2))
    return CocycleWitness(
        f=f,
        lhs=_vec_poly(chart, cod, lv),
        rhs_composite=_vec_poly(chart, cod, rv),
        sides_differ=lv != {k: -x for k, x in rv.items()} and lv != rv,
    )


@dataclass(eq=False)
class KernelPreservationResult:
    delta: Weight
    delta_prime: Weight
    passes: bool
    source_dim: int
    target_dim: int
    witness: Polynomial | None


def check_kernel_preservation(chart: Chart, ops: dict,
                              steps: tuple[BasisSymbol, BasisSymbol],
                              delta: Weight) -> KernelPreservationResult:
    """Whether the step change of ``steps = (b_j, b_j0)`` carries the
    joint-kernel subsheaf at ``delta`` onto the one at ``delta`` with
    ``b_j0`` traded for ``b_j`` (:func:`_swap_obstacle`)."""
    b_j, b_j0 = steps
    _require(_steps_obstacle(steps)
             or _swap_obstacle(chart.system, b_j0, (b_j,), delta))
    _operators(ops, steps)
    _operators(ops, _bsupport(delta))
    _operators(ops, _bsupport(_swap(delta, b_j0, b_j)))
    return _blockwise(_family(chart, ops), _kernel_preservation, steps, delta)


def _kernel_preservation(view: _View, steps, delta: Weight,
                         ) -> KernelPreservationResult:
    """Kernel preservation on a view.  A ``nullspace`` basis has one unit
    in each free column, so the target kernel's rank is its length; the
    three ranks add over the blocks, and each is at least the larger of
    the other two's, so equal sums mean equal ranks on every block."""
    b_j, b_j0 = steps
    delta_prime = _swap(delta, b_j0, b_j)
    src_basis, src_k = view.kernel(_bsupport(delta), delta)
    dst_basis, dst_k = view.kernel(_bsupport(delta_prime), delta_prime)
    tr = view.transfer(b_j, b_j0, delta, delta_prime)
    image = [linalg.matvec(tr, v) for v in src_k]
    r_img, r_dst = linalg.rank(image), len(dst_k)
    passes = r_img == r_dst == linalg.rank(image + dst_k)
    witness = None
    if not passes:
        # an image outside the target kernel, else a target kernel vector
        # outside the image
        bad = next(itertools.chain(
            (v for v in image if not _in_span(dst_k, r_dst, v)),
            (v for v in dst_k if not _in_span(image, r_img, v))), None)
        witness = None if bad is None else _vec_poly(view.chart, dst_basis,
                                                      bad)
    return KernelPreservationResult(
        delta, delta_prime, passes, view.dim(_leads(src_basis, src_k)),
        view.dim(_leads(dst_basis, dst_k)), witness)


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

    @property
    def all_passed(self) -> bool:
        return all(self.property_passed(k) for k in range(1, 7))

    def first_failure(self) -> PropertyCheck | None:
        for k in range(1, 7):
            for c in self.checks.get(k, []):
                if not c.passed:
                    return c
        return None

    def to_json(self) -> dict:
        rows = []
        for k in range(1, 7):
            items = self.checks.get(k, [])
            rows.append({
                "index": k,
                "name": self.names[k],
                "status": "FAIL" if not self.property_passed(k) else
                          "PASS" if items else "VACUOUS",
                "checked": len(items),
                "witness": next((c.witness or c.label for c in items
                                 if not c.passed), "") or None,
            })
        return {"all_passed": self.all_passed, "properties": rows}


def _zero_check(label: str, p: Polynomial) -> PropertyCheck:
    """The check that ``p`` vanishes; a zero left only by dropped terms
    is refused."""
    if p.truncated and p.is_zero:
        raise TruncationOverflow(_LOST_TERMS)
    return PropertyCheck(f"{label} = 0", p.is_zero,
                         None if p.is_zero else f"{label} = {p.text()}")


def _linearity(chart: Chart, ops: dict, s: BasisSymbol,
               x: Coordinate) -> Polynomial:
    """``D[s](x)`` for a weight-0 coordinate ``x``, which property 1 asks
    to vanish."""
    (op,) = _operators(ops, (s,))
    return op.of(x)


def _supercommutator(chart: Chart, ops: dict, sa: BasisSymbol,
                     sb: BasisSymbol, x: Coordinate) -> Polynomial:
    """``D[sa] D[sb] + D[sb] D[sa]`` on the coordinate ``x``, from the
    images of ``x``: for odd operators their supercommutator, which
    property 2 asks to vanish."""
    da, db = _operators(ops, (sa, sb))
    return da.apply(db.of(x)) + db.apply(da.of(x))


def certificate_plan(chart: Chart, ops: dict) -> list[tuple]:
    """The applicable checks of all six properties, in report order, as
    ``(property, label, check, args)``; ``check(chart, ops, *args)`` runs
    one entry.  Properties 1 and 2 check each operator on each weight-0
    coordinate and each pair of operators on each coordinate.  A
    candidate of properties 3 to 6 is kept where the obstacle function
    that its check raises finds nothing.  The checks are read from this
    module when the plan is built."""
    system = chart.system
    elements = system.sorted_elements()
    syms = sorted(ops, key=lambda t: t.sort_key)
    plan = [(1, f"D[{s.label}]({x.name})", _linearity, (s, x))
            for s in syms for x in chart.coordinates if x.weight.is_zero]
    plan += [(2, f"[D[{sa.label}],D[{sb.label}]]({x.name})",
              _supercommutator, (sa, sb, x))
             for a, sa in enumerate(syms) for sb in syms[a:]
             for x in chart.coordinates]
    plan += [(3, f"D[{s.label}] bijective out of ({delta.label})",
              is_nondegenerate, (s, delta))
             for s in syms for delta in elements
             if not _image_obstacle(system, delta, ops[s].weight_shift)]
    plan += [(4, f"decomposition at ({delta.label})", check_decomposition,
              (delta,)) for delta in elements if not delta.is_zero]
    # tuples of distinct steps over one direction, by direction, then step
    steps = sorted(system.additional_symbols, key=lambda t: t.sort_key)
    triples, pairs = ([t for t in itertools.permutations(steps, n)
                       if not _steps_obstacle(t)] for n in (3, 2))
    plan += [(5, f"cocycle (i={b_j.i}, j={b_j.j}, j1={b_j1.j}, j2={b_j2.j}) "
              f"at ({delta.label})", check_cocycle, ((b_j, b_j1, b_j2), delta))
             for b_j, b_j1, b_j2 in triples for delta in elements
             if not _swap_obstacle(system, b_j, (b_j1, b_j2), delta)]
    plan += [(6, f"kernels (i={b_j.i}, j={b_j.j}, j0={b_j0.j}) "
              f"({delta.label}) -> ({_swap(delta, b_j0, b_j).label})",
              check_kernel_preservation, ((b_j, b_j0), delta))
             for b_j, b_j0 in pairs for delta in elements
             if not _swap_obstacle(system, b_j0, (b_j,), delta)]
    return plan


def _verdict(k: int, label: str, args: tuple, res) -> PropertyCheck:
    """The report line of a plan entry of property ``k`` whose check
    returned ``res``; a failure carries its witness."""
    if k < 3:
        return _zero_check(label, res)
    if k == 3:
        s, delta = args
        return PropertyCheck(label, res, None if res else
                             f"D[{s.label}] not bijective on the "
                             f"({delta.label}) component")
    if k == 4:
        label += f" [overlap dim {res.intersection_dim}]"
    if res.passes:
        return PropertyCheck(label, True)
    text = res.witness.text() if res.witness else "?"
    return PropertyCheck(label, False, {
        4: "({0}): {1} is not spanned", 5: "fails on {1}",
        6: "mismatch witness {1}"}[k].format(args[-1].label, text))


def check_all_properties(chart: Chart, ops: dict) -> PropertyReport:
    """Run all six property checks on every applicable weight.

    ``chart`` must carry a multiplicity-free system whose basis splits
    into basic directions and lift steps; ``ops`` maps each lift step to
    its odd derivation.  The checks are those of :func:`certificate_plan`,
    run in its order.  Report-valued: failures carry witnesses, and a
    check that refuses its case fails with the reason.
    """
    if not all(w.is_multiplicity_free for w in chart.system.elements):
        raise AnalysisError("chart system must be multiplicity free")
    _operators(ops, chart.system.additional_symbols)
    fam = _Family(chart, ops)
    checks: dict[int, list[PropertyCheck]] = {k: [] for k in range(1, 7)}
    for k, label, check, args in certificate_plan(chart, ops):
        try:
            res = check(chart, fam, *args)
        except AnalysisError as exc:
            checks[k].append(PropertyCheck(label, False, str(exc)))
        else:
            checks[k].append(_verdict(k, label, args, res))
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


def reconstruct_degree2(dvb: Chart, op: Derivation) -> ReconstructionResult:
    """Rebuild a rank-1 degree-2 chart from a double-vector-bundle chart
    with one odd non-degenerate operator.

    The new top component is the kernel of the operator inside the
    composite-weight component; generators are a complement of the
    decomposable part of that kernel.  Everything is computed on the input
    chart, in its own symbols; only the rebuilt chart and its
    linearization are over ``(a1, b2_1)``.  Returns the rebuilt chart, its
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
    if any(img.truncated for img in op.images.values()):
        raise TruncationOverflow(_FLAGGED_IMAGES)

    if dvb.truncation < 2:
        raise AnalysisError("reconstruction needs truncation degree >= 2")

    # a chart with degree headroom: images of the operator may raise the
    # polynomial degree, and the kernel of the honest (untruncated) map on
    # the degree-filtered domain is what the construction needs
    big = Chart(dvb.system, dvb.coordinates, dvb.truncation + 2,
                dvb.applied_lifts)
    op_big = _restricted(op, big)

    # non-degeneracy as a module map: over the truncated coefficient ring
    # a linear map of free modules is invertible exactly when its
    # constant-term matrix is, the matrix on the fiber part
    side = component_map(_restricted(op, dvb.fibers), ua)
    if not side.is_bijective():
        raise AnalysisError("operator is degenerate between the side "
                            "components")

    wc = ua + ub
    basis_c = component_basis(big, wc, dvb.truncation)
    top = _component_matrix(basis_c, component_basis(big, wc + shift),
                            map(op_big.leibniz, basis_c))
    top.require_exact("operator image escaped even the headroom truncation")
    kern_dim = len(basis_c) - linalg.rank(top.entries)

    fib_index = [k for k, m in enumerate(basis_c)
                 if _fiber_degree(m) == m.degree]

    def const_kernel(dmax: int) -> list[linalg.Vector]:
        """The kernel vectors on the fiber monomials of degree at most
        ``dmax``: the constant-coefficient part of the kernel."""
        cols = [k for k in fib_index if basis_c[k].degree <= dmax]
        return [{cols[i]: x for i, x in v.items()} for v in
                linalg.nullspace(_columns(top.entries, cols), len(cols))]

    dim1 = len(const_kernel(1))
    kconst = const_kernel(2)
    # a constant kernel vector of fiber degree k, times each base monomial
    # of degree at most truncation - k
    if kern_dim != (dim1 * _base_count(dvb, 1)
                    + (len(kconst) - dim1) * _base_count(dvb, 2)):
        raise AnalysisError("kernel is not generated by constant-coefficient "
                            "elements at this truncation; cannot chartify")

    # the decomposable part of the kernel is the kernel vectors with no
    # single-generator part, so a kernel vector extends it exactly when
    # its single-generator part extends those of the vectors chosen so far
    single = _columns(kconst, [k for k in fib_index if basis_c[k].degree == 1])
    chosen: list[linalg.Vector] = []
    picked: list[linalg.Vector] = []
    for v, part in zip(kconst, single):
        if not _in_span(picked, len(picked), part):
            chosen.append(v)
            picked.append(part)
    kappa = [_vec_poly(dvb, basis_c, v) for v in chosen]

    by_weight: dict[Weight, list[Coordinate]] = {}
    for c in dvb.coordinates:
        by_weight.setdefault(c.weight, []).append(c)
    a1 = basic_symbol(1, alpha.parity)
    wa, w2a = weight({a1: 1}), weight({a1: 2})
    m2 = Chart.from_dims(WeightSystem((a1,), frozenset({ZERO, wa, w2a})),
                         {ZERO: dvb.base_dim, wa: len(by_weight.get(ua, ())),
                          w2a: len(kappa)}, dvb.truncation)
    lin = linearize_chart(m2)

    # a generator of the rebuilt chart pairs with the input coordinate at
    # its position among the (sorted) coordinates of its mapped weight
    symbol_map = {a1: alpha, additional_symbol(2, 1, alpha.parity): beta}
    pullback = {}
    position: dict[Weight, int] = {}
    for c in lin.chart.coordinates:
        w = weight({symbol_map.get(s, s): x for s, x in c.weight.items})
        k = position.get(w, 0)
        position[w] = k + 1
        if w == ub:
            pullback[c] = op.apply(dvb.gen(by_weight[ua][k]))
        elif w == wc:
            pullback[c] = kappa[k]
        else:
            pullback[c] = dvb.gen(by_weight[w][k])
    phi = ChartMorphism(dvb, lin.chart, pullback, symbol_map)

    verified = _verify_reconstruction(phi, lin, op)
    return ReconstructionResult(
        m2=m2, linearized=lin, phi=phi, new_generator_images=kappa,
        kernel_dim=kern_dim, verified=verified,
    )


def _morphism_matrix(phi: ChartMorphism, w: Weight) -> ComponentMatrix:
    """The fiber part of ``phi`` on the weight-``w`` component of its
    target's fibers: each column holds the terms of one pushed-forward
    monomial on ``phi.source.fibers`` (:func:`_terms_on`).  The flag of
    an image is not read."""
    fibers = phi.source.fibers
    dom = component_basis(phi.target.fibers, w)
    images = (phi.apply(monomial_poly(phi.target, m)) for m in dom)
    return _component_matrix(
        dom, component_basis(fibers, phi._map_weight(w)),
        (({t.sort_key: x for t, x in _terms_on(fibers, p).items()}, None,
          False) for p in images))


def _verify_reconstruction(phi: ChartMorphism, lin: LinearizedChart,
                           op: Derivation) -> bool:
    (b21,) = lin.chart.system.additional_symbols
    dop = lin.operators[b21]
    for c in lin.chart.coordinates:
        lhs = phi.apply(dop.of(c))
        rhs = op.apply(phi.pullback[c])
        if lhs != rhs:
            return False
    for w in lin.chart.system.sorted_elements():
        cm = _morphism_matrix(phi, w)
        if cm.truncated or not cm.is_bijective():
            return False
    return True
