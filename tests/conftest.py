import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gradedvb import (
    Chart,
    ChartMorphism,
    ComponentMatrix,
    Coordinate,
    Derivation,
    Monomial,
    Polynomial,
    ReconstructionResult,
    TruncationOverflow,
    Weight,
    WeightSystem,
    ZERO,
    additional_symbol,
    basic_symbol,
    component_basis,
    lift_symbols,
    linearize_chart,
    monomial_poly,
    multiply,
    system_from_rows,
    tangent_lift,
    weight,
)
from gradedvb import linalg
from gradedvb.specfile import _parsed_terms
from gradedvb.analysis import (
    _FLAGGED_IMAGES,
    _ONE,
    AnalysisError,
    CocycleResult,
    KernelPreservationResult,
    PropertyCheck,
    PropertyReport,
    _bsupport,
    _columns,
    _component_matrix,
    _image_obstacle,
    _in_span,
    _operators,
    _require,
    _steps_obstacle,
    _swap,
    _swap_obstacle,
    _transfer,
    _vec_poly,
    _verify_reconstruction,
    _zero_check,
    component_map,
    kernel_intersection,
)


def make_system(parities, rows):
    return system_from_rows(parities, rows)


def degree_system(n, parity=1):
    """Rank-1 system {0, a, 2a, .., na}."""
    return make_system([parity], [[k] for k in range(n + 1)])


def rank1_chart(n, dims, parity=1, trunc=3):
    ws = degree_system(n, parity)
    a = basic_symbol(1, parity)
    dmap = {ZERO: dims[0]}
    for k in range(1, n + 1):
        dmap[weight({a: k})] = dims[k]
    return Chart.from_dims(ws, dmap, trunc)


def full_lift(src):
    """The full iterated tangent lift of a source chart, negative-weight
    coordinates included; the reference for the step-wise quotient that
    ``linearize_chart`` builds."""
    lifted = src
    for tag in lift_symbols(src.system):
        lifted = tangent_lift(lifted, tag)
    return lifted


def leibniz_reference(d, p):
    """``d.apply(p)`` term by term, as ``Derivation.apply`` computed it
    before the Leibniz merge: for each factor with a nonzero or flagged
    image, the cofactor as a one-term polynomial times the image, summed,
    scaled by the term's coefficient and summed again.  The reference for
    the merge."""
    def apply_monomial(m):
        out = d.chart.zero()
        factors = m.factors
        parities = [c.parity * e for c, e in factors]
        prefix = 0
        for k, (c, e) in enumerate(factors):
            img = d.images.get(c)
            if img is not None and (img.terms or img.truncated):
                suffix = (e - 1) * c.parity + sum(parities[k + 1:])
                sign_exp = d.parity * prefix + (d.parity + c.parity) * suffix
                rest = list(factors)
                if e == 1:
                    rest.pop(k)
                else:
                    rest[k] = (c, e - 1)
                coeff = Fraction(e) * ((-1) ** (sign_exp % 2))
                out = out + multiply(
                    monomial_poly(d.chart, Monomial(tuple(rest)), coeff), img)
            prefix += parities[k]
        return out

    if p.chart != d.chart:
        p = p.in_chart(d.chart)
    out = d.chart.zero()
    for m, c in p.terms.items():
        out = out + apply_monomial(m).scale(c)
    if p.truncated:
        out = Polynomial(out.chart, out.terms, True)
    return out


def matrix_reference(apply, dom_chart, dom, cod, fiber_only=False):
    """The component matrix of ``apply`` from the span of ``dom``
    (monomials over ``dom_chart``) to the span of ``cod``, built as the
    analysis layer built it before its one column builder: ``apply`` on a
    one-term polynomial per column, and the image expanded over ``cod``.
    A column is flagged when its image is flagged or has a term outside
    ``cod``; with ``fiber_only`` the image is first projected onto its
    fiber monomials (no weight-0 factor), which drops its flag.  The
    reference for ``analysis._component_matrix``."""
    index = {m: r for r, m in enumerate(cod)}
    entries = [{} for _ in cod]
    overflow = []
    for k, m in enumerate(dom):
        img = apply(monomial_poly(dom_chart, m))
        terms, over = img.terms, img.truncated
        if fiber_only:
            terms = {t: c for t, c in terms.items() if is_fiber(t)}
            over = False
        for t, c in terms.items():
            r = index.get(t)
            if r is None:
                over = True
            else:
                entries[r][k] = c
        overflow.append(over)
    return ComponentMatrix(dom, cod, entries, overflow)


def quotient_polynomial(target, p):
    """``p`` with zero substituted for its negative-weight coordinates,
    over the quotient chart ``target``: the quotient map, an algebra map.
    The reference for the lift derivations applied on the quotient."""
    terms = {m: c for m, c in p.terms.items()
             if all(f.weight.is_nonnegative for f, _ in m.factors)}
    return Polynomial(target, terms, p.truncated)


def random_derivation(rng, chart, shift, parity, flagged=0.0):
    """A derivation whose image of each coordinate is a random combination
    of the basis monomials of the shifted weight: multi-term images that
    raise the degree.  Each image carries the truncation flag with
    probability ``flagged``."""
    images = {}
    for c in chart.coordinates:
        basis = component_basis(chart, c.weight + shift)
        terms = {m: Fraction(rng.randint(-2, 2)) for m in basis}
        images[c] = Polynomial(chart, terms,
                               bool(flagged) and rng.random() < flagged)
    return Derivation(chart, shift, parity, images)


def headroom_operators():
    """An operator with multi-term images on the degree-2 chart, as
    ``reconstruct_degree2`` receives one, and the same operator on that
    chart with two degrees of headroom, as ``reconstruct_degree2`` builds
    it."""
    dvb = linearize_chart(rank1_chart(2, [1, 1, 1])).chart
    xi = dvb.coordinate("xi{a1}_1")
    dxi = dvb.coordinate("xi{a1}_1[b2_1]")
    eta = dvb.coordinate("xi{2a1}_1[b2_1]")
    x1 = dvb.coordinate("x1")
    images = {
        xi: dvb.gen(dxi) + multiply(dvb.gen(x1), dvb.gen(dxi)),
        eta: multiply(dvb.gen(dxi), dvb.gen(dxi)),
    }
    shift = weight({additional_symbol(2, 1, 1): 1, basic_symbol(1, 1): -1})
    big = Chart(dvb.system, dvb.coordinates, dvb.truncation + 2,
                dvb.applied_lifts)
    op_big = Derivation(big, shift, 1, {c: Polynomial(big, img.terms)
                                        for c, img in images.items()})
    return Derivation(dvb, shift, 1, images), op_big


def parse_reference(chart, text):
    """``parse_polynomial`` as it summed before the one-dict sum: each
    parsed term added to the running polynomial as a one-term polynomial.
    The reference for that sum."""
    poly = chart.zero()
    for mono, coeff in _parsed_terms(chart, text):
        poly = poly + monomial_poly(chart, mono, coeff)
    return poly


def nondegenerate_reference(chart, ops, sym, delta):
    """``analysis.is_nondegenerate`` as it ran before the fiber blocks, on
    the whole component: the rank test at every truncation degree up to
    the chart's, each on a slice of the one full-degree matrix.  The
    reference for the block path, as are the three checks below."""
    (op,) = _operators(ops, (sym,))
    _require(_image_obstacle(chart.system, delta, op.weight_shift))
    full = component_map(op, delta)
    return all(full.capped(d).is_bijective()
               for d in range(1, chart.truncation + 1))


def decomposition_reference(chart, ops, delta_prime):
    """``analysis.check_decomposition`` on the whole component, with its
    result fields in a namespace and both lists built eagerly."""
    basis = component_basis(chart, delta_prime)
    product = [k for k, m in enumerate(basis)
               if sum(e for c, e in m.factors if not c.weight.is_zero) >= 2]
    product_basis = [basis[k] for k in product]
    kbasis, kvecs = kernel_intersection(
        chart, _operators(ops, _bsupport(delta_prime)), delta_prime)
    cols = [{k: _ONE} for k in product] + kvecs
    spanned = linalg.rank(cols)
    passes = spanned == len(basis)
    witness = None if passes else next(
        (monomial_poly(chart, m) for k, m in enumerate(basis)
         if not _in_span(cols, spanned, {k: _ONE})), None)
    inter = len(cols) - spanned
    return SimpleNamespace(
        delta_prime=delta_prime, passes=passes, component_dim=len(basis),
        product_dim=len(product_basis), kernel_dim=len(kvecs),
        intersection_dim=inter, product_basis=product_basis,
        kernel_polys=[_vec_poly(chart, kbasis, v) for v in kvecs],
        witness=witness,
    )


def cocycle_sides_reference(steps, fam, delta):
    """The two sides of the cocycle identity for the steps ``(b_j, b_j1,
    b_j2)`` with operators ``fam``, as ``analysis._cocycle_sides`` built
    them before it read its transfers from a view."""
    b_j, b_j1, b_j2 = steps
    d_j, d_j1, d_j2 = fam
    d1, d2 = _swap(delta, b_j, b_j1), _swap(delta, b_j, b_j2)
    lhs = _transfer(d_j2, d_j, delta, d2)
    step1 = _transfer(d_j1, d_j, delta, d1)
    step2 = _transfer(d_j2, d_j1, d1, d2)
    return lhs, linalg.matmul(step2, step1)


def cocycle_reference(chart, ops, steps, delta):
    """``analysis.check_cocycle`` on the whole component."""
    _require(_steps_obstacle(steps)
             or _swap_obstacle(chart.system, steps[0], steps[1:], delta))
    fam = _operators(ops, steps)
    total = linalg.matadd(*cocycle_sides_reference(steps, fam, delta))
    basis, kvecs = kernel_intersection(chart, fam[:1], delta)
    for v in kvecs:
        if linalg.matvec(total, v):
            return CocycleResult(delta, False, len(kvecs),
                                 _vec_poly(chart, basis, v))
    return CocycleResult(delta, True, len(kvecs), None)


def kernel_preservation_reference(chart, ops, steps, delta):
    """``analysis.check_kernel_preservation`` on the whole component."""
    b_j, b_j0 = steps
    _require(_steps_obstacle(steps)
             or _swap_obstacle(chart.system, b_j0, (b_j,), delta))
    d_j, d_j0 = _operators(ops, steps)
    delta_prime = _swap(delta, b_j0, b_j)
    _, src_k = kernel_intersection(
        chart, _operators(ops, _bsupport(delta)), delta)
    dst_basis, dst_k = kernel_intersection(
        chart, _operators(ops, _bsupport(delta_prime)), delta_prime)
    tr = _transfer(d_j, d_j0, delta, delta_prime)
    image = [linalg.matvec(tr, v) for v in src_k]
    r_img, r_dst = linalg.rank(image), len(dst_k)
    passes = r_img == r_dst == linalg.rank(image + dst_k)
    witness = None
    if not passes:
        bad = next(itertools.chain(
            (v for v in image if not _in_span(dst_k, r_dst, v)),
            (v for v in dst_k if not _in_span(image, r_img, v))), None)
        witness = None if bad is None else _vec_poly(chart, dst_basis, bad)
    return KernelPreservationResult(delta, delta_prime, passes,
                                    len(src_k), len(dst_k), witness)


def certificate_reference(chart: Chart, ops: dict) -> PropertyReport:
    """``check_all_properties`` as it ran before the certificate plan: one
    hand-written loop per property, properties 3 to 6 each filtering its
    candidates by the obstacle function of its check and running the
    whole-component reference of that check, and property 2 on each
    operator's image of each generator.  The reference for
    ``analysis.certificate_plan``, the loop that runs it and the checks'
    fiber blocks.

    ``chart`` must carry a multiplicity-free system whose basis splits
    into basic directions and lift steps; ``ops`` maps each lift step to
    its odd derivation.  Report-valued: failures carry witnesses.
    """
    system = chart.system
    if not all(w.is_multiplicity_free for w in system.elements):
        raise AnalysisError("chart system must be multiplicity free")
    _operators(ops, system.additional_symbols)
    checks: dict[int, list[PropertyCheck]] = {k: [] for k in range(1, 7)}

    syms = sorted(ops, key=lambda t: t.sort_key)
    zero_coords = [c for c in chart.coordinates if c.weight.is_zero]
    checks[1] = [_zero_check(f"D[{s.label}]({x.name})", ops[s].of(x))
                 for s in syms for x in zero_coords]
    gens = [chart.gen(c) for c in chart.coordinates]
    first = {s: [ops[s].apply(g) for g in gens] for s in syms}
    for a_idx, sa in enumerate(syms):
        for sb in syms[a_idx:]:
            for c, da, db in zip(chart.coordinates, first[sa], first[sb]):
                checks[2].append(_zero_check(
                    f"[D[{sa.label}],D[{sb.label}]]({c.name})",
                    ops[sa].apply(db) + ops[sb].apply(da)))

    elements = system.sorted_elements()
    for s in syms:
        shift = ops[s].weight_shift
        for delta in elements:
            if _image_obstacle(system, delta, shift):
                continue
            ok = nondegenerate_reference(chart, ops, s, delta)
            checks[3].append(PropertyCheck(
                f"D[{s.label}] bijective out of ({delta.label})", ok,
                None if ok else f"D[{s.label}] not bijective on the "
                                f"({delta.label}) component"))

    for delta in elements:
        if delta.is_zero:
            continue
        res = decomposition_reference(chart, ops, delta)
        checks[4].append(PropertyCheck(
            f"decomposition at ({delta.label}) "
            f"[overlap dim {res.intersection_dim}]", res.passes,
            None if res.passes else
            f"({delta.label}): {res.witness.text() if res.witness else '?'} "
            "is not spanned"))

    # tuples of distinct steps over one direction, by direction, then step
    steps = sorted(system.additional_symbols, key=lambda t: t.sort_key)
    for triple in itertools.permutations(steps, 3):
        if _steps_obstacle(triple):
            continue
        b_j, b_j1, b_j2 = triple
        head = f"cocycle (i={b_j.i}, j={b_j.j}, j1={b_j1.j}, j2={b_j2.j}) at "
        for delta in elements:
            if _swap_obstacle(system, b_j, (b_j1, b_j2), delta):
                continue
            label = f"{head}({delta.label})"
            try:
                res = cocycle_reference(chart, ops, triple, delta)
            except AnalysisError as exc:
                checks[5].append(PropertyCheck(label, False, str(exc)))
                continue
            checks[5].append(PropertyCheck(
                label, res.passes,
                None if res.passes else f"fails on {res.witness.text()}"))

    for pair in itertools.permutations(steps, 2):
        if _steps_obstacle(pair):
            continue
        b_j, b_j0 = pair
        head = f"kernels (i={b_j.i}, j={b_j.j}, j0={b_j0.j}) "
        for delta in elements:
            if _swap_obstacle(system, b_j0, (b_j,), delta):
                continue
            label = f"{head}({delta.label}) -> ({_swap(delta, b_j0, b_j).label})"
            try:
                res = kernel_preservation_reference(chart, ops, pair, delta)
            except AnalysisError as exc:
                checks[6].append(PropertyCheck(label, False, str(exc)))
                continue
            checks[6].append(PropertyCheck(
                label, res.passes, None if res.passes else
                f"mismatch witness {res.witness.text() if res.witness else '?'}"))

    return PropertyReport(checks)


def fiber_reference(chart: Chart, w: Weight) -> list[Monomial]:
    """The monomials of the full weight-``w`` basis with no weight-0
    factor, filtered out of :func:`component_basis`: the reference for
    the bases of ``Chart.fibers``, whose search never lists the others."""
    return [m for m in component_basis(chart, w) if is_fiber(m)]


def is_fiber(m: Monomial) -> bool:
    """Whether the monomial ``m`` has no weight-0 factor."""
    return all(not c.weight.is_zero for c, _ in m.factors)


def _relabel_chart(dvb: Chart, mapping: dict) -> tuple[Chart, dict]:
    """Rewrite a chart over renamed basis symbols; returns the chart and
    the coordinate bijection old -> new."""
    def map_w(w: Weight) -> Weight:
        return weight({mapping.get(s, s): c for s, c in w.items})

    basis = tuple(sorted((mapping.get(s, s) for s in dvb.system.basis),
                         key=lambda s: s.sort_key))
    system = WeightSystem(basis, frozenset(map_w(w) for w in dvb.system.elements))
    cmap = {c: Coordinate(c.cid, map_w(c.weight), c.parity)
            for c in dvb.coordinates}
    return Chart(system, tuple(cmap.values()), dvb.truncation), cmap


def _relabel_poly(p: Polynomial, target: Chart, cmap: dict) -> Polynomial:
    return Polynomial(target, {Monomial(tuple((cmap[c], e) for c, e in m.factors)):
                               coeff for m, coeff in p.terms.items()}, p.truncated)


def reconstruct_reference(dvb: Chart, op: Derivation) -> ReconstructionResult:
    """``reconstruct_degree2`` as it ran before it worked on the input
    chart: the input copied onto ``(a1, b2_1)`` by ``_relabel_chart`` and
    ``_relabel_poly`` (the identity when it is already there), the
    construction run on the copy and its results copied back.  The
    reference for the reconstruction; the copy back raises
    ``AlgebraError`` on a product whose factors the copy reorders, as
    when the fiber direction sorts before the base direction.  An
    operator with a flagged image is refused with ``TruncationOverflow``,
    as the reconstruction refuses it.

    Rebuild a rank-1 degree-2 chart from a double-vector-bundle chart
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
    if any(img.truncated for img in op.images.values()):
        raise TruncationOverflow(_FLAGGED_IMAGES)

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

    # non-degeneracy as a module map: over the truncated coefficient ring
    # a linear map of free modules is invertible exactly when its
    # constant-term matrix is
    side = matrix_reference(op_big.apply, big, fiber_reference(rl, wa),
                            fiber_reference(rl, wb), fiber_only=True)
    side.require_exact("side-component image escaped the headroom truncation")
    if not side.is_bijective():
        raise AnalysisError("operator is degenerate between the side "
                            "components")

    wc = wa + wb
    basis_c = component_basis(big, wc, rl.truncation)
    top = _component_matrix(basis_c,
                            component_basis(big, wc + op_big.weight_shift),
                            map(op_big.leibniz, basis_c))
    top.require_exact("operator image escaped even the headroom truncation")
    kern_dim = len(basis_c) - linalg.rank(top.entries)

    fib_index = [k for k, m in enumerate(basis_c) if is_fiber(m)]

    def const_kernel(dmax: int) -> list[linalg.Vector]:
        """The kernel vectors on the fiber monomials of degree at most
        ``dmax``: the constant-coefficient part of the kernel."""
        cols = [k for k in fib_index if basis_c[k].degree <= dmax]
        return [{cols[i]: x for i, x in v.items()} for v in
                linalg.nullspace(_columns(top.entries, cols), len(cols))]

    dim1 = len(const_kernel(1))
    kconst = const_kernel(2)
    # weight-0 monomials of degree at most truncation - 1 and - 2
    n1, n2 = (len(component_basis(rl, ZERO, max(rl.truncation - k, 0)))
              for k in (1, 2))
    if kern_dim != dim1 * n1 + (len(kconst) - dim1) * n2:
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
    kappa_rl = [_vec_poly(rl, basis_c, v) for v in chosen]

    ka = sum(1 for c in rl.coordinates if c.weight == wa)
    m2_system = WeightSystem((a1,), frozenset({ZERO, wa, weight({a1: 2})}))
    m2 = Chart.from_dims(m2_system, {ZERO: rl.base_dim, wa: ka,
                                     weight({a1: 2}): len(kappa_rl)},
                         rl.truncation)
    lin = linearize_chart(m2)

    def dvb_gen(w: Weight, k: int) -> Polynomial:
        """The input chart's ``k``-th coordinate of weight ``w``."""
        return dvb.gen(inv_cmap[[c for c in rl.coordinates if c.weight == w][k]])

    # a generator of the rebuilt chart pairs with the input coordinates by
    # its position among the (sorted) coordinates of its weight
    pullback = {}
    position: dict[Weight, int] = {}
    for c in lin.chart.coordinates:
        k = position.get(c.weight, 0)
        position[c.weight] = k + 1
        if c.weight == wb:
            pullback[c] = op.apply(dvb_gen(wa, k))
        elif c.weight == wc:
            pullback[c] = _relabel_poly(kappa_rl[k], dvb, inv_cmap)
        else:
            pullback[c] = dvb_gen(c.weight, k)
    phi = ChartMorphism(dvb, lin.chart, pullback,
                        {a1: alpha, b21: beta})

    verified = _verify_reconstruction(phi, lin, op)
    return ReconstructionResult(
        m2=m2, linearized=lin, phi=phi,
        new_generator_images=[_relabel_poly(k, dvb, inv_cmap)
                              for k in kappa_rl],
        kernel_dim=kern_dim, verified=verified,
    )


def assert_canonical(monomials):
    """Each monomial equals the one the validating constructor builds from
    its factors, in weight, parity, degree, key and hash."""
    for m in monomials:
        ref = Monomial(m.factors)
        assert (m.weight, m.parity, m.degree, m.sort_key, hash(m)) == \
            (ref.weight, ref.parity, ref.degree, ref.sort_key, hash(ref))


def dense(rows, width):
    """Dense ``Fraction`` lists of sparse rows (``linalg``'s form) of the
    given width.  Every stored entry must be a nonzero ``Fraction`` at a
    column inside the width."""
    for row in rows:
        assert all(type(x) is Fraction and x != 0 and 0 <= k < width
                   for k, x in row.items())
    return [[row.get(k, Fraction(0)) for k in range(width)] for row in rows]


def sparse(rows):
    """The sparse form of dense rows: their nonzero entries by column."""
    return [{k: x for k, x in enumerate(row) if x} for row in rows]


def random_nonneg_system(rng: random.Random, max_rank=2, max_mult=3):
    """A random valid non-negative system with bounded multiplicities."""
    rank = rng.randint(1, max_rank)
    parities = [rng.randint(0, 1) for _ in range(rank)]
    caps = [rng.randint(1, max_mult) for _ in range(rank)]
    pool = [row for row in itertools.product(*(range(c + 1) for c in caps))]
    rows = {(0,) * rank}
    for i in range(rank):
        unit = [0] * rank
        unit[i] = 1
        rows.add(tuple(unit))
    extras = [row for row in pool if row not in rows]
    rng.shuffle(extras)
    for row in extras[: rng.randint(0, min(4, len(extras)))]:
        rows.add(row)
    # make sure the caps are attained so multiplicities match intent
    for i in range(rank):
        top = [0] * rank
        top[i] = caps[i]
        if rng.random() < 0.8:
            rows.add(tuple(top))
    return make_system(parities, sorted(rows))


def random_chart(rng: random.Random, system: WeightSystem, max_dim=2, trunc=3,
                 base_dim=None):
    dims = {}
    for w in system.sorted_elements():
        dims[w] = rng.randint(1, max_dim) if w.is_zero else rng.randint(0, max_dim)
    if base_dim is not None:
        dims[ZERO] = base_dim
    if all(dims[w] == 0 for w in dims if not w.is_zero):
        unit = system.unit(system.basic_symbols[0])
        dims[unit] = 1
    return Chart.from_dims(system, dims, trunc)


@pytest.fixture
def rng():
    return random.Random(20240811)
