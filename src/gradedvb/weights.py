"""Weight-system combinatorics.

A weight system is a finite set of integer lattice points over named basis
symbols.  It records which multi-degrees the coordinates of a graded chart
may carry.  Two families of symbols occur:

* basic symbols ``a1 .. ar``, one per grading direction, each with a chosen
  parity;
* additional symbols ``b<j>_<i>`` (``j >= 2``), introduced by the
  linearization construction, one for every multiplicity step of ``a<i>``.
  An additional symbol always has the parity opposite to its basic partner.

Everything here is small finite combinatorics: validation, multiplicity
bookkeeping, closed subsystems, the derived multiplicity-free system with
its per-weight fibers, the folding projection that forgets additional
symbols, and dualization along a vector-bundle direction.

Representation: a :class:`Weight` is a tuple of ``(symbol, coefficient)``
pairs in canonical form -- sorted by the symbols' ``sort_key``, each symbol
at most once, no zero coefficient -- and every construction checks that
form.  Symbols and weights are ``__slots__`` classes that compute their
sort key and hash once, in the constructor, so dictionary and set lookups
cost one tuple comparison.  ``+`` and ``-`` walk the two sorted entry
tuples once and drop the entries that cancel; unary ``-`` and scaling by
an integer keep the entry order.  :func:`weight` builds a weight from
arbitrary input (a dict or pairs in any order, zeros allowed).

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator


class WeightError(ValueError):
    """Raised when a weight-system operation's precondition fails."""


# ---------------------------------------------------------------------------
# basis symbols
# ---------------------------------------------------------------------------

class BasisSymbol:
    """A named generator of the weight lattice.

    ``kind`` is ``"basic"`` (index ``i``) or ``"additional"`` (indices
    ``j, i`` with ``j >= 2``).  Additional symbols carry the parity opposite
    to their paired basic symbol; this is enforced at the constructors
    below, not here, because a symbol by itself does not know its partner's
    parity.

    ``sort_key`` orders basics first by direction, then additionals by
    (direction, step); the additional-symbol order is the canonical lift
    sequence.  Together with the parity it identifies the symbol, so
    equality and hashing use the precomputed key.  Instances are immutable
    by convention.
    """

    __slots__ = ("kind", "i", "j", "parity", "sort_key", "_hash")

    def __init__(self, kind: str, i: int, j: int = 0, parity: int = 0):
        if kind not in ("basic", "additional"):
            raise WeightError(f"unknown symbol kind {kind!r}")
        if i < 1:
            raise WeightError("direction index must be >= 1")
        if kind == "additional" and j < 2:
            raise WeightError("additional symbol needs step index j >= 2")
        if kind == "basic" and j != 0:
            raise WeightError("basic symbol must not carry a step index")
        if parity not in (0, 1):
            raise WeightError("parity must be 0 or 1")
        self.kind = kind
        self.i = i
        self.j = j
        self.parity = parity
        self.sort_key = (0, i, 0) if kind == "basic" else (1, i, j)
        self._hash = hash((self.sort_key, parity))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, BasisSymbol):
            return NotImplemented
        return self.sort_key == other.sort_key and self.parity == other.parity

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        if self.kind == "basic":
            return f"a{self.i}"
        return f"b{self.j}_{self.i}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label}|{self.parity}>"


def basic_symbol(i: int, parity: int) -> BasisSymbol:
    return BasisSymbol("basic", i, 0, parity)


def additional_symbol(j: int, i: int, basic_parity: int) -> BasisSymbol:
    """The j-th lift symbol over direction i; parity is flipped."""
    return BasisSymbol("additional", i, j, (basic_parity + 1) % 2)


def paired_basic(sym: BasisSymbol) -> BasisSymbol:
    """The basic symbol an additional symbol folds back onto."""
    if sym.kind != "additional":
        raise WeightError(f"{sym.label} is not an additional symbol")
    return basic_symbol(sym.i, (sym.parity + 1) % 2)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class Weight:
    """A sparse integer vector over basis symbols.

    Canonical form: entries sorted by symbol, unique, no zero coefficients
    stored; the constructor checks it.  Use :func:`weight` to build one
    from arbitrary input.  ``sort_key`` and the hash are computed once.
    Instances are immutable by convention.
    """

    __slots__ = ("items", "sort_key", "_hash")

    def __init__(self, items: Iterable[tuple[BasisSymbol, int]] = ()):
        items = tuple(items)
        key = []
        prev = None
        for s, c in items:
            k = s.sort_key
            if prev is not None and not prev < k:
                raise WeightError("weight entries must be sorted and unique")
            if c == 0:
                raise WeightError("weight stores no zero entries")
            key.append((k, c))
            prev = k
        self.items = items
        self.sort_key = tuple(key)
        self._hash = hash(self.sort_key)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Weight):
            return NotImplemented
        return self._hash == other._hash and self.items == other.items

    def __hash__(self) -> int:
        return self._hash

    def coeff(self, sym: BasisSymbol) -> int:
        for s, c in self.items:
            if s == sym:
                return c
        return 0

    @property
    def support(self) -> tuple[BasisSymbol, ...]:
        return tuple(s for s, _ in self.items)

    @property
    def parity(self) -> int:
        return sum(c * s.parity for s, c in self.items) % 2

    @property
    def is_zero(self) -> bool:
        return not self.items

    @property
    def is_nonnegative(self) -> bool:
        # a plain loop: this prunes every step of the monomial search
        for _, c in self.items:
            if c < 0:
                return False
        return True

    @property
    def is_multiplicity_free(self) -> bool:
        return all(c == 1 for _, c in self.items)

    def _merge(self, other: "Weight", sign: int) -> "Weight":
        """``self + sign * other`` by one merge of the sorted entries."""
        a, b = self.items, other.items
        if not b:
            return self
        if not a and sign == 1:
            return other
        ka, kb = self.sort_key, other.sort_key
        na, nb = len(a), len(b)
        out = []
        i = j = 0
        while i < na and j < nb:
            sa, sb = ka[i][0], kb[j][0]
            if sa < sb:
                out.append(a[i])
                i += 1
            elif sb < sa:
                out.append((b[j][0], sign * b[j][1]))
                j += 1
            else:
                if a[i][0].parity != b[j][0].parity:
                    raise WeightError("weight entries must be sorted and unique")
                c = a[i][1] + sign * b[j][1]
                if c:
                    out.append((a[i][0], c))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend((s, sign * c) for s, c in b[j:])
        return Weight(out)

    def __add__(self, other: "Weight") -> "Weight":
        return self._merge(other, 1)

    def __sub__(self, other: "Weight") -> "Weight":
        return self._merge(other, -1)

    def __neg__(self) -> "Weight":
        return Weight([(s, -c) for s, c in self.items])

    def __mul__(self, k: int) -> "Weight":
        """Scale by an integer."""
        if k == 1:
            return self
        if k == 0:
            return ZERO
        return Weight([(s, k * c) for s, c in self.items])

    @property
    def label(self) -> str:
        if not self.items:
            return "0"
        parts = []
        for s, c in self.items:
            if c == 1:
                term = s.label
            elif c == -1:
                term = "-" + s.label
            else:
                term = f"{c}{s.label}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"W({self.label})"


def weight(coeffs: dict[BasisSymbol, int] | Iterable[tuple[BasisSymbol, int]]) -> Weight:
    """Build a weight in canonical form, dropping zero entries."""
    if isinstance(coeffs, dict):
        pairs = coeffs.items()
    else:
        pairs = list(coeffs)
    acc: dict[BasisSymbol, int] = {}
    for s, c in pairs:
        acc[s] = acc.get(s, 0) + c
    items = tuple(sorted(((s, c) for s, c in acc.items() if c != 0),
                         key=lambda sc: sc[0].sort_key))
    return Weight(items)


ZERO = Weight()


def lift_shift(tag: BasisSymbol) -> Weight:
    """The weight shift ``tag - a<i>`` of the lift by an additional symbol."""
    return Weight(((paired_basic(tag), -1), (tag, 1)))


# ---------------------------------------------------------------------------
# weight systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSystem:
    """A finite set of weights over a fixed, ordered basis."""

    basis: tuple[BasisSymbol, ...]
    elements: frozenset[Weight]

    def __post_init__(self) -> None:
        keys = [s.sort_key for s in self.basis]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise WeightError("basis must be sorted and duplicate-free")
        symset = set(self.basis)
        for w in self.elements:
            for s, _ in w.items:
                if s not in symset:
                    raise WeightError(f"element {w.label} uses symbol "
                                      f"{s.label} outside the basis")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def basic_symbols(self) -> tuple[BasisSymbol, ...]:
        return tuple(s for s in self.basis if s.kind == "basic")

    @property
    def additional_symbols(self) -> tuple[BasisSymbol, ...]:
        return tuple(s for s in self.basis if s.kind == "additional")

    def sorted_elements(self) -> list[Weight]:
        return sorted(self.elements, key=lambda w: w.sort_key)

    def unit(self, sym: BasisSymbol) -> Weight:
        return Weight(((sym, 1),))

    def __contains__(self, w: Weight) -> bool:
        return w in self.elements

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        els = ", ".join(w.label for w in self.sorted_elements())
        return f"WeightSystem[{els}]"


def system_from_rows(parities: Iterable[int], rows: Iterable[Iterable[int]]) -> WeightSystem:
    """Build a system over basic symbols from coefficient rows.

    ``parities`` fixes the parity of each basic symbol; each row lists the
    integer coefficients of one weight over those symbols.
    """
    syms = tuple(basic_symbol(i + 1, p) for i, p in enumerate(parities))
    elements = set()
    for row in rows:
        row = list(row)
        if len(row) != len(syms):
            raise WeightError(f"weight row {row} has wrong length "
                              f"(expected {len(syms)})")
        elements.add(weight(zip(syms, row)))
    return WeightSystem(syms, frozenset(elements))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three defining conditions of a weight system.

    Report-valued on purpose: the CLI explains failures instead of dying.
    ``finite`` is trivially true for this in-memory representation and is
    kept for completeness of the report.
    """

    finite: bool
    has_zero: bool
    missing_units: tuple[BasisSymbol, ...]
    negative_elements: tuple[Weight, ...]

    @property
    def has_units(self) -> bool:
        return not self.missing_units

    @property
    def is_nonnegative(self) -> bool:
        return not self.negative_elements

    @property
    def is_valid(self) -> bool:
        return self.finite and self.has_zero and self.has_units and self.is_nonnegative


def validate(ws: WeightSystem) -> ValidationReport:
    missing = tuple(s for s in ws.basis if ws.unit(s) not in ws.elements)
    negative = tuple(sorted((w for w in ws.elements if not w.is_nonnegative),
                            key=lambda w: w.sort_key))
    return ValidationReport(
        finite=True,
        has_zero=ZERO in ws.elements,
        missing_units=missing,
        negative_elements=negative,
    )


def is_multiplicity_free(ws: WeightSystem) -> bool:
    return all(w.is_multiplicity_free for w in ws.elements)


@dataclass(frozen=True)
class Multiplicities:
    """Maximal coefficient of each basis symbol over the system.

    ``extra`` counts the lift steps the linearization will need: the sum of
    ``(n_s - 1)`` over all basis symbols.
    """

    by_symbol: tuple[tuple[BasisSymbol, int], ...]

    def of(self, sym: BasisSymbol) -> int:
        for s, n in self.by_symbol:
            if s == sym:
                return n
        raise WeightError(f"{sym.label} not in system basis")

    @property
    def extra(self) -> int:
        return sum(n - 1 for _, n in self.by_symbol)


def max_multiplicities(ws: WeightSystem) -> Multiplicities:
    rep = validate(ws)
    if not rep.is_nonnegative:
        raise WeightError("multiplicities are only defined for non-negative systems")
    pairs = tuple((s, max(w.coeff(s) for w in ws.elements)) for s in ws.basis)
    return Multiplicities(pairs)


# ---------------------------------------------------------------------------
# closed subsystems
# ---------------------------------------------------------------------------

def _decompositions(target: Weight, pool: list[Weight], start: int = 0) -> Iterator[tuple[Weight, ...]]:
    """All multisets of >= 1 nonzero pool elements summing to ``target``.

    Pool elements and target must be non-negative; pruning relies on it.
    """
    if target.is_zero:
        yield ()
        return
    for idx in range(start, len(pool)):
        part = pool[idx]
        rest = target - part
        if not rest.is_nonnegative:
            continue
        for tail in _decompositions(rest, pool, idx):
            yield (part,) + tail


def is_closed_subsystem(ws: WeightSystem, subset: Iterable[Weight]) -> bool:
    """Whether ``subset`` is closed under decomposition inside ``ws``.

    Closed means: whenever an element of the subset is a sum of elements of
    ``ws``, every summand already lies in the subset.  Since any nonzero
    element decomposes as itself plus the zero weight, a nonempty closed
    subset with a nonzero element must contain zero.  Restricting a chart
    to a closed subset again yields a chart.
    """
    sub = set(subset)
    if not sub <= ws.elements:
        raise WeightError("subset must consist of system elements")
    if not validate(ws).is_nonnegative:
        raise WeightError("closure testing requires a non-negative system")
    if any(not w.is_zero for w in sub) and ZERO in ws.elements and ZERO not in sub:
        return False
    pool = sorted((w for w in ws.elements if not w.is_zero), key=lambda w: w.sort_key)
    for target in sub:
        for parts in _decompositions(target, pool):
            if len(parts) < 2:
                continue
            if any(p not in sub for p in parts):
                return False
    return True


# ---------------------------------------------------------------------------
# the derived multiplicity-free system
# ---------------------------------------------------------------------------

def lift_symbols(ws: WeightSystem) -> tuple[BasisSymbol, ...]:
    """The additional symbols the linearization of ``ws`` introduces.

    One symbol ``b<j>_<i>`` for every ``j = 2 .. n_i`` over each basic
    direction ``i``, in canonical sequence order.  Directions that are
    already multiplicity free contribute nothing.
    """
    mults = max_multiplicities(ws)
    for s in ws.additional_symbols:
        if mults.of(s) > 1:
            raise WeightError("cannot linearize: additional direction "
                              f"{s.label} has multiplicity > 1")
    syms = []
    for s in ws.basic_symbols:
        for j in range(2, mults.of(s) + 1):
            syms.append(additional_symbol(j, s.i, s.parity))
    return tuple(sorted(syms, key=lambda t: t.sort_key))


def delta_prime_fiber(ws: WeightSystem, delta: Weight) -> tuple[Weight, ...]:
    """The derived weights sitting over ``delta``.

    For each basic direction ``i`` with coefficient ``a_i`` in ``delta``,
    choose a subset ``I`` of the lift steps ``{2..n_i}`` of size ``a_i`` or
    ``a_i - 1`` and trade ``|I|`` copies of ``a<i>`` for the chosen
    ``b<j>_<i>``.  The result is always multiplicity free.
    """
    if delta not in ws.elements:
        raise WeightError(f"{delta.label} is not an element of the system")
    mults = max_multiplicities(ws)
    per_direction: list[list[Weight]] = []
    for s in ws.basic_symbols:
        a = delta.coeff(s)
        steps = list(range(2, mults.of(s) + 1))
        shifts = []
        for size in {a, a - 1}:
            if size < 0 or size > len(steps):
                continue
            for combo in itertools.combinations(steps, size):
                shifts.append(weight([(s, -size)] + [
                    (additional_symbol(j, s.i, s.parity), 1) for j in combo]))
        per_direction.append(shifts)
    fiber = set()
    for choice in itertools.product(*per_direction) if per_direction else [()]:
        w = delta
        for shift in choice:
            w = w + shift
        fiber.add(w)
    return tuple(sorted(fiber, key=lambda w: w.sort_key))


def linearized_system(ws: WeightSystem) -> WeightSystem:
    """The multiplicity-free system produced by the linearization.

    The basis is extended by the lift symbols; the element set is the union
    of the fibers over all elements of ``ws``.  For multiplicity-free input
    this is the identity on elements.
    """
    rep = validate(ws)
    if not rep.is_valid:
        raise WeightError("linearization requires a valid non-negative system")
    new_basis = tuple(sorted(ws.basis + lift_symbols(ws), key=lambda s: s.sort_key))
    elements = set()
    for delta in ws.elements:
        elements.update(delta_prime_fiber(ws, delta))
    return WeightSystem(new_basis, frozenset(elements))


def projection_G(w: Weight) -> Weight:
    """Fold every additional symbol back onto its basic partner.

    The preimage of a weight ``delta`` inside a derived system is exactly
    the fiber over ``delta``.
    """
    acc: dict[BasisSymbol, int] = {}
    for s, c in w.items:
        t = paired_basic(s) if s.kind == "additional" else s
        acc[t] = acc.get(t, 0) + c
    return weight(acc)


# ---------------------------------------------------------------------------
# dualization along a bundle direction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualizationResult:
    """Raw dual element set plus a suggested (optional) re-basing.

    The element set is always ``base + negated fiber part``.  The suggested
    basis keeps the directions that appear in the base and replaces the
    fiber direction by the negation of the componentwise-maximal fiber
    weight; this matches the worked rank-2 examples but is only a
    heuristic for general systems, so ``suggestion_valid`` says whether
    every dual element is a non-negative combination of suggested symbols
    that themselves occur in the dual.  Re-basing is left to the caller.
    """

    system: WeightSystem
    fiber_symbol: BasisSymbol
    suggested_basis: tuple[Weight, ...]
    suggestion_valid: bool


def _expressible(target: Weight, gens: list[Weight]) -> bool:
    """Whether ``target`` is a non-negative integer combination of ``gens``."""
    if target.is_zero:
        return True
    # coefficients are bounded by the largest absolute entry; the set of
    # sums reachable with the generators seen so far grows one generator
    # at a time, so equal partial sums are explored once
    bound = max(abs(c) for _, c in target.items) + 1
    reach = {ZERO}
    for g in gens:
        reach = {r + g * k for r in reach for k in range(bound + 1)}
    return target in reach


def dualize(ws: WeightSystem, base: Iterable[Weight]) -> DualizationResult:
    """Negate the fiber part of a system over a vector-bundle direction.

    Precondition: some basis symbol has coefficient exactly +1 (or exactly
    -1, so that dualization is an involution on its own output) in every
    element outside ``base`` and 0 in every element of ``base``.  The dual
    keeps the base and negates the rest.

    The negation rule is only pinned down by the known rank-2 worked
    examples; for general systems it is an extrapolation, which is why the
    result carries a suggested re-basing and a validity flag instead of
    silently adopting a new basis.
    """
    base_set = set(base)
    if not base_set <= ws.elements:
        raise WeightError("base must consist of system elements")
    fiber = sorted(ws.elements - base_set, key=lambda w: w.sort_key)
    if not fiber:
        raise WeightError("fiber part is empty; nothing to dualize")
    direction = None
    for s in ws.basis:
        cs = {w.coeff(s) for w in fiber}
        if cs in ({1}, {-1}) and all(w.coeff(s) == 0 for w in base_set):
            direction = s
            break
    if direction is None:
        raise WeightError("no basis symbol separates base from fiber with "
                          "uniform coefficient +-1; not a bundle direction")
    dual_elements = frozenset(base_set | {-w for w in fiber})
    # componentwise maximum of the fiber, if the fiber attains it
    items: dict[BasisSymbol, int] = {}
    for w in fiber:
        for s, c in w.items:
            items[s] = max(items.get(s, 0), c) if c > 0 else min(items.get(s, 0), c)
    top = weight(items)
    suggested = [ws.unit(s) for s in ws.basis
                 if s != direction and any(w.coeff(s) != 0 for w in base_set)]
    suggested.append(-top if top in fiber else -ws.unit(direction))
    ok = all(g in dual_elements or g.is_zero for g in suggested) and all(
        _expressible(w, suggested) for w in dual_elements)
    return DualizationResult(
        system=WeightSystem(ws.basis, dual_elements),
        fiber_symbol=direction,
        suggested_basis=tuple(suggested),
        suggestion_valid=ok,
    )
