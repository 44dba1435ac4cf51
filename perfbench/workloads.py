"""Seeded inputs and output checks for the benchmark workloads.

Every workload is a fixed list of CLI calls built from one integer seed:
the same seed gives byte-identical spec files and ``--lam``/``--rhs``
text.  The program under test only ever sees those generated inputs.

The random chart family mirrors the acceptance-test family (rank <= 2,
multiplicity <= 3, dims <= 2, truncation 3), so the benchmark measures
the input distribution the acceptance criteria certify.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

WORKLOADS = ("check-ladder", "invert-family", "linearize-sweep",
             "reconstruct-deg2")

# check-ladder: the rank-1 rungs are fixed (degree, truncation, dims,
# parity), because the cost of a certificate grows steeply with the shape
# and a seeded shape would move the tail from seed to seed.  Per-case
# times on the seed commit run from about 0.005 s to 2.3 s.  The degree-4
# chart with dims 2,2,2,1,1 named in ROADMAP.md is left out: at about
# 4.7 s a call it was over a third of a pass, so only two passes fitted
# in a run and every time metric hung on a handful of its calls.  The
# degree-4 rung with dims 1,2,2,1,1 (about 1.2 s, three quarters of it in
# linalg) keeps linalg and analysis the largest share of the workload.
CHECK_RUNGS = (
    (3, 3, (1, 1, 1, 1), 0),
    (3, 3, (1, 2, 2, 2), 1),
    (3, 3, (2, 1, 1, 1), 0),
    (3, 4, (1, 1, 1, 1), 1),
    (3, 4, (1, 2, 2, 2), 0),
    (3, 4, (2, 1, 1, 1), 1),
    (4, 3, (1, 1, 1, 1, 1), 0),
    (4, 3, (1, 1, 1, 1, 1), 1),
    (4, 3, (2, 1, 1, 1, 1), 1),
    (4, 3, (1, 2, 2, 1, 1), 1),
    (4, 4, (1, 1, 1, 1, 1), 0),
    (5, 3, (1, 1, 1, 1, 1, 1), 1),
)


@dataclass(frozen=True)
class Case:
    """One CLI call: the spec file text, the arguments after the file
    path, and what the output check needs to know beforehand."""

    command: str
    spec: str
    args: tuple[str, ...] = ()
    source: str | None = None   # invert: the polynomial the rhs came from

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args, "--json"]

    def key(self) -> str:
        """Identity of the input, for counting distinct cases."""
        return "\0".join((self.command, self.spec, *self.args))


def inputs_digest(cases: list[Case]) -> str:
    h = hashlib.sha256()
    for c in cases:
        h.update(c.key().encode())
        h.update(b"\1")
    return h.hexdigest()


def distinct_share(cases: list[Case]) -> float:
    return len({c.key() for c in cases}) / len(cases)


# ---------------------------------------------------------------------------
# spec text
# ---------------------------------------------------------------------------

def spec_text(parities, rows, dims, trunc) -> str:
    """Spec file for a system given by coefficient rows; ``dims`` maps a
    row (tuple) to its number of generators."""
    out = [f"rank {len(parities)}; parities " + " ".join(map(str, parities))]
    out += [",".join(map(str, r)) for r in rows]
    zero = (0,) * len(parities)
    out += ["", "chart", f"trunc {trunc}", f"base_dim {dims.get(zero, 0)}"]
    for r in rows:
        if r != zero and dims.get(r, 0):
            out.append(f"dim {','.join(map(str, r))}: {dims[r]}")
    return "\n".join(out) + "\n"


def rank1_spec(degree, dims, parity, trunc) -> str:
    rows = [(k,) for k in range(degree + 1)]
    return spec_text([parity], rows, dict(zip(rows, dims)), trunc)


def family_system(rng: random.Random, max_rank=2, max_mult=3):
    """A random valid non-negative system with bounded multiplicities
    (same distribution as the acceptance family)."""
    rank = rng.randint(1, max_rank)
    parities = [rng.randint(0, 1) for _ in range(rank)]
    caps = [rng.randint(1, max_mult) for _ in range(rank)]
    pool = list(itertools.product(*(range(c + 1) for c in caps)))
    rows = {(0,) * rank}
    for i in range(rank):
        rows.add(tuple(int(k == i) for k in range(rank)))
    extras = [r for r in pool if r not in rows]
    rng.shuffle(extras)
    rows.update(extras[: rng.randint(0, min(4, len(extras)))])
    for i in range(rank):
        if rng.random() < 0.8:
            rows.add(tuple(caps[i] if k == i else 0 for k in range(rank)))
    return parities, sorted(rows)


def family_dims(rng: random.Random, rows, max_dim=2) -> dict:
    zero = rows[0]
    dims = {r: rng.randint(1, max_dim) if r == zero else rng.randint(0, max_dim)
            for r in rows}
    if all(dims[r] == 0 for r in rows if r != zero):
        dims[tuple(int(k == 0) for k in range(len(zero)))] = 1
    return dims


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
#
# The shapes of the random cases (system rows, dims, truncation, and for
# invert the composite) are drawn once from the family distribution with
# a fixed plan seed.  The workload seed draws only values that change the
# amount of work little or not at all: the order of the cases, a
# relabelling of the grading directions and the source polynomials of
# `invert`.  `check` runs with its default spot-check seed, because the
# spot checks change the cost with their seed: one rung took from 0.39 s
# to 0.56 s a call over six seeds.  A seeded shape would move the tail
# latency by more than any regression bound from one seed to the next,
# because case costs are heavy-tailed.

PLAN_SEED = 161109407
CHECK_FAMILY = 19
INVERT_CASES = 150
PAIRS_PER_CHART = 3
LINEARIZE_CASES = 240


def _permuted(parities, rows, dims, perm):
    """The same system and chart with grading direction ``k`` renamed to
    ``perm[k]``."""
    def move(row):
        out = [0] * len(row)
        for k, c in enumerate(row):
            out[perm[k]] = c
        return tuple(out)
    new_par = [0] * len(parities)
    for k, p in enumerate(parities):
        new_par[perm[k]] = p
    return (new_par, sorted(move(r) for r in rows),
            {move(r): n for r, n in dims.items()})


def _relabelled(rng, parities, rows, dims):
    perm = list(range(len(parities)))
    rng.shuffle(perm)
    return _permuted(parities, rows, dims, perm)


def _check_ladder(plan: random.Random, rng: random.Random) -> list[Case]:
    specs = [rank1_spec(degree, dims, parity, trunc)
             for degree, trunc, dims, parity in CHECK_RUNGS]
    while len(specs) < len(CHECK_RUNGS) + CHECK_FAMILY:
        parities, rows = family_system(plan)
        if len(parities) != 2:
            continue
        dims = family_dims(plan, rows)
        specs.append(spec_text(*_relabelled(rng, parities, rows, dims), 3))
    cases = [Case("check", s) for s in specs]
    rng.shuffle(cases)
    return cases


def _admissible_pairs(lc):
    """(delta, lam) pairs whose composite has a guaranteed unique inverse,
    as enumerated by the composite round-trip acceptance criterion."""
    from gradedvb import basic_symbol, component_basis, compose_DLambda, weight

    syms = lc.lift_sequence
    basics = lc.source.system.basic_symbols
    caps = [max(w.coeff(s) for w in lc.source.system.elements) for s in basics]
    deltas = [weight(dict(zip(basics, combo)))
              for combo in itertools.product(*(range(c + 1) for c in caps))]
    out = []
    for r in range(1, len(syms) + 1):
        for lam in itertools.combinations(syms, r):
            comp = compose_DLambda(lc, lam)
            for delta in deltas:
                img = comp.of_weight(delta)
                if not (img.is_nonnegative and img.is_multiplicity_free):
                    continue
                if any(img.coeff(basic_symbol(s.i, (s.parity + 1) % 2)) != 1
                       for s in lam):
                    continue
                if component_basis(lc.source, delta):
                    out.append((delta, lam))
    return out


def _invert_family(plan: random.Random, rng: random.Random) -> list[Case]:
    from gradedvb import (component_basis, compose_DLambda, linearize_chart,
                          monomial_poly)
    from gradedvb.specfile import parse_spec

    cases = []
    while len(cases) < INVERT_CASES:
        parities, rows = family_system(plan)
        spec = spec_text(parities, rows, family_dims(plan, rows), 3)
        lc = linearize_chart(parse_spec(spec).chart())
        pairs = _admissible_pairs(lc)
        for delta, lam in plan.sample(pairs, min(PAIRS_PER_CHART, len(pairs))):
            basis = component_basis(lc.source, delta)
            p = lc.source.zero()
            while p.is_zero:
                for m in basis:
                    p = p + monomial_poly(lc.source, m, rng.randint(-2, 2))
            f = compose_DLambda(lc, lam).apply(p)
            cases.append(Case("invert", spec,
                              ("--lam", ",".join(s.label for s in lam),
                               "--rhs", f.text()), p.text()))
    del cases[INVERT_CASES:]
    rng.shuffle(cases)
    return cases


def _linearize_sweep(plan: random.Random, rng: random.Random) -> list[Case]:
    cases = []
    for _ in range(LINEARIZE_CASES):
        rank = plan.randint(1, 3)
        parities, rows = family_system(plan, max_rank=rank,
                                       max_mult=3 if rank < 3 else 2)
        dims = family_dims(plan, rows)
        trunc = plan.randint(3, 4)
        cases.append(Case("linearize",
                          spec_text(*_relabelled(rng, parities, rows, dims),
                                    trunc),
                          ("--fibers",)))
    rng.shuffle(cases)
    return cases


def _reconstruct_deg2(plan: random.Random, rng: random.Random) -> list[Case]:
    cases = [Case("reconstruct", rank1_spec(2, dims, parity, 3))
             for parity in (0, 1)
             for dims in itertools.product((1, 2, 3), repeat=3)]
    rng.shuffle(cases)
    return cases


_GENERATORS = {
    "check-ladder": _check_ladder,
    "invert-family": _invert_family,
    "linearize-sweep": _linearize_sweep,
    "reconstruct-deg2": _reconstruct_deg2,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The fixed case list of one workload for one seed."""
    index = WORKLOADS.index(workload)
    plan = random.Random(PLAN_SEED * len(WORKLOADS) + index)
    return _GENERATORS[workload](plan, random.Random(seed * len(WORKLOADS) + index))


# ---------------------------------------------------------------------------
# output checks (run outside the timed span)
# ---------------------------------------------------------------------------

class Checker:
    """Decides whether one CLI result is correct.  ``check`` returns None
    for a correct result and a one-line reason otherwise."""

    def check(self, case: Case, code: int, out: str) -> str | None:
        try:
            data = json.loads(out)
        except ValueError:
            return f"exit {code}, output is not JSON"
        if code != 0:
            return f"exit {code}"
        return getattr(self, "_" + case.command)(case, data)

    @staticmethod
    def _check(case, data):
        return None if data.get("all_passed") is True else "not all_passed"

    @staticmethod
    def _reconstruct(case, data):
        if data.get("round_trip_dims_match") is not True:
            return "round trip dims differ"
        if data.get("isomorphism_verified") is not True:
            return "isomorphism not verified"
        return None

    @staticmethod
    def _linearize(case, data):
        derived = data["derived"]["elements"]
        if any(c not in (0, 1) for row in derived for c in row):
            return "derived element negative or not multiplicity-free"
        labels = set(data["derived"]["labels"])
        if any(g["weight"] not in labels for g in data["generators"]):
            return "generator weight outside the derived system"
        return None

    @staticmethod
    def _invert(case, data):
        from gradedvb import compose_DLambda, linearize_chart
        from gradedvb.specfile import parse_polynomial, parse_spec

        lc = linearize_chart(parse_spec(case.spec).chart())
        solution = parse_polynomial(lc.source, data["solution"])
        if solution != parse_polynomial(lc.source, case.source):
            return "solution differs from the seeded source polynomial"
        lam_arg = case.args[case.args.index("--lam") + 1].split(",")
        lam = tuple(next(s for s in lc.lift_sequence if s.label == label)
                    for label in lam_arg)
        rhs = parse_polynomial(lc.quotient, case.args[case.args.index("--rhs") + 1])
        if compose_DLambda(lc, lam).apply(solution) != rhs:
            return "composite of the solution does not reproduce the rhs"
        return None
