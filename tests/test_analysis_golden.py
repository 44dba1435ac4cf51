"""Byte-exact pins of the analysis outputs that no CLI golden shows.

The CLI prints certificates of unmutated charts and only the dimensions of
a reconstruction.  This file pins what the linear algebra chooses: the
failing witnesses of mutated operator families, the off-kernel cocycle
witness, the kernel bases of the decomposition check, and the generators
of the degree-2 rebuild.  Regenerate the golden with
``PYTHONPATH=src:tests python tests/test_analysis_golden.py`` only when an
output is meant to change.
"""

import itertools
import json
import os

from gradedvb import (
    additional_symbol,
    check_all_properties,
    check_decomposition,
    counterexample_off_kernel,
    linearize_chart,
    reconstruct_degree2,
)
from conftest import rank1_chart

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "analysis_paths.json")

MUTATED = [(3, [1, 1, 1, 1]), (4, [1, 1, 1, 1, 1]), (4, [1, 2, 1, 1, 1]),
           (4, [2, 1, 2, 1, 1])]
OFF_KERNEL = [[1, 2, 1, 1, 1], [2, 2, 2, 1, 1], [1, 2, 2, 1, 1]]


def mutation_reports():
    """The report of every family with one generator image zeroed."""
    out = []
    for n, dims in MUTATED:
        lc = linearize_chart(rank1_chart(n, dims))
        for sym in sorted(lc.operators, key=lambda s: s.sort_key):
            for c in lc.operators[sym].images:
                ops = dict(lc.operators)
                ops[sym] = ops[sym].with_zeroed(c)
                out.append({
                    "chart": f"rank1_chart({n}, {dims})",
                    "operator": sym.label,
                    "zeroed": c.name,
                    "report": check_all_properties(lc.chart, ops).to_json(),
                })
    return out


def cocycle_and_decomposition():
    out = []
    for dims in OFF_KERNEL:
        lc = linearize_chart(rank1_chart(4, dims))
        wit = counterexample_off_kernel(
            lc.chart, lc.operators,
            tuple(additional_symbol(j, 1, 1) for j in (2, 3, 4)))
        decompositions = []
        for delta in lc.chart.system.sorted_elements():
            if delta.is_zero:
                continue
            res = check_decomposition(lc.chart, lc.operators, delta)
            decompositions.append({
                "delta": delta.label,
                "passes": res.passes,
                "intersection_dim": res.intersection_dim,
                "kernel_polys": [p.text() for p in res.kernel_polys],
            })
        out.append({
            "chart": f"rank1_chart(4, {dims})",
            "f": wit.f.text(),
            "lhs": wit.lhs.text(),
            "rhs_composite": wit.rhs_composite.text(),
            "sides_differ": wit.sides_differ,
            "decompositions": decompositions,
        })
    return out


def reconstructions():
    """Every rank-1 degree-2 chart with 1 to 3 coordinates per weight."""
    out = []
    for parity in (0, 1):
        b21 = additional_symbol(2, 1, parity)
        for dims in itertools.product((1, 2, 3), repeat=3):
            lc = linearize_chart(rank1_chart(2, list(dims), parity))
            res = reconstruct_degree2(lc.chart, lc.operators[b21])
            out.append({
                "dims": list(dims),
                "parity": parity,
                "kernel_dim": res.kernel_dim,
                "verified": res.verified,
                "new_generator_images": [
                    p.text() for p in res.new_generator_images],
            })
    return out


def pinned_text():
    return json.dumps({
        "mutations": mutation_reports(),
        "off_kernel": cocycle_and_decomposition(),
        "reconstruct_degree2": reconstructions(),
    }, indent=1) + "\n"


def test_analysis_paths_match_golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        want = fh.read()
    got = pinned_text()
    assert got == want


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(pinned_text())
