"""Time the six-property certificate on the larger charts of the ladder.

Usage (from the root of a checkout):

    python3 scripts/frontier.py --out BENCH_11.json [--large]

Each chart is built through the public API, then linearized; the
linearization (``linearize_chart`` and the first read of its operator
family, which is built on first read) and one ``check_all_properties``
call on the linearized chart are timed apart.  The charts are the rank-1
charts of degrees 4 to 7 and the rank-2 box ``{0..3}^2``, all with odd
basic parity and truncation 3, and the base-dimension rungs: rank-1
degree-5 charts with one generator at each nonzero degree and 1 base
coordinate at truncations 4 to 6, or 3 base coordinates at truncation 4.
The degree-7 chart takes seconds, which is why Tier-1 does not run it.
With ``--large`` the run also times the rank-2 box ``{0..4}^2`` and the
rank-3 box ``{0..3}^3`` (256 and 512 linearized coordinates), the
degree-5 chart with 3 base coordinates at truncations 5 and 6, the box
``{0..4}^2`` at truncation 4 and the rank-1 chart of degree 8; together
they take about half a minute or more on a 2-vCPU machine.

The script appends one run record to the ``runs`` list of the output
file, keeping the records and any other keys already there, so runs on
two revisions land side by side: the git revision of this checkout (and
whether ``src`` differs from it), the Python version and machine, and for
each chart its linearized coordinate count, the seconds of the
linearization and of the call, the number of checks of each of the six
properties, and the SHA-256 of its report's JSON.  Equal digests across
revisions mean the certificate came out the same.  The counts are read
from the report, so the script runs on revisions from before
``certificate_plan`` too; they are the numbers of entries of the plan,
which lists the checks of all six properties.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gradedvb import (  # noqa: E402
    Chart,
    basic_symbol,
    check_all_properties,
    linearize_chart,
    system_from_rows,
    weight,
)

TRUNCATION = 3


def rank1_chart(dims: list[int], truncation: int = TRUNCATION) -> Chart:
    """Degree ``len(dims) - 1``, ``dims[k]`` generators of weight ``k a1``,
    so ``dims[0]`` base coordinates."""
    a1 = basic_symbol(1, 1)
    ws = system_from_rows([1], [[k] for k in range(len(dims))])
    return Chart.from_dims(ws, {weight({a1: k}): d for k, d in enumerate(dims)},
                           truncation)


def box_chart(n: int, rank: int = 2, truncation: int = TRUNCATION) -> Chart:
    """One generator at every weight of ``{0..n}^rank``."""
    basis = [basic_symbol(i, 1) for i in range(1, rank + 1)]
    rows = list(itertools.product(range(n + 1), repeat=rank))
    ws = system_from_rows([1] * rank, rows)
    return Chart.from_dims(ws, {weight(dict(zip(basis, row))): 1
                                for row in rows}, truncation)


CHARTS = [
    ("rank1 deg4 dims 2,2,2,1,1", lambda: rank1_chart([2, 2, 2, 1, 1])),
    ("rank1 deg5 dims 1^6", lambda: rank1_chart([1] * 6)),
    ("rank1 deg6 dims 1^7", lambda: rank1_chart([1] * 7)),
    ("rank1 deg7 dims 1^8", lambda: rank1_chart([1] * 8)),
    ("rank2 box {0..3}^2", lambda: box_chart(3)),
    *((f"rank1 deg5 dims 1^6 trunc {t}",
       lambda t=t: rank1_chart([1] * 6, t)) for t in (4, 5, 6)),
    ("rank1 deg5 dims 3,1^5 trunc 4", lambda: rank1_chart([3] + [1] * 5, 4)),
]

LARGE = [
    ("rank2 box {0..4}^2", lambda: box_chart(4)),
    ("rank3 box {0..3}^3", lambda: box_chart(3, 3)),
    *((f"rank1 deg5 dims 3,1^5 trunc {t}",
       lambda t=t: rank1_chart([3] + [1] * 5, t)) for t in (5, 6)),
    ("rank2 box {0..4}^2 trunc 4", lambda: box_chart(4, 2, 4)),
    ("rank1 deg8 dims 1^9", lambda: rank1_chart([1] * 9)),
]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_record(large: bool) -> dict:
    charts = []
    for name, build in CHARTS + (LARGE if large else []):
        chart = build()
        start = perf_counter()
        lc = linearize_chart(chart)
        ops = lc.operators
        linearize_seconds = perf_counter() - start
        start = perf_counter()
        report = check_all_properties(lc.chart, ops)
        seconds = perf_counter() - start
        data = report.to_json()
        text = json.dumps(data, sort_keys=True)
        charts.append({
            "chart": name,
            "linearized_coordinates": len(lc.chart.coordinates),
            "linearize_seconds": round(linearize_seconds, 4),
            "seconds": round(seconds, 3),
            "checked": [p["checked"] for p in data["properties"]],
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        })
        print(f"{name}: linearize {linearize_seconds:.4f} s, "
              f"check {seconds:.3f} s", file=sys.stderr)
    return {
        "revision": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "large": large,
        "charts": charts,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True,
                    help="JSON file to append the run record to")
    ap.add_argument("--large", action="store_true",
                    help="also time the boxes {0..4}^2 and {0..3}^3, 3 "
                         "base coordinates at truncations 5 and 6, the box "
                         "{0..4}^2 at truncation 4 and degree 8")
    args = ap.parse_args()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", []).append(run_record(args.large))
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
