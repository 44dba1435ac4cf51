"""Time the six-property certificate on the larger charts of the ladder.

Usage (from the root of a checkout):

    python3 scripts/frontier.py --out BENCH_11.json [--large]

Each chart is built through the public API and linearized outside the
timed region; one ``check_all_properties`` call on the linearized chart is
timed.  The charts are the rank-1 charts of degrees 4 to 7 and the rank-2
box ``{0..3}^2``, all with odd basic parity and truncation 3.  The degree-7
chart takes several seconds, which is why Tier-1 does not run it.  With
``--large`` the run also times the rank-2 box ``{0..4}^2`` and the rank-3
box ``{0..3}^3`` (256 and 512 linearized coordinates), which take about a
minute or more together on a 2-vCPU machine.

The script appends one run record to the output file, keeping the records
already there, so runs on two revisions land side by side: the git
revision of this checkout (and whether ``src`` differs from it), the
Python version and machine, and for each chart its linearized coordinate
count, the seconds of the call and the SHA-256 of its report's JSON.  Equal
digests across revisions mean the certificate came out the same.
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


def rank1_chart(dims: list[int]) -> Chart:
    """Degree ``len(dims) - 1``, ``dims[k]`` generators of weight ``k a1``."""
    a1 = basic_symbol(1, 1)
    ws = system_from_rows([1], [[k] for k in range(len(dims))])
    return Chart.from_dims(ws, {weight({a1: k}): d for k, d in enumerate(dims)},
                           TRUNCATION)


def box_chart(n: int, rank: int = 2) -> Chart:
    """One generator at every weight of ``{0..n}^rank``."""
    basis = [basic_symbol(i, 1) for i in range(1, rank + 1)]
    rows = list(itertools.product(range(n + 1), repeat=rank))
    ws = system_from_rows([1] * rank, rows)
    return Chart.from_dims(ws, {weight(dict(zip(basis, row))): 1
                                for row in rows}, TRUNCATION)


CHARTS = [
    ("rank1 deg4 dims 2,2,2,1,1", lambda: rank1_chart([2, 2, 2, 1, 1])),
    ("rank1 deg5 dims 1^6", lambda: rank1_chart([1] * 6)),
    ("rank1 deg6 dims 1^7", lambda: rank1_chart([1] * 7)),
    ("rank1 deg7 dims 1^8", lambda: rank1_chart([1] * 8)),
    ("rank2 box {0..3}^2", lambda: box_chart(3)),
]

LARGE = [
    ("rank2 box {0..4}^2", lambda: box_chart(4)),
    ("rank3 box {0..3}^3", lambda: box_chart(3, 3)),
]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_record(large: bool) -> dict:
    charts = []
    for name, build in CHARTS + (LARGE if large else []):
        lc = linearize_chart(build())
        start = perf_counter()
        report = check_all_properties(lc.chart, lc.operators)
        seconds = perf_counter() - start
        text = json.dumps(report.to_json(), sort_keys=True)
        charts.append({
            "chart": name,
            "linearized_coordinates": len(lc.chart.coordinates),
            "seconds": round(seconds, 3),
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        })
        print(f"{name}: {seconds:.3f} s", file=sys.stderr)
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
                    help="also time the boxes {0..4}^2 and {0..3}^3")
    args = ap.parse_args()
    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    runs.append(run_record(args.large))
    args.out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")


if __name__ == "__main__":
    main()
