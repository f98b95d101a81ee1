#!/usr/bin/env python3
"""Recompute the references the benchmark's Monte Carlo oracles use.

    python3 perfbench/reference.py references
        Check ``workloads.IMPARTIAL_3_9`` and print the entries of
        ``workloads.REFERENCES``.
    python3 perfbench/reference.py pin --seeds 0-19
        Rewrite ``perfbench/pinned.json``: the p_hat every Monte Carlo op
        gives at each of those workload seeds, run with one worker.  The
        benchmark requires bit-identical p_hat at a pinned seed while the
        package's STREAM_VERSION equals the one recorded in the file.

Run from the root of a source checkout.  ``pin`` takes about five seconds
per seed on a 2-CPU machine; ``references`` about two minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# Seed of the high-sample reference run, apart from every derived op seed.
REFERENCE_SEED = 20220326
REFERENCE_SAMPLES = 1 << 23


def impartial_three_voter_probability(n: int, one=1.0):
    """P(Condorcet winner) for three voters under the impartial culture.

    Alternative x wins iff the sets A_1, A_2, A_3 of alternatives each voter
    ranks above x are pairwise disjoint.  Given x's ranks r_i, the A_i are
    independent uniform r_i-subsets of the other m = n - 1 alternatives, so

        P = n^-2 * sum_{r1, r2, r3} C(m-r1, r2)/C(m, r2) * C(m-r1-r2, r3)/C(m, r3).

    The inner sum over r3 depends on r1 + r2 only.  Every term is
    non-negative; with ``one=Fraction(1)`` the value is exact.
    """
    m = n - 1
    # ratio[a][r] = C(a, r) / C(m, r) for 0 <= r <= a
    ratio = []
    for a in range(m + 1):
        row = [one]
        for r in range(a):
            row.append(row[-1] * (a - r) / (m - r))
        ratio.append(row)
    tail = [sum(ratio[m - s]) for s in range(m + 1)]
    total = one * 0
    for r1 in range(m + 1):
        row = ratio[m - r1]
        for r2 in range(m - r1 + 1):
            total += row[r2] * tail[r1 + r2]
    return total / (n * n)


def impartial_three_alternative_probability(voters: int) -> Fraction:
    """P(Condorcet winner) for three alternatives under the impartial culture.

    With an odd number of voters there is a winner unless the pairwise
    majorities cycle.  The distribution of the margins (a-b, b-c, c-a) is
    built voter by voter over the six rankings, and both cycles, all three
    margins positive or all negative, are subtracted.
    """
    steps = []
    for order in permutations("abc"):
        rank = {x: i for i, x in enumerate(order)}
        steps.append(tuple(1 if rank[x] < rank[y] else -1 for x, y in ("ab", "bc", "ca")))
    margins = {(0, 0, 0): 1}
    for _ in range(voters):
        nxt: dict = {}
        for (x, y, z), count in margins.items():
            for dx, dy, dz in steps:
                key = (x + dx, y + dy, z + dz)
                nxt[key] = nxt.get(key, 0) + count
        margins = nxt
    cycles = sum(
        count for (x, y, z), count in margins.items()
        if (x > 0 and y > 0 and z > 0) or (x < 0 and y < 0 and z < 0)
    )
    return 1 - Fraction(cycles, 6 ** voters)


def _cli_results(argv) -> dict:
    from condorcet import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv) + ["--format", "json"])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())["results"]


def references() -> None:
    for n, exact in ((3, Fraction(17, 18)), (4, Fraction(8, 9)), (5, Fraction(21, 25))):
        if impartial_three_voter_probability(n, Fraction(1)) != exact:
            raise AssertionError(f"three-voter formula misses {exact} at n={n}")
    if impartial_three_alternative_probability(17) != Fraction(workloads.IMPARTIAL_3_9):
        raise AssertionError("workloads.IMPARTIAL_3_9 misses the margin recursion")
    for n in (800, 200):
        print(f'("impartial", {n}, 2): ({impartial_three_voter_probability(n)!r}, 0.0),')
    from condorcet.exact import min_condorcet_probability

    print(f'("cyclic", 10, 2): ({float(min_condorcet_probability(10, 2))!r}, 0.0),')
    results = _cli_results([
        "simulate", "--culture", "impartial", "--n", "50", "--k", "5",
        "--samples", str(REFERENCE_SAMPLES), "--seed", str(REFERENCE_SEED), "--workers", "2",
    ])
    print(f'("impartial", 50, 5): ({results["p_hat"]!r}, {results["std_error"]!r}),')


def pin(seeds) -> None:
    from condorcet import STREAM_VERSION

    table: dict = {}
    for seed in seeds:
        for workload in ("mc_large_n", "mc_small_n"):
            for op in workloads.build_ops(workload, seed):
                if op.check != "mc" or op.same_as:
                    continue
                argv = list(op.argv)
                argv[argv.index("--workers") + 1] = "1"
                table.setdefault(op.pin, {})[str(seed)] = _cli_results(argv)["p_hat"]
        print(f"pinned seed {seed}", file=sys.stderr)
    with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"stream_version": STREAM_VERSION, "p_hat": table}, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("references")
    pinner = sub.add_parser("pin")
    pinner.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    if args.command == "references":
        references()
    else:
        lo, _, hi = args.seeds.partition("-")
        pin(range(int(lo), int(hi or lo) + 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
