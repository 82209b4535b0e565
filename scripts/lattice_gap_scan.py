#!/usr/bin/env python3
"""Scan the bound gap on the four lattice families and fit the leading trend.

Reproduces the gap-scaling picture: the hexagonal family stays at zero while
the triangular, kagome and hexa-triangular patches grow linearly in N.

    python scripts/lattice_gap_scan.py --max-n 36
"""

from __future__ import annotations

import argparse

import numpy as np

from graphent.lattices import KINDS, gap_scan, lattice_vertex_count


def sizes_within(kind: str, max_n: int) -> list[int]:
    out = []
    size = 1
    while True:
        n = lattice_vertex_count(kind, size)
        if n > max_n:
            break
        out.append(size)
        size += 1
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=36, help="largest vertex count to solve")
    args = parser.parse_args()

    print("kind,size,n,matching,vertex_cover,gap_exact,gap_formula")
    trends = {}
    for kind in KINDS:
        points = []
        for row in gap_scan(kind, sizes_within(kind, args.max_n), exact=True):
            formula = "" if row.gap_formula is None else f"{row.gap_formula:.4f}"
            print(f"{row.kind},{row.size},{row.n},{row.matching},{row.vertex_cover},{row.gap_exact},{formula}")
            points.append((row.n, row.gap_exact))
        if len(points) >= 2:
            ns, gaps = zip(*points)
            slope = np.polyfit(ns, gaps, 1)[0]
            trends[kind] = slope
    print()
    for kind, slope in trends.items():
        print(f"# {kind}: leading gap slope {slope:+.4f} per vertex")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
