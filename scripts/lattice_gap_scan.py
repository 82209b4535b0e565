#!/usr/bin/env python3
"""Scan the bound gap on the four lattice families and fit the leading trend.

Reproduces the gap-scaling picture: the hexagonal family stays at zero while
the triangular, kagome and hexa-triangular patches grow linearly in N.  Every
patch within the 64-vertex cap is solved exactly (31 patches in all).

    python scripts/lattice_gap_scan.py
"""

from __future__ import annotations

import argparse

import numpy as np

from graphent import MAX_VERTICES
from graphent.lattices import KINDS, gap_scan, lattice_vertex_count


def exact_sizes(kind: str) -> list[int]:
    out = []
    size = 1
    while lattice_vertex_count(kind, size) <= MAX_VERTICES:
        out.append(size)
        size += 1
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    print("kind,size,n,matching,vertex_cover,gap_exact,gap_formula")
    trends = {}
    for kind in KINDS:
        points = []
        for row in gap_scan(kind, exact_sizes(kind), exact=True):
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
