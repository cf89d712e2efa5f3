#!/usr/bin/env python3
"""Sweep randomized mapping-cone long exact sequences and verify exactness
at every interior node.  Each sequence, as built and with one entry of one
map changed, must also get from `verify_exactness` the per-node report
that `exact_at` gives node by node.  Usage: random_exactness_sweep.py
[count] [seed]."""

import random
import sys
import time

from rfhomology.chaincplx import LongExactSequence, cone_les, exact_at, verify_exactness
from rfhomology.exactlin import IntMatrix
from rfhomology.selftest import random_complex_and_map


def node_by_node(les):
    """The report of `verify_exactness`, built by `exact_at` at each node."""
    return tuple((les.nodes[i].label,
                  exact_at(les.maps[i - 1], les.nodes[i].data,
                           les.maps[i], les.nodes[i + 1].data))
                 for i in range(1, len(les.nodes) - 1))


def with_one_entry_changed(les, rng):
    """The sequence with one entry of one nonempty map changed, or None."""
    spots = [j for j, M in enumerate(les.maps) if M.rows and M.cols]
    if not spots:
        return None
    j = rng.choice(spots)
    rows = les.maps[j].to_lists()
    rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += rng.choice([-2, -1, 1, 3])
    maps = list(les.maps)
    maps[j] = IntMatrix.from_rows(rows)
    return LongExactSequence(les.nodes, tuple(maps))


def main(argv) -> int:
    count = int(argv[1]) if len(argv) > 1 else 200
    seed = int(argv[2]) if len(argv) > 2 else 0
    rng = random.Random(seed)
    changes = random.Random(f"changed entries {seed}")   # keeps rng's cones
    t0 = time.time()
    changed = inexact = 0
    for i in range(count):
        _, phi = random_complex_and_map(rng)
        les = cone_les(phi)
        report = verify_exactness(les)
        if not report.ok:
            print(f"FAIL at sample {i}: {report.failures()}")
            return 1
        if report.nodes != node_by_node(les):
            print(f"FAIL at sample {i}: verify_exactness and exact_at disagree")
            return 1
        bad = with_one_entry_changed(les, changes)
        if bad is not None:
            changed += 1
            report = verify_exactness(bad)
            inexact += not report.ok
            if report.nodes != node_by_node(bad):
                print(f"FAIL at sample {i} with one map entry changed: "
                      f"verify_exactness and exact_at disagree")
                return 1
    print(f"{count} randomized cone sequences exact at every interior node; "
          f"{changed} of them with one map entry changed ({inexact} no longer exact); "
          f"verify_exactness agrees with exact_at at every node "
          f"({time.time() - t0:.2f}s, seed {seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
