"""Detecting and repairing availability-constraint violations.

The incest-removal weights at node n may be nonzero for a node whose
log-belief never physically arrives (no direct edge).  This script shows a
violating network, the per-node report, and two remedies: augmenting the
graph with the missing (always redundant) edges, and searching random
realizations of a topology family for a constraint-clean one.
"""

import numpy as np

from incestless import (
    TopologySpec,
    augment_for_constraint,
    constraint_report,
    generate_topology,
    graph_from_edges,
    topology_rng,
)

# diamond without the direct edge 2 -> 5: node 5 must subtract node 2's
# evidence but never receives its log-belief
edges = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (1, 5)]
g = graph_from_edges(5, edges)
print("violations:", constraint_report(g))

fixed = augment_for_constraint(g)
added = np.argwhere(fixed.adjacency.astype(int) - g.adjacency.astype(int))
print("edges added by augmentation:", [(int(i) + 1, int(j) + 1) for i, j in added])
print("violations after augmentation:", constraint_report(fixed))
print("closure unchanged by augmentation:",
      (fixed.closure == g.closure).all())

# random topology families: search seeds for a realization that is clean
spec = TopologySpec(kind="random4", agents=5, epochs=4)
for seed in range(100):
    clean = generate_topology(spec, topology_rng(seed))
    if not constraint_report(clean):
        break
else:
    raise SystemExit("no clean random4 5x4 seed in 0..99")
print(f"\nfirst clean random4 5x4 seed in 0..99: {seed}")
print("violations at that seed:", constraint_report(clean))
