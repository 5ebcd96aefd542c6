"""Closure, incest-removal weights and the availability constraint.

Walks through the 5-node diamond network: two sources feed two relays,
everything feeds node 5. Because the actions of nodes 1 and 2 reach node 5
twice (directly and through the relays), their evidence must be subtracted
once, which is exactly what the weight vector [-1, -1, 1, 1] encodes.
"""

import numpy as np

from incestless import (
    compute_weights,
    constraint_report,
    graph_from_edges,
)

edges = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (1, 5), (2, 5)]
g = graph_from_edges(5, edges)

print("adjacency:")
print(g.adjacency)
print("\ntransitive closure (reachability, unit diagonal):")
print(g.closure)

for n in range(2, 6):
    w = compute_weights(g, n)
    t_n, b_n = g.closure[: n - 1, n - 1], g.adjacency[: n - 1, n - 1]
    print(f"\nnode {n}: t={t_n.tolist()} b={b_n.tolist()} w={w.tolist()}")

print("\nThe weights solve w_n @ T'_{n-1} = t_n exactly:")
w5 = compute_weights(g, 5)
print("T_4 @ w5 =", g.closure[:4, :4] @ w5, "== t_5 =", g.closure[:4, 4])

print("\nDrop the edge 2 -> 5 and the subtraction of node 2's evidence")
print("needs a log-belief that never arrives:")
g_bad = graph_from_edges(5, [e for e in edges if e != (2, 5)])
w5b = compute_weights(g_bad, 5)
b5b = g_bad.adjacency[:4, 4]
print("w =", w5b.tolist(), " b =", b5b.tolist(),
      " violations at indices:", constraint_report(g_bad).get(5, []))
