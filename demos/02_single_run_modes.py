"""One simulated cascade on the diamond, mode by mode.

Runs a single realization with a shared set of private observations and
prints, for each node, the action taken and the posterior mass on the true
state under three protocols:

  naive     -- fuse every received log-belief with unit weight (data incest)
  removal   -- fuse with the optimal incest-removal weights
  idealized -- benchmark that sees the full action history

On the diamond the evidence of nodes 1 and 2 reaches node 5 along two
routes, so the naive protocol counts it twice; removal matches the
benchmark to machine precision.
"""

import numpy as np

from incestless import TopologySpec, default_model, graph_from_edges
from incestless.simulate import ScenarioConfig, run_once

edges = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5), (1, 5), (2, 5)]
g = graph_from_edges(5, edges)

model = default_model()
cfg = ScenarioConfig(
    model=model,
    topology=TopologySpec(kind="chain41"),  # unused: graph passed explicitly
    true_state=10,
    modes=("naive", "removal", "idealized"),
    runs=1,
    seed=0,
)
trace = run_once(cfg, g, np.random.default_rng(7))
records = trace.records  # mode -> one NodeRecord per node

print(f"true state: {trace.true_state}")
print(f"observations: {trace.observations.tolist()}\n")
print(f"{'node':>4} {'z':>3} | " +
      " | ".join(f"{m:>22}" for m in cfg.modes))
for n in range(g.size):
    cells = []
    for m in cfg.modes:
        r = records[m][n]
        cells.append(f"a={r.action:2d}  p(x=10)={r.after[9]:.6f}")
    print(f"{n + 1:>4} {trace.observations[n]:>3} | " + " | ".join(cells))

r5r = records["removal"][4]
r5i = records["idealized"][4]
r5n = records["naive"][4]
print(f"\nnode 5 |removal - idealized|_max = "
      f"{np.abs(r5r.after - r5i.after).max():.2e}")
print(f"node 5 |naive   - idealized|_max = "
      f"{np.abs(r5n.after - r5i.after).max():.2e}")
