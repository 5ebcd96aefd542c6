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
# row k of trace.actions / trace.after is mode cfg.modes[k], column n-1 node n

print(f"true state: {trace.true_state}")
print(f"observations: {trace.observations.tolist()}\n")
print(f"{'node':>4} {'z':>3} | " +
      " | ".join(f"{m:>22}" for m in cfg.modes))
for n in range(g.size):
    cells = [f"a={trace.actions[k, n]:2d}  p(x=10)={trace.after[k, n, 9]:.6f}"
             for k in range(len(cfg.modes))]
    print(f"{n + 1:>4} {trace.observations[n]:>3} | " + " | ".join(cells))

r5n, r5r, r5i = trace.after[:, 4]  # node 5 in cfg.modes' order
print(f"\nnode 5 |removal - idealized|_max = "
      f"{np.abs(r5r - r5i).max():.2e}")
print(f"node 5 |naive   - idealized|_max = "
      f"{np.abs(r5n - r5i).max():.2e}")
