"""Belief arithmetic for social learning.

States, observations and actions are 1-based integers externally
(states 1..X, observations 1..Z, actions 1..A); beliefs are numpy
probability vectors indexed 0..X-1.

Log-domain beliefs keep the prior and the accumulated action evidence as
two separate vectors.  The incest-removal weights apply only to the
evidence part; the prior part is always exactly log(prior), so it can
never be double counted no matter what the weights telescope to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AvailabilityError,
    DegenerateEvidenceError,
    SignedInfinityError,
    ZeroProbabilityActionError,
)

LIKELIHOOD_FLOOR = 1e-300


@dataclass(frozen=True)
class StateModel:
    """Prior, observation likelihood and action cost for one scenario.

    prior:        length-X probability vector over states
    likelihood:   X x Z matrix, row i = p(z | x = i)
    cost:         X x A matrix, cost[i, a-1] = C(x=i, a)
    likelihood_t: Z x X, the likelihood's transpose in C order; derived at
                  construction, not a parameter
    """

    prior: np.ndarray
    likelihood: np.ndarray
    cost: np.ndarray
    likelihood_t: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        p = np.array(self.prior, dtype=np.float64)
        b = np.array(self.likelihood, dtype=np.float64)
        c = np.array(self.cost, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != p.shape[0]:
            raise ValueError("likelihood must have one row per state")
        if c.ndim != 2 or c.shape[0] != p.shape[0]:
            raise ValueError("cost must have one row per state")
        if (b < 0).any() or not np.allclose(b.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("likelihood rows must be distributions")
        if (p < 0).any() or not np.isclose(p.sum(), 1.0, atol=1e-12):
            raise ValueError("prior must be a distribution")
        b_t = np.ascontiguousarray(b.T)
        for arr in (p, b, c, b_t):
            arr.flags.writeable = False
        object.__setattr__(self, "prior", p)
        object.__setattr__(self, "likelihood", b)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "likelihood_t", b_t)

    @property
    def num_states(self) -> int:
        return self.prior.shape[0]

    @property
    def num_obs(self) -> int:
        return self.likelihood.shape[1]

    @property
    def num_actions(self) -> int:
        return self.cost.shape[1]

    @property
    def log_prior(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.prior)


def triangular_likelihood(num_states: int, width: int = 3) -> np.ndarray:
    """Row-normalized triangular kernel B(m, j) ~ max(0, width - |m - j|), Z = X.

    A width below 1 leaves every row zero, so it raises ValueError.
    """
    if width < 1:
        raise ValueError(f"kernel width must be at least 1, got {width}")
    idx = np.arange(num_states)
    b = np.maximum(0.0, width - np.abs(idx[:, None] - idx[None, :]))
    return b / b.sum(axis=1, keepdims=True)


def quadratic_cost(num_states: int, num_actions: int) -> np.ndarray:
    """C(x, a) = (x - g(a))^2 with actions spread evenly over the state range.

    g(a) = a*X/A - (X/A - 1)/2 places the A action targets uniformly over
    1..X (for X=20, A=10: g(a) = 2a - 0.5).
    """
    ratio = num_states / num_actions
    targets = np.arange(1, num_actions + 1) * ratio - (ratio - 1) / 2
    states = np.arange(1, num_states + 1, dtype=np.float64)
    return (states[:, None] - targets[None, :]) ** 2


def default_model(num_states: int = 20, num_actions: int = 10,
                  kernel_width: int = 3) -> StateModel:
    """Uniform prior, triangular observation kernel, quadratic action cost."""
    return StateModel(
        prior=np.full(num_states, 1.0 / num_states),
        likelihood=triangular_likelihood(num_states, kernel_width),
        cost=quadratic_cost(num_states, num_actions),
    )


# ---------------------------------------------------------------------------
# single-node operations

def sample_observation(x: int, model: StateModel, rng: np.random.Generator,
                       size: int | None = None) -> int | np.ndarray:
    """Draw observation z in 1..Z from the likelihood row of true state x.

    With size=N, one call draws N observations (an int array); they are the
    ones N calls with size=None would draw, and leave rng in the same state.
    """
    if not 1 <= x <= model.num_states:
        raise ValueError(f"state {x} out of range 1..{model.num_states}")
    z = rng.choice(model.num_obs, p=model.likelihood[x - 1], size=size) + 1
    return int(z) if size is None else z


def private_belief(pub: np.ndarray, z: int, model: StateModel) -> np.ndarray:
    """Bayes update of the public belief with observation z."""
    if not 1 <= z <= model.num_obs:
        raise ValueError(f"observation {z} out of range 1..{model.num_obs}")
    unnorm = pub * model.likelihood[:, z - 1]
    total = unnorm.sum()
    if total == 0:
        raise DegenerateEvidenceError(
            f"observation {z} has zero probability under the public belief support"
        )
    return unnorm / total


def choose_action(mu: np.ndarray, model: StateModel) -> int:
    """Action (1..A) minimizing expected cost under mu; ties -> lowest index.

    Ties are detected with a small relative tolerance: a symmetric belief
    under a symmetric cost produces exactly tied expected costs, and the
    constrained and benchmark pipelines reach that belief through different
    summation orders.  Without the tolerance, float noise of order 1e-16
    would break such ties differently in the two pipelines.
    """
    costs = mu @ model.cost
    cmin = costs.min()
    tol = 1e-9 * max(1.0, abs(cmin))
    return int(np.argmax(costs <= cmin + tol)) + 1


def action_table(pub: np.ndarray, model: StateModel) -> np.ndarray:
    """Action (1..A) that each observation would induce under the public belief.

    pub is one belief (X,) or beliefs stacked along leading axes, such as
    (M, X) over modes or (M, L, X) over modes and the nodes of a block; the
    result is (Z,) or (M, Z) or (M, L, Z), entry j-1 of a row the action of
    an agent observing j.  Each
    private belief is normalised as in private_belief; an observation
    impossible under pub leaves the public belief itself (the limit of the
    private belief).  The argmin and its tie rule are those of
    choose_action, row by row.  The agent's action and the administrator's
    likelihood of it are both read from this table.
    """
    # the transposed view, not likelihood_t: the layout fixes the order in
    # which total sums over states
    unnorm = pub[..., None, :] * model.likelihood.T
    total = unnorm.sum(axis=-1, keepdims=True)
    impossible = total == 0
    if impossible.any():
        unnorm = np.where(impossible, pub[..., None, :], unnorm)
        total = np.where(impossible, 1.0, total)
    costs = (unnorm / total) @ model.cost
    cmin = costs.min(axis=-1, keepdims=True)
    tol = 1e-9 * np.maximum(1.0, np.abs(cmin))
    return np.argmax(costs <= cmin + tol, axis=-1) + 1


def action_likelihood(pub: np.ndarray, a: int | np.ndarray, model: StateModel,
                      floor_zero_likelihood: bool = True,
                      table: np.ndarray | None = None) -> np.ndarray:
    """Per-state log-likelihood of action a given the public belief.

    p(a | x=m, pub) = sum_j 1[table[j-1] == a] * B(m, j), with the action
    table of pub (computed here unless the caller already has it), added
    one observation at a time in ascending j.  pub may be one belief (X,)
    with one action, or beliefs stacked along leading axes, (M, X) or
    (M, L, X), with one action per belief, (M,) or (M, L); the table and the
    result follow, (..., Z) and (..., X).
    """
    a = np.asarray(a)
    if not ((1 <= a) & (a <= model.num_actions)).all():
        bad = int(a.flat[np.argmax((a < 1) | (a > model.num_actions))])
        raise ValueError(f"action {bad} out of range 1..{model.num_actions}")
    if table is None:
        table = action_table(pub, model)
    # the masked terms are +0.0 and leave the sum unchanged; the C-ordered
    # transpose keeps j the reduced (outer) axis, summed in ascending order
    picked = (table == a[..., None])[..., None] * model.likelihood_t
    lik = np.add.reduce(picked, axis=-2)
    selectable = lik.any(axis=-1)
    if not selectable.all():
        bad = int(a.flat[np.argmin(selectable)])
        raise ZeroProbabilityActionError(
            f"action {bad} is not selectable under any observation"
        )
    if floor_zero_likelihood:
        return np.log(np.maximum(lik, LIKELIHOOD_FLOOR))
    with np.errstate(divide="ignore"):
        return np.log(lik)


# ---------------------------------------------------------------------------
# log-domain aggregation

@dataclass(frozen=True)
class LogBelief:
    """After-action public belief in log domain, prior and evidence split.

    log_prior + evidence is the unnormalized log posterior.  evidence is a
    weighted sum of action log-likelihood vectors (nu's).
    """

    log_prior: np.ndarray
    evidence: np.ndarray

    def log_posterior(self) -> np.ndarray:
        return self.log_prior + self.evidence

    def belief(self) -> np.ndarray:
        return normalize_log(self.log_posterior())


def checked_max(theta: np.ndarray) -> np.ndarray:
    """Maxima of unnormalized log-probability vectors along the last axis
    (kept as a length-1 axis); ValueError unless every one is finite."""
    m = theta.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("log-belief has no finite entry")
    return m


def normalize_log(theta: np.ndarray) -> np.ndarray:
    """exp-normalize unnormalized log-probability vectors along the last axis."""
    m = checked_max(theta)
    p = np.exp(theta - m)
    return p / p.sum(axis=-1, keepdims=True)


def fuse(coeffs: np.ndarray, evidence: np.ndarray, node: int) -> np.ndarray:
    """Row (k, l) is sum_i coeffs[k, l, i] * evidence[k, i], for one block of nodes.

    coeffs is (M, L, K), one row per mode for each of the L nodes node,
    node+1, ... that fuse the same evidence (M, K, X); the result is
    (M, L, X), from one product and one reduction over i, which adds the
    terms in ascending i.  Entry i belongs to node i+1, and the caller has
    checked that every nonzero coefficient's evidence reaches its node.  A
    zero coefficient adds +-0.0, which leaves the sum unchanged, except on
    -inf evidence, where 0 * -inf is NaN.  A row that is not < inf is
    recomputed by fuse_terms, which skips zero terms and raises the
    SignedInfinityError the row calls for.  Rows are recomputed node by
    node, and modes in order within a node, so the error is the one the
    lowest failing node raises.
    """
    with np.errstate(invalid="ignore"):
        total = np.add.reduce(coeffs[..., None] * evidence[:, None], axis=2)
    if not total.max() < np.inf:
        redo = ~(total < np.inf).all(axis=-1)
        for l, k in np.argwhere(redo.T).tolist():
            total[k, l] = fuse_terms(coeffs[k, l], evidence[k], coeffs[k, l] != 0, node + l)
    return total


def require_received(coeffs: np.ndarray, received: np.ndarray, node: int) -> None:
    """Raise AvailabilityError unless every nonzero coefficient's evidence reaches its node.

    coeffs and received are (M, L, K) blocks as fuse takes them, for nodes
    node, node+1, ...; entry i belongs to node i+1.  The error names the
    lowest node that misses a row, the first mode in which it does, and that
    mode's missing senders, as fusing node by node would.
    """
    missing = (coeffs != 0) & ~received
    if missing.any():
        l, k = np.argwhere(missing.any(axis=2).T)[0]
        raise AvailabilityError(node=node + int(l),
                                missing=(np.flatnonzero(missing[k, l]) + 1).tolist())


def fuse_terms(coeffs: np.ndarray, evidence: np.ndarray, received: np.ndarray,
               node: int | str = "?") -> np.ndarray:
    """sum_i coeffs[i] * evidence[i], adding the nonzero terms one at a time in ascending i.

    Entry i belongs to node i+1; received[i] (bool) says whether its evidence
    reaches the fusing node.  Zero coefficients are skipped, so a -inf row
    never turns into NaN.  The fixed order keeps outputs bit for bit stable.
    """
    terms = np.flatnonzero(coeffs)
    missing = terms[~received[terms]]
    if missing.size:
        raise AvailabilityError(node=node, missing=(missing + 1).tolist())
    c, rows = coeffs[terms], evidence[terms]
    negative = c < 0
    if negative.any() and np.isneginf(rows[negative]).any():
        i = int(np.argmax(negative & np.isneginf(rows).any(axis=1)))
        raise SignedInfinityError(
            f"negative weight {c[i]} applied to -inf evidence from node {terms[i] + 1}"
        )
    return np.add.reduce(c[:, None] * rows, axis=0)


def aggregate(received: dict[int, LogBelief], weights: np.ndarray,
              nu: np.ndarray, log_prior: np.ndarray,
              node: int | str = "?") -> LogBelief:
    """Fuse received after-action log-beliefs with weights and add own nu.

    received maps sender node -> LogBelief; weights[i] (0-based entry for
    node i+1) must have its nonzero support covered by received.  Only the
    evidence parts are weighted; the prior part of the result is exactly
    log_prior again, which is what makes the prior appear exactly once in
    the fused posterior.
    """
    w = np.asarray(weights, dtype=np.float64)
    evidence = np.zeros((w.size, np.size(nu)))
    for i, belief in received.items():
        if i <= w.size:
            evidence[i - 1] = belief.evidence
    has = np.isin(np.arange(1, w.size + 1), list(received))
    return LogBelief(log_prior=log_prior,
                     evidence=fuse_terms(w, evidence, has, node) + nu)


def full_history_belief(nus: dict[int, np.ndarray], t_n: np.ndarray,
                        nu: np.ndarray, log_prior: np.ndarray) -> LogBelief:
    """Idealized benchmark: sum the nu of every node with a path in, plus own.

    nus maps node -> log action-likelihood vector; t_n[i] (0-based entry
    for node i+1) marks path existence.
    """
    evidence = nu.astype(np.float64).copy()
    for i in np.flatnonzero(t_n):
        evidence += nus[int(i) + 1]
    return LogBelief(log_prior=log_prior, evidence=evidence)


def estimate_state(belief: np.ndarray, rule: str = "mean") -> float | np.ndarray:
    """Scalar state estimate from a belief; states carry labels 1..X.

    belief may also be beliefs stacked along leading axes (..., X); the
    result then has their shape, each entry the estimate of one belief.
    """
    if rule == "map":
        est = np.argmax(belief, axis=-1) + 1.0
    elif rule == "mean":
        labels = np.arange(1.0, belief.shape[-1] + 1)
        # a stack of (1, X) @ (X, 1) products sums each belief as b @ labels
        # does; a stack of matrix-vector products sums in another order
        est = (belief[..., None, :] @ labels[:, None])[..., 0, 0]
    else:
        raise ValueError(f"unknown estimate rule {rule!r}")
    return float(est) if belief.ndim == 1 else est
