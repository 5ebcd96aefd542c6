"""Belief arithmetic for social learning.

States, observations and actions are 1-based integers externally
(states 1..X, observations 1..Z, actions 1..A); beliefs are numpy
probability vectors indexed 0..X-1.

In the log domain a node fuses evidence alone: weighted sums of action
log-likelihoods (nu's), to which the log prior is added once, where a
belief is read.  The incest-removal weights never touch the prior, so it
can never be double counted no matter what the weights telescope to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AvailabilityError,
    ConfigError,
    DegenerateEvidenceError,
    EvidenceOverflowError,
    SignedInfinityError,
    ZeroProbabilityActionError,
    is_integer,
    require_integer,
)

LIKELIHOOD_FLOOR = 1e-300
"""Floor under every likelihood before its log (floored_log), so every log-likelihood
is finite.  Not optional: removal subtracts evidence with negative weights, which is
defined only on finite rows."""


def floored_log(p: np.ndarray) -> np.ndarray:
    """log(max(p, LIKELIHOOD_FLOOR)), entry by entry: the one likelihood floor."""
    return np.log(np.maximum(p, LIKELIHOOD_FLOOR))


@dataclass(frozen=True, eq=False)
class StateModel:
    """Prior, observation likelihood and action cost for one scenario.

    prior:        length-X probability vector over states
    likelihood:   X x Z matrix, row i = p(z | x = i)
    cost:         X x A matrix, cost[i, a-1] = C(x=i, a)
    likelihood_t: Z x X, the likelihood's transpose in C order; derived at
                  construction, not a parameter
    log_prior:    log(prior), -inf where the prior is zero; derived at
                  construction, not a parameter
    prior_cdf, likelihood_cdf:
                  the prior's and each likelihood row's cumulative sum divided
                  by its last entry, as Generator.choice(p=...) builds it per
                  call; derived at construction, not parameters
    """

    prior: np.ndarray
    likelihood: np.ndarray
    cost: np.ndarray
    likelihood_t: np.ndarray = field(init=False, repr=False)
    log_prior: np.ndarray = field(init=False, repr=False)
    prior_cdf: np.ndarray = field(init=False, repr=False)
    likelihood_cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        p = np.array(self.prior, dtype=np.float64)
        b = np.array(self.likelihood, dtype=np.float64)
        c = np.array(self.cost, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"prior must be a vector, got shape {p.shape}")
        for name, arr in (("likelihood", b), ("cost", c)):
            if arr.ndim != 2 or arr.shape[0] != p.shape[0]:
                raise ValueError(f"{name} must have one row per state: "
                                 f"shape {arr.shape} for {p.shape[0]} states")
        if b.shape[1] == 0 or c.shape[1] == 0:
            raise ValueError(f"a model needs at least one observation and one action, "
                             f"got {b.shape[1]} and {c.shape[1]}")
        for name, arr in (("prior", p), ("likelihood", b), ("cost", c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
        if (b < 0).any() or not np.allclose(b.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            raise ValueError("likelihood rows must be distributions")
        if (p < 0).any() or not np.isclose(p.sum(), 1.0, rtol=0, atol=1e-12):
            raise ValueError("prior must be a distribution")
        b_t = np.ascontiguousarray(b.T)
        with np.errstate(divide="ignore"):
            log_p = np.log(p)
        p_cdf, b_cdf = p.cumsum(), b.cumsum(axis=1)
        p_cdf, b_cdf = p_cdf / p_cdf[-1], b_cdf / b_cdf[:, -1:]
        for arr in (p, b, c, b_t, log_p, p_cdf, b_cdf):
            arr.flags.writeable = False
        object.__setattr__(self, "prior", p)
        object.__setattr__(self, "likelihood", b)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "likelihood_t", b_t)
        object.__setattr__(self, "log_prior", log_p)
        object.__setattr__(self, "prior_cdf", p_cdf)
        object.__setattr__(self, "likelihood_cdf", b_cdf)

    @property
    def num_states(self) -> int:
        return self.prior.shape[0]

    @property
    def num_obs(self) -> int:
        return self.likelihood.shape[1]

    @property
    def num_actions(self) -> int:
        return self.cost.shape[1]


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


def default_model(states: int | None = None, actions: int | None = None,
                  kernel_width: int | None = None, prior="uniform",
                  likelihood=None, cost=None) -> StateModel:
    """The model section of a scenario file, whose keys are these parameters.

    A uniform prior, a triangular observation kernel of width kernel_width
    and a quadratic action cost, over 20 states, 10 actions and width 3
    unless given; an array given for prior, likelihood or cost replaces its
    default.  A size given beside an array it would have sized must agree
    with it, and kernel_width cannot be given beside likelihood.  Every
    error is a ConfigError naming the key, or "invalid model: ..." for an
    array StateModel refuses.
    """
    for key, value in (("states", states), ("actions", actions), ("kernel_width", kernel_width)):
        if value is not None:
            require_integer(value, f"model.{key}")
    num_states = 20 if states is None else states
    num_actions = 10 if actions is None else actions
    width = 3 if kernel_width is None else kernel_width
    if num_states < 1 or num_actions < 1:
        raise ConfigError("model.states and model.actions must be positive")
    if kernel_width is not None and likelihood is not None:
        raise ConfigError("model.kernel_width cannot be given beside model.likelihood")
    try:
        if isinstance(prior, str) and prior == "uniform":
            prior = np.full(num_states, 1.0 / num_states)
        if likelihood is None:
            likelihood = triangular_likelihood(num_states, width)
        if cost is None:
            cost = quadratic_cost(num_states, num_actions)
        arrays = {name: np.asarray(arr, dtype=np.float64)
                  for name, arr in (("prior", prior), ("likelihood", likelihood), ("cost", cost))}
        for name, arr in arrays.items():
            if states is not None and arr.shape[:1] != (states,):
                raise ConfigError(f"model.states is {states}, but {name} has shape {arr.shape}")
        if actions is not None and arrays["cost"].shape[1:2] != (actions,):
            raise ConfigError(f"model.actions is {actions}, but cost has shape {arrays['cost'].shape}")
        return StateModel(**arrays)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid model: {e}") from None


# ---------------------------------------------------------------------------
# single-node operations

def sample_observation(x: int, model: StateModel, rng: np.random.Generator,
                       size: int | None = None) -> int | np.ndarray:
    """Draw observation z in 1..Z from the likelihood row of true state x.

    With size=N, one call draws N observations (an int array); they are the
    ones N calls with size=None would draw, and leave rng in the same state.
    The draw is Generator.choice(Z, p=likelihood row, size=size)'s, from the
    row's CDF that the model keeps: the same draws and the same rng state.
    """
    if not 1 <= x <= model.num_states:
        raise ValueError(f"state {x} out of range 1..{model.num_states}")
    z = model.likelihood_cdf[x - 1].searchsorted(rng.random(size), side="right") + 1
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


def _cheapest_action(costs: np.ndarray) -> np.ndarray:
    """Action (1..A) of least expected cost along the last axis; ties -> lowest index.

    The one action-choice rule.  Ties are detected with a relative
    tolerance of 1e-9, for two reasons.  A symmetric belief under a
    symmetric cost produces exactly tied expected costs, and the
    constrained and benchmark pipelines reach that belief through different
    summation orders; without the tolerance, float noise of order 1e-16
    would break such ties differently in the two pipelines.  It also
    settles exact ties within one pipeline.  In the binary model (two
    states, two actions, likelihood [[p, 1-p], [1-p, p]]), a node whose
    public belief leans one signal toward state 2 and whose own signal is 1
    holds the uniform private belief, so it is exactly indifferent and its
    computed costs differ by rounding alone; the tolerance gives it action
    1.  With a strict comparison, up to 277 actions in 30 runs on small
    graphs departed from that model's exact integer counts, which
    tests/test_oracle.py checks.
    """
    cmin = costs.min(axis=-1, keepdims=True)
    tol = 1e-9 * np.maximum(1.0, np.abs(cmin))
    return np.argmax(costs <= cmin + tol, axis=-1) + 1


def choose_action(mu: np.ndarray, model: StateModel) -> int:
    """Action (1..A) minimizing expected cost under mu (_cheapest_action's rule)."""
    return int(_cheapest_action(mu @ model.cost))


def action_table(pub: np.ndarray, model: StateModel) -> np.ndarray:
    """Action (1..A) that each observation would induce under the public belief.

    pub is one belief (X,) or beliefs stacked along leading axes, such as
    (M, X) over modes or (M, L, X) over modes and the nodes of a block; the
    result is (Z,) or (M, Z) or (M, L, Z), entry j-1 of a row the action of
    an agent observing j.  Each
    private belief is normalised as in private_belief; an observation
    impossible under pub leaves the public belief itself (the limit of the
    private belief).  Each action is _cheapest_action's, as in
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
    return _cheapest_action((unnorm / total) @ model.cost)


def action_likelihoods(table: np.ndarray, model: StateModel) -> np.ndarray:
    """p(a | x=m) = sum_j 1[table[j-1] == a] * B(m, j) for every action a, given action tables.

    table is one action table (Z,) or tables stacked along leading axes; the
    result is (A, X) or (..., A, X), row a-1 the likelihood of action a,
    added one observation at a time in ascending j.  A row is zero for an
    action no observation induces.  The administrator's likelihood of an
    action is read from here alone: simulate.StudyCache keeps these rows for
    every action table a block step meets, and action_likelihood, the
    one-node form for library callers, reads them too.
    """
    actions = np.arange(1, model.num_actions + 1)[:, None]
    # the masked terms are +0.0 and leave the sum unchanged; the C-ordered
    # transpose keeps j the reduced (outer) axis, summed in ascending order
    picked = (table[..., None, :] == actions)[..., None] * model.likelihood_t
    return np.add.reduce(picked, axis=-2)


def action_likelihood(pub: np.ndarray, a: int, model: StateModel) -> np.ndarray:
    """Per-state log-likelihood of action a, an integer in 1..A, given one
    public belief pub (X,).

    floored_log of row a-1 of action_likelihoods, with the action table of
    pub, so never -inf.  ValueError for a pub that is not one belief or an
    a that is not an integer in 1..A; ZeroProbabilityActionError for an
    action that no observation induces under pub.
    """
    if np.ndim(pub) != 1:
        raise ValueError(f"public belief must be one vector (X,), got shape {np.shape(pub)}")
    if not (is_integer(a) and 1 <= a <= model.num_actions):
        raise ValueError(f"action {a} out of range 1..{model.num_actions}")
    lik = action_likelihoods(action_table(pub, model), model)[a - 1]
    if not lik.any():
        raise ZeroProbabilityActionError(f"action {a} is not selectable under any observation")
    return floored_log(lik)


# ---------------------------------------------------------------------------
# log-domain aggregation

def normalize_log(theta: np.ndarray) -> np.ndarray:
    """exp-normalize unnormalized log-probability vectors along the last axis;
    ValueError if one of them has no finite maximum."""
    m = theta.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("log-belief has no finite entry")
    p = np.exp(theta - m)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def fuse(coeffs: np.ndarray, evidence: np.ndarray, node: int) -> np.ndarray:
    """Row (k, l) is sum_i coeffs[k, l, i] * evidence[k, i], for one block of nodes.

    coeffs is (M, L, K), one row per mode for each of the L nodes node,
    node+1, ... that fuse the same evidence (M, K, X); the result is
    (M, L, X), from one np.einsum.  With X >= 2, einsum keeps x as its
    inner loop and adds coeffs * evidence into each output row in
    ascending i, starting from 0.0: the order of one product and one
    reduction over i (tests/conftest.py keeps that kernel as fuse_by_reduce)
    and of fuse_terms.  Only the sign of an all-zero sum can differ, and
    adding the log prior erases it.  With X = 1 einsum reduces over i in a
    SIMD loop, in another order, so the bits of a sum may differ; a
    one-state belief is [1.0] whatever its evidence, so no output does.
    Entry i belongs to node i+1; run_tables builds coeffs zero on every row
    a node does not receive, so no check is made here.  The evidence is
    finite, as every floored log-likelihood is, so a zero coefficient adds
    +-0.0, which leaves the sum unchanged.  A sum can still leave the
    float64 range (naive evidence counts paths, which pass about 1e305 on
    large dense graphs): a row that is not finite raises
    EvidenceOverflowError naming the lowest such node.  einsum raises no
    floating-point warning, so an overflow or an inf - inf shows only in
    the check of the result.
    """
    total = np.einsum("mlk,mkx->mlx", coeffs, evidence)
    if not np.isfinite(total).all():
        bad = ~np.isfinite(total).all(axis=(0, 2))
        raise EvidenceOverflowError(f"node {node + int(np.argmax(bad))}: "
                                    "fused evidence left the float64 range")
    return total


def fuse_terms(coeffs: np.ndarray, evidence: np.ndarray, received: np.ndarray,
               node: int | str = "?") -> np.ndarray:
    """sum_i coeffs[i] * evidence[i], adding the nonzero terms one at a time in ascending i.

    Entry i belongs to node i+1; received[i] (bool) says whether its evidence
    reaches the fusing node, or AvailabilityError names the node.  Zero
    coefficients are skipped, so a -inf row never turns into NaN, and a
    negative one on -inf evidence raises SignedInfinityError.  The fixed
    order keeps outputs bit for bit stable.
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


def aggregate(received: dict[int, np.ndarray], weights: np.ndarray,
              nu: np.ndarray, node: int | str = "?") -> np.ndarray:
    """Fuse received after-action evidence with weights and add own nu.

    received maps sender node -> its evidence row (X,); weights[i] (0-based
    entry for node i+1) must have its nonzero support covered by received.
    The result is evidence too: the log prior is added once, by the reader.
    """
    w = np.asarray(weights, dtype=np.float64)
    evidence = np.zeros((w.size, np.size(nu)))
    for i, row in received.items():
        if i <= w.size:
            evidence[i - 1] = row
    has = np.isin(np.arange(1, w.size + 1), list(received))
    return fuse_terms(w, evidence, has, node) + nu


def full_history_belief(nus: dict[int, np.ndarray], t_n: np.ndarray,
                        nu: np.ndarray) -> np.ndarray:
    """Idealized benchmark evidence: sum the nu of every node with a path in, plus own.

    nus maps node -> log action-likelihood vector; t_n[i] (0-based entry
    for node i+1) marks path existence.
    """
    evidence = nu.astype(np.float64).copy()
    for i in np.flatnonzero(t_n):
        evidence += nus[int(i) + 1]
    return evidence


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
