import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incestless import (
    AvailabilityError,
    ConfigError,
    DegenerateEvidenceError,
    SignedInfinityError,
    StateModel,
    ZeroProbabilityActionError,
    action_likelihood,
    action_table,
    aggregate,
    choose_action,
    default_model,
    estimate_state,
    full_history_belief,
    normalize_log,
    private_belief,
    quadratic_cost,
    sample_observation,
    triangular_likelihood,
)
from incestless import augment_for_constraint, cli, simulate
from incestless.graph import TopologySpec
from incestless.learning import action_likelihoods, floored_log, fuse, fuse_terms

from conftest import after_action_update, fuse_by_reduce, run_python


ALL_MODES = ("naive", "removal", "idealized", "obs_oracle")
BUNDLED = ("paper_chain41", "paper_complete", "paper_star", "paper_random4")


def identity_model(num_states):
    """Noiseless channel: observation equals state, one action per state."""
    return StateModel(
        prior=np.full(num_states, 1.0 / num_states),
        likelihood=np.eye(num_states),
        cost=1.0 - np.eye(num_states),
    )


def small_random_model(rng, num_states=None, num_obs=None, num_actions=None):
    x = num_states or int(rng.integers(2, 7))
    z = num_obs or int(rng.integers(2, 7))
    a = num_actions or int(rng.integers(2, 6))
    return StateModel(
        prior=rng.dirichlet(np.ones(x)),
        likelihood=rng.dirichlet(np.ones(z), size=x),
        cost=rng.random((x, a)),
    )


def random_belief(rng, num_states):
    return rng.dirichlet(np.ones(num_states))


class TestModelConstruction:
    def test_triangular_rows_normalized(self):
        b = triangular_likelihood(20, 3)
        assert b.shape == (20, 20)
        assert np.allclose(b.sum(axis=1), 1.0, atol=1e-12)
        assert (b >= 0).all()

    def test_quadratic_cost_targets(self):
        c = quadratic_cost(20, 10)
        # g(a) = 2a - 0.5: state 10 is closest to the target of action 5
        assert np.argmin(c[9]) + 1 == 5

    def test_invalid_likelihood_rejected(self):
        with pytest.raises(ValueError):
            StateModel(prior=[0.5, 0.5], likelihood=[[0.9, 0.2], [0.5, 0.5]],
                       cost=[[0, 1], [1, 0]])

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            StateModel(prior=[0.7, 0.7], likelihood=np.eye(2), cost=np.eye(2))

    @pytest.mark.parametrize("key", ["prior", "likelihood"])
    def test_sums_are_checked_to_1e12_absolute(self, key):
        # numpy's default rtol=1e-5 alone would accept a sum of 1 + 1e-6
        def model(excess):
            arrays = {"prior": np.full(2, 0.5), "likelihood": np.eye(2)}
            arrays[key].flat[0] += excess  # the prior, or row 1 of the likelihood
            return default_model(states=2, actions=2, **arrays)

        with pytest.raises(ConfigError, match=f"invalid model: {key}"):
            model(1e-6)
        assert model(1e-13).num_states == 2

    def test_caller_arrays_stay_writeable(self):
        prior, lik, cost = np.full(3, 1 / 3), np.eye(3), 1.0 - np.eye(3)
        m = StateModel(prior, lik, cost)
        for arr in (m.prior, m.likelihood, m.cost, m.likelihood_t, m.log_prior):
            assert not arr.flags.writeable
        lik[0, 0] = 0.5
        prior[0] = cost[0, 1] = 0.0
        assert m.likelihood[0, 0] == 1.0 and m.prior[0] == 1 / 3 and m.cost[0, 1] == 1.0

    def test_log_prior_is_derived_once(self):
        # a zero prior entry gives -inf, with no divide-by-zero warning
        m = StateModel(prior=[0.5, 0.0, 0.5], likelihood=np.eye(3), cost=np.eye(3))
        assert m.log_prior is m.log_prior
        assert m.log_prior.tolist() == [np.log(0.5), -np.inf, np.log(0.5)]


class TestSampleObservation:
    def test_noiseless(self):
        m = identity_model(8)
        rng = np.random.default_rng(0)
        assert all(sample_observation(7, m, rng) == 7 for _ in range(20))

    def test_uniform_row_frequencies(self):
        m = StateModel(prior=[1.0], likelihood=[[0.25] * 4], cost=[[0.0]])
        rng = np.random.default_rng(1)
        draws = np.array([sample_observation(1, m, rng) for _ in range(100_000)])
        counts = np.bincount(draws, minlength=5)[1:]
        # 3-sigma binomial band around 25000
        sigma = np.sqrt(100_000 * 0.25 * 0.75)
        assert (np.abs(counts - 25_000) < 3 * sigma).all()

    def test_golden_sequence(self):
        m = default_model()
        rng = np.random.default_rng(1234)
        seq = [sample_observation(10, m, rng) for _ in range(10)]
        assert seq == [12, 10, 12, 9, 9, 9, 9, 9, 12, 9]

    def test_out_of_range_state(self):
        with pytest.raises(ValueError):
            sample_observation(0, default_model(), np.random.default_rng(0))

    def test_size_draws_the_scalar_stream(self):
        m = default_model()
        for seed in range(20):
            for x in (1, 10, 20):
                batch, single = np.random.default_rng(seed), np.random.default_rng(seed)
                drawn = sample_observation(x, m, batch, size=50)
                assert drawn.tolist() == [sample_observation(x, m, single) for _ in range(50)]
                assert batch.bit_generator.state == single.bit_generator.state


class TestDrawsFromModelCdfs:
    """Draws from the CDFs a StateModel keeps are Generator.choice(p=...)'s:
    the same values, and the generator left in the same state."""

    MODELS = {
        "default": default_model(),
        # width-2 kernel rows and a prior with zero entries
        "zeros": StateModel(prior=[0.0, 0.5, 0.0, 0.5], likelihood=triangular_likelihood(4, 2),
                            cost=quadratic_cost(4, 2)),
        "one state": StateModel(prior=[1.0], likelihood=[[0.25] * 4], cost=[[0.0]]),
        "one observation": StateModel(prior=[0.3, 0.7], likelihood=[[1.0], [1.0]],
                                      cost=[[0.0], [1.0]]),
    }

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("size", [None, 1, 37])
    def test_observations_equal_choice(self, name, size):
        m = self.MODELS[name]
        for seed in range(10):
            for x in range(1, m.num_states + 1):
                drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
                z = sample_observation(x, m, drawn, size=size)
                expected = chosen.choice(m.num_obs, p=m.likelihood[x - 1], size=size) + 1
                assert np.array_equal(z, expected)
                assert drawn.bit_generator.state == chosen.bit_generator.state

    @pytest.mark.parametrize("name", MODELS)
    def test_run_draws_equal_choice(self, name):
        # run_once draws the true state from the prior, then the N observations
        m = self.MODELS[name]
        config = simulate.ScenarioConfig(model=m, topology=TopologySpec(kind="chain41"), runs=1)
        graph = simulate.build_graph(config)
        for seed in range(10):
            rng, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
            trace = simulate.run_once(config, graph, rng)
            x = int(chosen.choice(m.num_states, p=m.prior)) + 1
            z = chosen.choice(m.num_obs, p=m.likelihood[x - 1], size=graph.size) + 1
            assert trace.true_state == x
            assert np.array_equal(trace.observations, z)
            assert rng.bit_generator.state == chosen.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-3, 0.25, 1.0, 7.0]),
                             min_size=1, max_size=6).filter(any),
                    min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_random_rows_with_zeros_equal_choice(self, weights, seed):
        width = max(map(len, weights))
        rows = np.array([w + [0.0] * (width - len(w)) for w in weights])
        rows /= rows.sum(axis=1, keepdims=True)
        m = StateModel(prior=np.full(len(rows), 1 / len(rows)), likelihood=rows,
                       cost=np.zeros((len(rows), 1)))
        for x in range(1, m.num_states + 1):
            drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
            z = sample_observation(x, m, drawn, size=25)
            assert np.array_equal(z, chosen.choice(width, p=rows[x - 1], size=25) + 1)
            assert drawn.bit_generator.state == chosen.bit_generator.state

    def test_cdfs_are_read_only_and_end_at_one(self):
        m = self.MODELS["zeros"]
        assert m.prior_cdf[-1] == 1.0 and (m.likelihood_cdf[:, -1] == 1.0).all()
        for cdf in (m.prior_cdf, m.likelihood_cdf):
            with pytest.raises(ValueError, match="read-only"):
                cdf[0] = 0.0


class TestPrivateBelief:
    def test_identity_point_mass(self):
        m = identity_model(5)
        mu = private_belief(np.full(5, 0.2), 3, m)
        assert np.allclose(mu, np.eye(5)[2])

    def test_hand_bayes(self):
        m = StateModel(prior=[0.5, 0.5],
                       likelihood=[[0.8, 0.2], [0.4, 0.6]],
                       cost=[[0, 1], [1, 0]])
        mu = private_belief(np.array([0.5, 0.5]), 1, m)
        assert np.allclose(mu, [2 / 3, 1 / 3], atol=1e-15)

    def test_point_mass_prior_dominates(self):
        m = default_model()
        pub = np.zeros(20)
        pub[4] = 1.0
        mu = private_belief(pub, 5, m)
        assert np.allclose(mu, pub)

    def test_degenerate_evidence(self):
        m = identity_model(4)
        pub = np.array([1.0, 0, 0, 0])
        with pytest.raises(DegenerateEvidenceError):
            private_belief(pub, 3, m)


class TestChooseAction:
    def test_zero_cost_column_wins(self):
        rng = np.random.default_rng(2)
        cost = np.ones((5, 4))
        cost[:, 2] = 0.0
        m = StateModel(prior=np.full(5, 0.2), likelihood=np.eye(5), cost=cost)
        for _ in range(10):
            assert choose_action(random_belief(rng, 5), m) == 3

    def test_quadratic_point_mass(self):
        m = default_model()
        mu = np.zeros(20)
        mu[9] = 1.0  # state 10
        a = choose_action(mu, m)
        # enumeration oracle over all actions
        expected = min(range(1, 11), key=lambda act: (10 - (2 * act - 0.5)) ** 2)
        assert a == expected == 5

    def test_tie_breaks_low(self):
        m = StateModel(prior=[0.5, 0.5], likelihood=np.eye(2),
                       cost=[[1.0, 1.0], [1.0, 1.0]])
        assert choose_action(np.array([0.5, 0.5]), m) == 1


class TestActionLikelihood:
    def test_noiseless_indicator(self):
        m = identity_model(4)
        pub = np.full(4, 0.25)
        for a in range(1, 5):
            nu = action_likelihood(pub, a, m)
            # a zero likelihood is floored at 1e-300, not -inf
            expected = np.where(np.arange(1, 5) == a, 0.0, np.log(1e-300))
            assert np.array_equal(nu, expected)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = small_random_model(rng)
            pub = random_belief(rng, m.num_states)
            # brute force: which action does each observation induce?
            induced = [choose_action(private_belief(pub, j, m), m)
                       for j in range(1, m.num_obs + 1)]
            for a in set(induced):
                nu = action_likelihood(pub, a, m)
                expected = np.zeros(m.num_states)
                for j, act in enumerate(induced, start=1):
                    if act == a:
                        expected += m.likelihood[:, j - 1]
                assert np.allclose(nu, np.log(np.maximum(expected, 1e-300)))

    def test_partition_over_actions(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = small_random_model(rng)
            pub = random_belief(rng, m.num_states)
            total = np.zeros(m.num_states)
            for a in range(1, m.num_actions + 1):
                try:
                    total += np.exp(action_likelihood(pub, a, m))
                except Exception:
                    pass  # zero-probability actions contribute nothing
            assert np.allclose(total, 1.0, atol=1e-12)


def reference_action_likelihood(pub, a, model):
    """p(a | x, pub) by one choose_action call per observation, in ascending j."""
    lik = np.zeros(model.num_states)
    for j in range(1, model.num_obs + 1):
        try:
            mu = private_belief(pub, j, model)
        except DegenerateEvidenceError:
            mu = pub  # impossible observation: the private belief is pub itself
        if choose_action(mu, model) == a:
            lik += model.likelihood[:, j - 1]
    if not lik.any():
        raise ZeroProbabilityActionError(f"action {a}")
    return np.log(np.maximum(lik, 1e-300))


def table_cases(rng, count=300):
    """(model, public belief) pairs: plain, with zero entries (some observations
    impossible), mirror-symmetric (exact cost ties), and tied cost columns."""
    default = default_model()
    x = default.num_states
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield default, random_belief(rng, x)
        elif kind == 1:
            pub = random_belief(rng, x) * (rng.random(x) < 0.3)
            pub[rng.integers(x)] += 0.1
            yield default, pub / pub.sum()
        elif kind == 2:
            half = random_belief(rng, x // 2) * (rng.random(x // 2) < 0.6)
            half[rng.integers(x // 2)] += 0.1
            pub = np.concatenate([half, half[::-1]])
            yield default, pub / pub.sum()
        else:
            m = small_random_model(rng)
            cost = np.repeat(m.cost, 2, axis=1)
            tied = StateModel(prior=m.prior, likelihood=m.likelihood, cost=cost)
            yield tied, random_belief(rng, tied.num_states)


def subnormal_cases(rng):
    """(model, public belief) pairs whose private normalisers pub . B[:, j] are
    subnormal but nonzero for some observations j, the range where a table
    built as pub @ (B * C) / pub @ B loses the costs: the default model with
    costs scaled by 1e-3 and beliefs e_1 plus k * 5e-324 at states 18-20, and
    random models with zeros in the likelihood and log-belief entries down
    to -745."""
    default = default_model()
    small = StateModel(prior=default.prior, likelihood=default.likelihood,
                       cost=default.cost * 1e-3)
    for _ in range(60):
        pub = np.eye(small.num_states)[0]
        pub[17:20] = rng.integers(0, 200, size=3) * 5e-324
        yield small, pub
    for _ in range(200):
        m = small_random_model(rng, num_states=int(rng.integers(3, 9)))
        lik = m.likelihood * (rng.random(m.likelihood.shape) < 0.5)
        lik[np.arange(lik.shape[0]), rng.integers(lik.shape[1], size=lik.shape[0])] += 0.1
        m = StateModel(prior=m.prior, likelihood=lik / lik.sum(axis=1, keepdims=True),
                       cost=m.cost * 10.0 ** rng.integers(-6, 1))
        theta = rng.uniform(-745, -700, m.num_states)
        theta[rng.integers(m.num_states)] = 0.0
        yield m, normalize_log(theta)


class TestActionTable:
    def test_matches_choose_action_per_observation(self):
        impossible = ties = 0
        for m, pub in table_cases(np.random.default_rng(11)):
            table = action_table(pub, m)
            assert table.shape == (m.num_obs,)
            for j in range(1, m.num_obs + 1):
                try:
                    mu = private_belief(pub, j, m)
                except DegenerateEvidenceError:
                    mu, impossible = pub, impossible + 1
                costs = mu @ m.cost
                ties += int(np.count_nonzero(costs == costs.min()) > 1)
                assert table[j - 1] == choose_action(mu, m)
        # the cases do reach both fallbacks
        assert impossible > 0 and ties > 0

    def test_subnormal_normalisers_match_choose_action(self):
        subnormal = 0
        for m, pub in subnormal_cases(np.random.default_rng(16)):
            table = action_table(pub, m)
            for j in range(1, m.num_obs + 1):
                total = (pub * m.likelihood[:, j - 1]).sum()
                subnormal += int(0 < total < np.finfo(np.float64).tiny)
                try:
                    mu = private_belief(pub, j, m)
                except DegenerateEvidenceError:
                    mu = pub
                assert table[j - 1] == choose_action(mu, m)
        assert subnormal > 100

    def test_likelihood_equals_per_observation_loop(self):
        for m, pub in table_cases(np.random.default_rng(12)):
            for a in range(1, m.num_actions + 1):
                try:
                    expected = reference_action_likelihood(pub, a, m)
                except ZeroProbabilityActionError:
                    with pytest.raises(ZeroProbabilityActionError):
                        action_likelihood(pub, a, m)
                    continue
                assert np.array_equal(action_likelihood(pub, a, m), expected)

    def test_stacked_equals_single_calls(self):
        m = default_model()
        pubs = np.stack([pub for case, pub in table_cases(np.random.default_rng(13))
                         if case.num_states == m.num_states])
        for group in np.array_split(pubs, len(pubs) // 4):
            table = action_table(group, m)
            assert table.shape == (len(group), m.num_obs)
            assert np.array_equal(table, np.stack([action_table(p, m) for p in group]))

    def test_likelihoods_of_every_action_equal_single_calls(self):
        # the default model among table_cases, and its 1e-3-cost copy with
        # subnormal normalisers among the first 60 subnormal_cases
        default = default_model()
        cases = [case for case in [*table_cases(np.random.default_rng(17)),
                                   *subnormal_cases(np.random.default_rng(18))]
                 if case[0].num_states == default.num_states]
        models = {id(m): m for m, _ in cases}
        assert len(models) == 2
        for m in models.values():
            pubs = np.stack([pub for model, pub in cases if model is m])
            tables = action_table(pubs, m)
            liks = action_likelihoods(tables, m)
            assert liks.shape == (len(pubs), m.num_actions, m.num_states)
            # a stack of stacks gives the same rows
            half = len(pubs) // 2 * 2
            assert np.array_equal(action_likelihoods(tables[:half].reshape(2, half // 2, -1), m),
                                  liks[:half].reshape(2, half // 2, *liks.shape[1:]))
            for pub, table, lik in zip(pubs, tables, liks):
                assert np.array_equal(lik, action_likelihoods(table, m))
                for a in range(1, m.num_actions + 1):
                    if a in table:
                        expected = action_likelihood(pub, a, m)
                        assert floored_log(lik[a - 1]).tobytes() == expected.tobytes()
                    else:
                        assert not lik[a - 1].any()

    def test_likelihood_raises_for_an_unselectable_action_or_a_bad_input(self):
        m = default_model()
        point = np.eye(m.num_states)[-1]
        # action 1, which no observation induces under the point mass on state X
        assert 1 not in action_table(point, m)
        with pytest.raises(ZeroProbabilityActionError,
                           match="^action 1 is not selectable under any observation$"):
            action_likelihood(point, 1, m)
        for a in (0, 11, True, 2.0):
            with pytest.raises(ValueError, match=f"^action {a} out of range 1..10$"):
                action_likelihood(point, a, m)
        # one belief only: a stack of them, or a scalar, is not one
        for pub in (np.stack([point, point]), np.float64(1.0)):
            with pytest.raises(ValueError, match="public belief must be one vector"):
                action_likelihood(pub, 1, m)


class TestAfterActionUpdate:
    def test_uninformative_action_no_change(self):
        # single action: its likelihood sums every observation column, = 1
        m = StateModel(prior=[0.3, 0.7],
                       likelihood=[[0.8, 0.2], [0.4, 0.6]],
                       cost=[[1.0], [1.0]])
        pub = np.array([0.25, 0.75])
        assert np.allclose(after_action_update(pub, 1, m), pub, atol=1e-14)

    def test_hand_worked_two_state(self):
        m = StateModel(prior=[0.5, 0.5],
                       likelihood=[[0.8, 0.2], [0.4, 0.6]],
                       cost=[[0.0, 1.0], [1.0, 0.0]])
        pub = np.array([0.5, 0.5])
        # under this pub: z=1 -> mu=[2/3,1/3] -> action 1; z=2 -> [1/4,3/4] -> action 2
        # p(a=1|x=1)=0.8, p(a=1|x=2)=0.4
        post = after_action_update(pub, 1, m)
        expected = np.array([0.5 * 0.8, 0.5 * 0.4])
        assert np.allclose(post, expected / expected.sum(), atol=1e-14)

    def test_total_probability_mixture(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = small_random_model(rng)
            pub = random_belief(rng, m.num_states)
            mix = np.zeros(m.num_states)
            for a in range(1, m.num_actions + 1):
                try:
                    lik = np.exp(action_likelihood(pub, a, m))
                except Exception:
                    continue
                p_a = lik @ pub
                if p_a > 0:
                    mix += p_a * after_action_update(pub, a, m)
            assert np.allclose(mix, pub, atol=1e-12)


class TestAggregation:
    def test_chain_case(self):
        nu1 = np.array([0.1, -0.2, 0.3])
        nu2 = np.array([-0.5, 0.4, 0.0])
        out = aggregate({1: nu1}, np.array([1.0]), nu2)
        assert np.allclose(out, nu1 + nu2)

    def test_diamond_weights(self):
        rng = np.random.default_rng(6)
        evidence = {i: rng.normal(size=2) for i in range(1, 5)}
        nu5 = rng.normal(size=2)
        w5 = np.array([-1.0, -1.0, 1.0, 1.0])
        out = aggregate(evidence, w5, nu5)
        expected = -evidence[1] - evidence[2] + evidence[3] + evidence[4] + nu5
        assert np.allclose(out, expected)

    def test_missing_sender_raises(self):
        with pytest.raises(AvailabilityError) as exc:
            aggregate({}, np.array([1.0]), np.zeros(2), node=7)
        assert exc.value.missing == [1]
        assert exc.value.node == 7

    def test_negative_weight_on_neg_inf(self):
        with pytest.raises(SignedInfinityError):
            aggregate({1: np.array([-np.inf, 0.0])}, np.array([-1.0]), np.zeros(2))

    def test_positive_weight_on_neg_inf_allowed(self):
        out = aggregate({1: np.array([-np.inf, 0.0])}, np.array([2.0]), np.zeros(2))
        assert np.isneginf(out[0])


def assert_same_bits(got, expected):
    """Equal bit for bit once every zero is +0.0: adding the log prior to fused
    evidence erases the sign of a zero sum, so nothing else may differ."""
    assert got.shape == expected.shape
    assert np.array_equal((got + 0.0).view(np.int64), (expected + 0.0).view(np.int64))


def fused_by_terms(coeffs, evidence, node):
    """fuse_terms on each (mode, node) row of a block, stacked as fuse stacks them."""
    fused = [[fuse_terms(row, evidence[k], row != 0, node=node + j) for j, row in enumerate(rows)]
             for k, rows in enumerate(coeffs)]
    return np.array(fused).reshape(coeffs.shape[:2] + evidence.shape[2:])


class TestFuse:
    """One node's rows, one per mode, fused as a one-node block."""

    def cases(self, rng, count=50):
        """Stacked (M, K) coefficients with zeros, and finite evidence."""
        for _ in range(count):
            m, k, x = 3, int(rng.integers(0, 8)), 4
            coeffs = rng.integers(-2, 3, size=(m, k)).astype(np.float64)
            yield coeffs, rng.normal(size=(m, k, x))

    def test_equals_fuse_terms_row_by_row(self):
        for coeffs, evidence in self.cases(np.random.default_rng(20)):
            assert np.array_equal(fuse(coeffs[:, None], evidence, node=9),
                                  fused_by_terms(coeffs[:, None], evidence, node=9))


class TestFuseBlock:
    """One row per (mode, node) of a block over shared evidence."""

    def test_equals_fuse_terms_per_mode_and_node(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m, l, k, x = 3, int(rng.integers(1, 5)), int(rng.integers(0, 8)), 4
            coeffs = rng.integers(-2, 3, size=(m, l, k)).astype(np.float64)
            evidence = rng.normal(size=(m, k, x))
            expected = fused_by_terms(coeffs, evidence, node=7)
            assert expected.shape == (m, l, x)
            assert np.array_equal(fuse(coeffs, evidence, node=7), expected)
            # each node's rows are what a one-node block gives
            for j in range(l):
                assert np.array_equal(fuse(coeffs[:, j:j + 1], evidence, node=7 + j),
                                      expected[:, j:j + 1])

    def test_lowest_node_whose_sum_leaves_float64_raises(self):
        # node 5's rows stay finite; node 6 overflows in mode 1, node 7 in mode 0
        evidence = np.full((2, 2, 3), -1e308)
        coeffs = np.array([[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                           [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError, match="^node 6: fused evidence left the float64 range$"):
            fuse(coeffs, evidence, node=5)
        # products that overflow to -inf and +inf in one row sum to NaN, also caught
        coeffs = np.array([[[2.0, 2.0]], [[1.0, 0.0]]])
        evidence[0, 1] = 1e308
        with pytest.raises(ValueError, match="^node 5: "):
            fuse(coeffs, evidence, node=5)

    @pytest.mark.parametrize("coeffs, size", [
        # node 4's row sums to +inf and node 5's to -inf: the block sums to inf - inf
        ([[[1.0, 1.0], [-1.0, -1.0]]], 2),
        # node 4's terms reach +inf, then add -inf: its row is NaN
        ([[[1.0, 1.0, -2.0]]], 3),
    ])
    def test_inf_minus_inf_raises_value_error_not_a_warning(self, coeffs, size):
        # einsum gives no floating-point warning, and the check of its result raises
        evidence = np.full((1, size, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^node 4: fused evidence left the float64 range$"):
                fuse(np.array(coeffs), evidence, node=4)

    def test_finite_rows_whose_total_overflows_pass(self):
        # every row is finite, but their sum over the block is not
        evidence = np.full((2, 1, 3), -1e308)
        coeffs = np.ones((2, 4, 1))
        total = fuse(coeffs, evidence, node=3)
        assert np.array_equal(total, np.full((2, 4, 3), -1e308))


def block_slices(study):
    """(RunTables, number of states) of a bundled study or of a dense_scale
    study, complete_delay 10 x 20 augmented, in every mode."""
    if study in BUNDLED:
        config = cli.build_scenario(cli.load_config_file(study))
    else:
        raw = {"topology": {"kind": "complete_delay", "agents": 10, "epochs": 20},
               "true_state": "random", "seed": int(study.split("-")[1])}
        config = cli.build_scenario(raw)
    config = dataclasses.replace(config, modes=ALL_MODES, force=True)
    graph = simulate.build_graph(config)
    if study not in BUNDLED:
        graph = augment_for_constraint(graph)
    return simulate.run_tables(config, graph), config.model.num_states


class TestFuseIdentity:
    """fuse's einsum adds each row's terms in ascending i, from 0.0, as the
    ordered reduction (fuse_by_reduce) and fuse_terms do, whenever X >= 2."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 4), l=st.integers(1, 12), k=st.integers(0, 300),
           x=st.integers(2, 64), scale=st.integers(0, 13), zeros=st.floats(0, 1),
           sliced=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_ordered_reduction(self, m, l, k, x, scale, zeros, sliced, seed):
        rng = np.random.default_rng(seed)
        # integer weights of mixed size up to 10^scale, as W's are, a share of them zero
        coeffs = np.rint(rng.uniform(-1, 1, size=(m, l, k))
                         * 10.0 ** rng.uniform(0, scale, size=(m, l, k)))
        coeffs[rng.random((m, l, k)) < zeros] = 0.0
        evidence = rng.normal(scale=50.0, size=(m, k, x))
        if sliced:
            # a block's rows of a larger table, and the rows stored before the block
            table = np.ones((m, l + 3, k + 5))
            table[:, 2:l + 2, :k] = coeffs
            stored = np.ones((m, k + 4, x))
            stored[:, :k] = evidence
            coeffs, evidence = table[:, 2:l + 2, :k], stored[:, :k]
        got = fuse(coeffs, evidence, node=3)
        assert_same_bits(got, fuse_by_reduce(coeffs, evidence))
        assert_same_bits(got, fused_by_terms(coeffs, evidence, node=3))

    @pytest.mark.parametrize("study", [*BUNDLED, "dense_scale-1000", "dense_scale-1001"])
    def test_every_block_slice(self, study):
        # the strided views of the table that run_once fuses, not copies of them
        tables, states = block_slices(study)
        m = len(tables.stores_after)
        rng = np.random.default_rng(5)
        for lo, hi in tables.graph.blocks:
            coeffs = tables.coeffs[:m, lo:hi, :lo]
            assert coeffs.base is tables.coeffs and coeffs.strides[-1] == coeffs.itemsize
            evidence = rng.normal(scale=50.0, size=(m, lo, states))
            got = fuse(coeffs, evidence, node=lo + 1)
            assert_same_bits(got, fuse_by_reduce(coeffs, evidence))
            assert_same_bits(got, fused_by_terms(coeffs, evidence, node=lo + 1))


# pytest on argv's selections, unless numpy still dispatches a CPU feature
PYTEST_IF_NONE_DISPATCHED = """\
import sys, pytest
from numpy._core import _multiarray_umath as m
still = [f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f)]
sys.exit(f"still dispatched: {still}" if still else pytest.main(["-q", *sys.argv[1:]]))
"""


def test_fuse_order_at_the_baseline_simd_level():
    # fuse must add in ascending order whatever kernel numpy dispatches: rerun
    # the fuse identities, the whole-run references and the golden digests
    # with every dispatched CPU feature disabled
    from numpy._core import _multiarray_umath as m

    dispatched = [f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f)]
    res = run_python("-c", PYTEST_IF_NONE_DISPATCHED, "tests/test_learning.py::TestFuseIdentity",
                     "tests/test_simulate.py::TestStackedRunMatchesReference",
                     "tests/test_cli.py::TestRun::test_bundled_golden_digests",
                     NPY_DISABLE_CPU_FEATURES=" ".join(dispatched))
    assert res.returncode == 0, res.stdout + res.stderr


class TestFullHistory:
    def test_edgeless(self):
        nu = np.array([0.2, -0.1, 0.0])
        out = full_history_belief({}, np.zeros(0), nu)
        assert np.allclose(out, nu)

    def test_chain(self):
        rng = np.random.default_rng(9)
        nus = {1: rng.normal(size=3), 2: rng.normal(size=3)}
        nu3 = rng.normal(size=3)
        out = full_history_belief(nus, np.array([1, 1]), nu3)
        assert np.allclose(out, nus[1] + nus[2] + nu3)

    def test_order_invariance(self):
        rng = np.random.default_rng(10)
        nus = {i: rng.normal(size=4) for i in range(1, 6)}
        nu = rng.normal(size=4)
        t = np.array([1, 0, 1, 1, 1])
        a = full_history_belief(nus, t, nu)
        b = full_history_belief(dict(reversed(nus.items())), t, nu)
        assert np.allclose(a, b)

    def test_probability_domain_oracle(self):
        # product-form posterior computed directly in probability domain
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = 3
            prior = rng.dirichlet(np.ones(x))
            nus = {i: np.log(rng.random(x)) for i in range(1, 5)}
            nu = np.log(rng.random(x))
            t = (rng.random(4) < 0.5).astype(int)
            out = full_history_belief(nus, t, nu)
            direct = prior * np.exp(nu)
            for i in np.flatnonzero(t):
                direct = direct * np.exp(nus[int(i) + 1])
            assert np.allclose(normalize_log(np.log(prior) + out), direct / direct.sum(),
                               atol=1e-12)


class TestEstimate:
    def test_uniform_mean(self):
        assert estimate_state(np.full(20, 0.05), "mean") == pytest.approx(10.5)

    def test_point_mass_both_rules(self):
        b = np.zeros(20)
        b[9] = 1.0
        assert estimate_state(b, "map") == 10
        assert estimate_state(b, "mean") == pytest.approx(10)

    def test_two_state_mean(self):
        assert estimate_state(np.array([0.25, 0.75]), "mean") == pytest.approx(1.75)

    def test_map_tie_low_index(self):
        assert estimate_state(np.array([0.5, 0.5]), "map") == 1

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            estimate_state(np.array([1.0]), "median")

    def test_mean_equals_a_dot_product_per_belief(self):
        rng = np.random.default_rng(22)
        for x in (5, 20, 21, 37):
            beliefs = rng.dirichlet(np.full(x, 0.3), size=(3, 41))
            expected = np.array([[b @ np.arange(1, x + 1) for b in row] for row in beliefs])
            assert np.array_equal(estimate_state(beliefs, "mean"), expected)
            assert estimate_state(beliefs[0, 0], "mean") == expected[0, 0]

    def test_stacked_equals_single_calls(self):
        beliefs = np.random.default_rng(21).dirichlet(np.ones(20), size=(3, 7))
        for rule in ("mean", "map"):
            stacked = estimate_state(beliefs, rule)
            assert stacked.shape == (3, 7)
            assert stacked.tolist() == [[estimate_state(b, rule) for b in row]
                                        for row in beliefs]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_every_operation_normalizes(seed):
    rng = np.random.default_rng(seed)
    m = small_random_model(rng)
    pub = random_belief(rng, m.num_states)
    z = int(rng.integers(1, m.num_obs + 1))
    try:
        mu = private_belief(pub, z, m)
    except DegenerateEvidenceError:
        return
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)
    a = choose_action(mu, m)
    post = after_action_update(pub, a, m)
    assert post.sum() == pytest.approx(1.0, abs=1e-12)
    assert (post >= 0).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_likelihood_partition_property(seed):
    rng = np.random.default_rng(seed)
    m = small_random_model(rng)
    pub = random_belief(rng, m.num_states)
    total = np.zeros(m.num_states)
    for a in range(1, m.num_actions + 1):
        try:
            total += np.exp(action_likelihood(pub, a, m))
        except Exception:
            pass
    assert np.allclose(total, 1.0, atol=1e-12)
