import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incestless import (
    AvailabilityError,
    DegenerateEvidenceError,
    LogBelief,
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
from incestless.learning import fuse, fuse_terms

from conftest import after_action_update


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
            nu = action_likelihood(pub, a, m, floor_zero_likelihood=False)
            expected = np.where(np.arange(1, 5) == a, 0.0, -np.inf)
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
                nu = action_likelihood(pub, a, m, floor_zero_likelihood=False)
                expected = np.zeros(m.num_states)
                for j, act in enumerate(induced, start=1):
                    if act == a:
                        expected += m.likelihood[:, j - 1]
                with np.errstate(divide="ignore"):
                    assert np.allclose(nu, np.log(expected), equal_nan=True)

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


def reference_action_likelihood(pub, a, model, floor_zero_likelihood=True):
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
    if floor_zero_likelihood:
        return np.log(np.maximum(lik, 1e-300))
    with np.errstate(divide="ignore"):
        return np.log(lik)


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

    def test_likelihood_equals_per_observation_loop(self):
        for m, pub in table_cases(np.random.default_rng(12)):
            table = action_table(pub, m)
            for a in range(1, m.num_actions + 1):
                for floor in (True, False):
                    try:
                        expected = reference_action_likelihood(pub, a, m, floor)
                    except ZeroProbabilityActionError:
                        with pytest.raises(ZeroProbabilityActionError):
                            action_likelihood(pub, a, m, floor)
                        with pytest.raises(ZeroProbabilityActionError):
                            action_likelihood(pub, a, m, floor, table=table)
                        continue
                    assert np.array_equal(action_likelihood(pub, a, m, floor), expected)
                    assert np.array_equal(
                        action_likelihood(pub, a, m, floor, table=table), expected)

    def test_stacked_equals_single_calls(self):
        m = default_model()
        pubs = np.stack([pub for case, pub in table_cases(np.random.default_rng(13))
                         if case.num_states == m.num_states])
        for group in np.array_split(pubs, len(pubs) // 4):
            table = action_table(group, m)
            assert table.shape == (len(group), m.num_obs)
            assert np.array_equal(table, np.stack([action_table(p, m) for p in group]))


    def test_stacked_likelihood_equals_single_calls(self):
        m = default_model()
        pubs = np.stack([pub for case, pub in table_cases(np.random.default_rng(14))
                         if case.num_states == m.num_states])
        rng = np.random.default_rng(15)
        for group in np.array_split(pubs, len(pubs) // 4):
            table = action_table(group, m)
            # actions some observation induces, so no row raises
            a = table[np.arange(len(group)), rng.integers(m.num_obs, size=len(group))]
            for floor in (True, False):
                expected = np.stack([action_likelihood(p, int(ak), m, floor)
                                     for p, ak in zip(group, a)])
                assert np.array_equal(action_likelihood(group, a, m, floor), expected)
                assert np.array_equal(
                    action_likelihood(group, a, m, floor, table=table), expected)

    def test_stacked_likelihood_raises_for_an_unselectable_row(self):
        m = default_model()
        pubs = np.stack([np.eye(m.num_states)[0], np.eye(m.num_states)[-1]])
        table = action_table(pubs, m)
        # row 1 takes action 1, which no observation induces under its point mass
        assert 1 not in table[1]
        with pytest.raises(ZeroProbabilityActionError, match="action 1 "):
            action_likelihood(pubs, np.array([table[0, 0], 1]), m, table=table)
        with pytest.raises(ValueError, match="action 11 out of range"):
            action_likelihood(pubs, np.array([1, 11]), m)


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
    def log_prior(self, x):
        return np.log(np.full(x, 1.0 / x))

    def test_chain_case(self):
        lp = self.log_prior(3)
        nu1 = np.array([0.1, -0.2, 0.3])
        theta1 = LogBelief(log_prior=lp, evidence=nu1)
        nu2 = np.array([-0.5, 0.4, 0.0])
        out = aggregate({1: theta1}, np.array([1.0]), nu2, lp)
        assert np.allclose(out.evidence, nu1 + nu2)

    def test_diamond_weights(self):
        lp = self.log_prior(2)
        rng = np.random.default_rng(6)
        thetas = {i: LogBelief(log_prior=lp, evidence=rng.normal(size=2))
                  for i in range(1, 5)}
        nu5 = rng.normal(size=2)
        w5 = np.array([-1.0, -1.0, 1.0, 1.0])
        out = aggregate(thetas, w5, nu5, lp)
        expected = (-thetas[1].evidence - thetas[2].evidence
                    + thetas[3].evidence + thetas[4].evidence + nu5)
        assert np.allclose(out.evidence, expected)

    def test_missing_sender_raises(self):
        lp = self.log_prior(2)
        with pytest.raises(AvailabilityError) as exc:
            aggregate({}, np.array([1.0]), np.zeros(2), lp, node=7)
        assert exc.value.missing == [1]
        assert exc.value.node == 7

    def test_negative_weight_on_neg_inf(self):
        lp = self.log_prior(2)
        theta = LogBelief(log_prior=lp, evidence=np.array([-np.inf, 0.0]))
        with pytest.raises(SignedInfinityError):
            aggregate({1: theta}, np.array([-1.0]), np.zeros(2), lp)

    def test_positive_weight_on_neg_inf_allowed(self):
        lp = self.log_prior(2)
        theta = LogBelief(log_prior=lp, evidence=np.array([-np.inf, 0.0]))
        out = aggregate({1: theta}, np.array([2.0]), np.zeros(2), lp)
        assert np.isneginf(out.evidence[0])


class TestFuse:
    def cases(self, rng, count=50):
        """Stacked (M, K) coefficients with zeros, and evidence with -inf entries."""
        for _ in range(count):
            m, k, x = 3, int(rng.integers(0, 8)), 4
            coeffs = rng.integers(-2, 3, size=(m, k)).astype(np.float64)
            evidence = rng.normal(size=(m, k, x))
            evidence[rng.random((m, k, x)) < 0.15] = -np.inf
            yield coeffs, evidence

    def test_equals_fuse_terms_row_by_row(self):
        raised = 0
        for coeffs, evidence in self.cases(np.random.default_rng(20)):
            received = coeffs != 0
            try:
                expected = np.stack([fuse_terms(c, e, r, node=9)
                                     for c, e, r in zip(coeffs, evidence, received)])
            except SignedInfinityError as exc:
                raised += 1
                for passed in (None, received):
                    with pytest.raises(SignedInfinityError) as got:
                        fuse(coeffs, evidence, passed, node=9)
                    assert str(got.value) == str(exc)
                continue
            assert np.array_equal(fuse(coeffs, evidence, node=9), expected)
            assert np.array_equal(fuse(coeffs, evidence, received, node=9), expected)
        assert raised > 0

    def test_unavailable_row_raises(self):
        coeffs = np.array([[1.0, 0.0], [0.0, 2.0]])
        received = np.array([[True, False], [True, False]])
        with pytest.raises(AvailabilityError) as exc:
            fuse(coeffs, np.zeros((2, 2, 3)), received, node=4)
        assert exc.value.node == 4 and exc.value.missing == [2]


class TestFullHistory:
    def test_edgeless(self):
        lp = np.log(np.full(3, 1 / 3))
        nu = np.array([0.2, -0.1, 0.0])
        out = full_history_belief({}, np.zeros(0), nu, lp)
        assert np.allclose(out.log_posterior(), lp + nu)

    def test_chain(self):
        lp = np.log(np.full(3, 1 / 3))
        rng = np.random.default_rng(9)
        nus = {1: rng.normal(size=3), 2: rng.normal(size=3)}
        nu3 = rng.normal(size=3)
        out = full_history_belief(nus, np.array([1, 1]), nu3, lp)
        assert np.allclose(out.evidence, nus[1] + nus[2] + nu3)

    def test_order_invariance(self):
        lp = np.log(np.full(4, 0.25))
        rng = np.random.default_rng(10)
        nus = {i: rng.normal(size=4) for i in range(1, 6)}
        nu = rng.normal(size=4)
        t = np.array([1, 0, 1, 1, 1])
        a = full_history_belief(nus, t, nu, lp)
        b = full_history_belief(dict(reversed(nus.items())), t, nu, lp)
        assert np.allclose(a.evidence, b.evidence)

    def test_probability_domain_oracle(self):
        # product-form posterior computed directly in probability domain
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = 3
            prior = rng.dirichlet(np.ones(x))
            nus = {i: np.log(rng.random(x)) for i in range(1, 5)}
            nu = np.log(rng.random(x))
            t = (rng.random(4) < 0.5).astype(int)
            out = full_history_belief(nus, t, nu, np.log(prior))
            direct = prior * np.exp(nu)
            for i in np.flatnonzero(t):
                direct = direct * np.exp(nus[int(i) + 1])
            assert np.allclose(out.belief(), direct / direct.sum(), atol=1e-12)


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
