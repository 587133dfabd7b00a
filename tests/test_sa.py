import math

import numpy as np
import pytest

from hydrocm import sa as sa_mod
from hydrocm.engine import _SaIsland
from hydrocm.problems import MmdpInstance, generate_ssp_instance, random_genome
from hydrocm.sa import (
    SaParams,
    SaState,
    accept,
    init_sa_state,
    inject_immigrant,
    perturb,
    sa_step,
    update_temperature,
)

from conftest import ConstantProblem, node_rng, panmictic


def fresh_state(problem, seed=1, **params_kw):
    params = SaParams(**params_kw).resolved_for(problem.length)
    rng = node_rng(seed)
    return init_sa_state(params, problem, rng), params, rng


class TestSaParams:
    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_perturb_rate_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="p_perturb_per_bit"):
            SaParams(p_perturb_per_bit=p)

    @pytest.mark.parametrize("t0", [0.0, -1.0])
    def test_nonpositive_t0_rejected(self, t0):
        # accept divides by the temperature and does not check it
        with pytest.raises(ValueError, match="t0"):
            SaParams(t0=t0)

    @pytest.mark.parametrize("p", [1e-6, 1.0, None])
    def test_perturb_rate_in_unit_interval_accepted(self, p):
        assert SaParams(p_perturb_per_bit=p).p_perturb_per_bit == p

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"schedule_rate": 0.0}, "schedule_rate must be positive"),
            ({"schedule_rate": -0.5}, "schedule_rate must be positive"),
        ],
        ids=["fast-zero-rate", "fast-negative-rate"],
    )
    def test_bad_schedule_rejected(self, kwargs, message):
        # update_temperature relies on these and does not check them
        with pytest.raises(ValueError, match=message):
            SaParams(**kwargs)

    def test_rate_above_one_is_a_fast_schedule_rate(self):
        assert SaParams(schedule_rate=1.5).schedule_rate == 1.5


class TestPerturb:
    def test_rate_one_is_complement(self, rng):
        assert perturb(4, 1.0, rng) == [0, 1, 2, 3]

    def test_expected_flip_count(self):
        rng = node_rng(8)
        flips = [len(perturb(150, 4.0 / 150, rng)) for _ in range(10_000)]
        assert abs(np.mean(flips) - 4.0) < 0.1


class TestAccept:
    def test_improving_always_accepted(self, rng):
        assert accept(1.0, 2.0, 1e-12, rng)
        assert accept(1.0, 1.0, 1e-12, rng)

    def test_cold_limit_rejects(self):
        rng = node_rng(9)
        delta = 1.0
        hits = sum(accept(1.0, 0.0, delta / 100.0, rng) for _ in range(10_000))
        assert hits / 10_000 < 0.01

    def test_matches_boltzmann_at_unit_ratio(self):
        rng = node_rng(10)
        hits = sum(accept(2.0, 1.0, 1.0, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - math.exp(-1)) < 0.02

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_matches_boltzmann_across_ratios(self, ratio):
        rng = node_rng(11)
        hits = sum(accept(1.0, 1.0 - ratio, 1.0, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - math.exp(-ratio)) < 0.02


class TestUpdateTemperature:
    def test_step_zero_returns_t0(self):
        assert update_temperature(3.0, 0, SaParams()) == 3.0
        assert update_temperature(3.0, 0, SaParams(schedule_rate=0.9)) == 3.0

    def test_fast_closed_form(self):
        assert update_temperature(10.0, 9, SaParams(schedule_rate=1.0)) == 1.0

    @pytest.mark.parametrize(
        "params",
        [SaParams(schedule_rate=0.7), SaParams(schedule_rate=50.0)],
    )
    def test_monotone_and_positive(self, params):
        prev = update_temperature(5.0, 0, params)
        for k in range(1, 1_000):
            t = update_temperature(5.0, k, params)
            assert 0.0 < t <= prev
            prev = t

    @pytest.mark.parametrize(
        "t0, params",
        [(1.0e-300, SaParams(schedule_rate=1.0e300)), (1e-320, SaParams())],
        ids=["fast-rate-1e300", "fast-t0-subnormal"],
    )
    def test_positive_through_underflow(self, t0, params):
        prev = update_temperature(t0, 0, params)
        for k in range(1, 10**6 + 1):
            t = update_temperature(t0, k, params)
            assert 0.0 < t <= prev
            prev = t


class TestSaStep:
    def test_flat_landscape_all_moves_accepted(self):
        prob = ConstantProblem(length=8)
        state, params, rng = fresh_state(prob)
        assert state.t0 == 1e-9  # estimate_t0's floor: every sample scores the same
        f0 = state.fitness
        for k in range(1, 20):
            sa_step(state, params, prob, rng)
            assert state.step == k
            assert state.fitness == f0
            assert state.best[1] == f0

    def test_best_never_decreases(self):
        prob = MmdpInstance(k=2)
        state, params, rng = fresh_state(prob, seed=3)
        best = state.best[1]
        for _ in range(1_000):
            sa_step(state, params, prob, rng)
            assert state.best[1] >= best
            best = state.best[1]

    def test_exactly_one_evaluation(self, counting):
        prob = counting(MmdpInstance(k=1))
        state, params, rng = fresh_state(prob, seed=4)
        prob.count = 0
        sa_step(state, params, prob, rng)
        assert prob.count == 1

    def test_temperature_follows_schedule(self):
        prob = MmdpInstance(k=1)
        state, params, rng = fresh_state(prob, seed=5, schedule_rate=1.0)
        t0 = state.t0
        sa_step(state, params, prob, rng)
        assert state.temperature == t0 / 2.0
        sa_step(state, params, prob, rng)
        assert state.temperature == t0 / 3.0


class TestInPlaceMoves:
    """`state.genome` is changed in place and owned by the state alone."""

    @pytest.mark.parametrize(
        "problem",
        [MmdpInstance(k=5), MmdpInstance(k=25), generate_ssp_instance(64, seed=7)],
        ids=["mmdp5", "mmdp25", "ssp64"],
    )
    def test_moves_and_tally_over_many_steps(self, problem, monkeypatch):
        moves, verdicts = [], []

        def perturb_spy(*args):
            moves.append(perturb(*args))
            return moves[-1]

        def accept_spy(*args):
            verdicts.append(accept(*args))
            return verdicts[-1]

        monkeypatch.setattr(sa_mod, "perturb", perturb_spy)
        monkeypatch.setattr(sa_mod, "accept", accept_spy)
        state, params, rng = fresh_state(problem, seed=14)
        immigrant_rng = np.random.default_rng(15)
        rejected = 0
        for step in range(10_000):
            if step % 500 == 499:
                immigrant = random_genome(problem.length, immigrant_rng)
                inject_immigrant(state, immigrant, problem, rng)
                assert state.genome is not immigrant
            genome = state.genome
            before, f_before = bytes(genome), state.fitness
            sa_step(state, params, problem, rng)
            assert state.genome is genome
            if verdicts[-1]:
                expected = bytearray(before)
                for i in moves[-1]:
                    expected[i] ^= 1
                assert genome == expected
            else:
                rejected += 1
                assert genome == before
                assert state.fitness == f_before
            assert state.fitness == problem.evaluate(genome)
            assert state.tally == problem.tally(genome)
            # the best is immutable, so it cannot alias the genome flipped in place
            assert type(genome) is bytearray and type(state.best[0]) is bytes
        assert rejected > 1_000


class TestInjectImmigrant:
    def test_fitter_immigrant_adopted(self):
        prob = MmdpInstance(k=1)
        state, params, rng = fresh_state(prob, seed=6)
        optimum = np.ones(6, dtype=np.uint8)
        inject_immigrant(state, optimum, prob, rng)
        assert state.fitness == 1.0
        assert state.best[1] == 1.0

    def test_much_worse_rejected_when_cold(self):
        rng = node_rng(7)
        good = np.zeros(6, dtype=np.uint8)

        class TwoLevel:
            length = 6
            optimum = 100.0

            def evaluate(self, genome):
                return 0.0  # every immigrant looks terrible

            def tally(self, genome):
                return None

            def flip(self, tally, genome, positions):
                return None

            def fitness_of(self, tally):
                return 0.0

        two = TwoLevel()
        rejected = 0
        trials = 10_000
        for _ in range(trials):
            state = SaState(good.copy(), 10.0, None, (good.copy(), 10.0), t0=1.0, temperature=1e-6)
            inject_immigrant(state, np.ones(6, dtype=np.uint8), two, rng)
            if state.fitness == 10.0:
                rejected += 1
        assert rejected / trials > 0.99

    def test_identical_immigrant_accepted_without_change(self):
        prob = MmdpInstance(k=1)
        state, params, rng = fresh_state(prob, seed=8)
        before = state.fitness
        inject_immigrant(state, state.genome.copy(), prob, rng)
        assert state.fitness == before
        assert state.best[1] >= before

    def test_counts_one_evaluation(self, counting):
        prob = counting(MmdpInstance(k=1))
        state, params, rng = fresh_state(prob, seed=9)
        prob.count = 0
        inject_immigrant(state, np.zeros(6, dtype=np.uint8), prob, rng)
        assert prob.count == 1

    def test_rejects_length_mismatch(self):
        prob = MmdpInstance(k=1)
        state, params, rng = fresh_state(prob, seed=10)
        with pytest.raises(ValueError):
            inject_immigrant(state, np.zeros(5, dtype=np.uint8), prob, rng)


class TestSelectEmigrantSa:
    """An SA island's emigrant is `state.best` itself, a `(genome, fitness)`
    pair shared without a copy; `best` holds an immutable `bytes` genome
    however it was last set, so no receiver can change it."""

    @staticmethod
    def island(problem, seed):
        params = SaParams().resolved_for(problem.length)
        island = _SaIsland(None, problem, node_rng(seed), params)
        island.initialize()
        return island

    @staticmethod
    def assert_shares_read_only_best(island):
        genome, fitness = island.emigrant()
        best = island.state.best
        assert island.emigrant() is best
        assert genome is best[0] and fitness == best[1]
        assert type(genome) is bytes and type(island.state.genome) is bytearray
        return genome

    def test_fresh_state_returns_current(self):
        island = self.island(MmdpInstance(k=1), seed=11)
        genome = self.assert_shares_read_only_best(island)
        assert island.emigrant()[1] == island.state.fitness
        assert genome == island.state.genome

    def test_returns_best_after_improvement(self):
        island = self.island(MmdpInstance(k=4), seed=12)
        first = island.state.best
        for _ in range(200):
            island.step()
        assert island.state.best[1] > first[1]  # sa_step set a new best
        self.assert_shares_read_only_best(island)
        assert island.state.best[1] < 4.0
        optimum = bytearray([1] * 24)
        island._apply_immigrant((optimum, 4.0))
        assert island.state.best[1] == 4.0  # inject_immigrant set a new best
        genome = self.assert_shares_read_only_best(island)
        optimum[0] = 0  # the best is a copy, not the caller's buffer
        assert genome == bytes([1] * 24)

    def test_state_unmodified(self):
        island = self.island(MmdpInstance(k=1), seed=13)
        genome, _ = island.emigrant()
        before = bytes(genome)
        with pytest.raises(TypeError):
            genome[0] = 1
        assert island.state.best[0] == before


class TestRunPanmicticSa:
    def test_mmdp_k1_solve_rate(self):
        solved = sum(
            panmictic("sa", MmdpInstance(k=1), budget=10_000, seed=s).success
            for s in range(100)
        )
        assert solved >= 99

    def test_ssp_n16_solve_rate(self):
        prob = generate_ssp_instance(16, seed=11)
        solved = sum(
            panmictic("sa", prob, budget=100_000, seed=s).success
            for s in range(100)
        )
        assert solved >= 90

    def test_exhausted_budget_reports_failure(self):
        prob = MmdpInstance(k=4)
        res = panmictic("sa", prob, budget=105, seed=0)
        assert not res.success
        assert res.best < prob.optimum
        assert res.evaluations <= 105

    def test_deterministic(self):
        a = panmictic("sa", MmdpInstance(k=2), budget=5_000, seed=21)
        b = panmictic("sa", MmdpInstance(k=2), budget=5_000, seed=21)
        assert a == b

    def test_counts_t0_estimation_evaluations(self, counting):
        prob = counting(MmdpInstance(k=4))
        res = panmictic("sa", prob, budget=500, seed=2)
        assert res.evaluations == prob.count
