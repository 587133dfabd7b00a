import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from hydrocm.ga import (
    GaParams,
    Population,
    _offspring_step,
    _tournament_index,
    init_population,
    mutate,
    one_point_crossover,
    select_emigrant,
)
from hydrocm.problems import MmdpInstance, generate_ssp_instance
from hydrocm.sa import perturb
from hydrocm.seeding import BufferedRng

from conftest import node_rng, panmictic


def make_population(fitness_values, length=8):
    n = len(fitness_values)
    genomes = ((np.arange(n)[:, None] >> np.arange(length)) & 1).astype(np.uint8)
    return Population(genomes, np.array(fitness_values, dtype=np.float64))


class ScriptedRng:
    """Hands out the given uniforms, in order, from `random()`."""

    def __init__(self, uniforms):
        self.random = iter(uniforms).__next__


class TestGaParams:
    @pytest.mark.parametrize(
        "kwargs", [{"pop_size": 2.5}, {"pop_size": True}, {"pop_size": 64.0}, {"pop_size": "64"}]
    )
    def test_sizes_must_be_integers(self, kwargs):
        with pytest.raises(TypeError, match="must be an integer"):
            GaParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"p_mutation_per_bit": -0.1}, "p_mutation_per_bit"),
            ({"p_mutation_per_bit": 1.5}, "p_mutation_per_bit"),
            ({"pop_size": 1}, "pop_size"),
            ({"p_crossover": -0.1}, "p_crossover"),
            ({"p_crossover": 1.5}, "p_crossover"),
        ],
    )
    def test_out_of_range_rejected(self, kwargs, field):
        # mutate and select_emigrant rely on these bounds and do not check them
        with pytest.raises(ValueError, match=field):
            GaParams(**kwargs)

    def test_integer_sizes_accepted(self):
        assert GaParams(pop_size=8).pop_size == 8

    def test_fields(self):
        # a tournament is binary, so no field sets its size
        assert [f.name for f in fields(GaParams)] == ["pop_size", "p_crossover", "p_mutation_per_bit"]


class TestInitPopulation:
    def test_deterministic(self):
        prob = MmdpInstance(k=2)
        a = init_population(GaParams(), prob, node_rng(5))
        b = init_population(GaParams(), prob, node_rng(5))
        assert np.array_equal(np.stack(a.rows), np.stack(b.rows))
        assert np.array_equal(a.fitness, b.fitness)

    def test_counts_pop_size_evaluations(self, counting):
        prob = counting(MmdpInstance(k=2))
        init_population(GaParams(pop_size=64), prob, node_rng(1))
        assert prob.count == 64

    def test_bit_marginals_near_half(self):
        prob = generate_ssp_instance(32, seed=1)
        pop = init_population(GaParams(pop_size=10_000), prob, node_rng(2))
        rows = np.frombuffer(b"".join(pop.rows), np.uint8).reshape(len(pop.rows), -1)
        marginals = rows.mean(axis=0)
        assert np.all(np.abs(marginals - 0.5) < 0.02)

    def test_fitness_caches_valid(self):
        prob = MmdpInstance(k=2)
        pop = init_population(GaParams(pop_size=16), prob, node_rng(3))
        for i in range(len(pop.fit)):
            assert pop.fit[i] == prob.evaluate(pop.rows[i])


class TestTournamentSelect:
    def test_uniform_population_returns_that_individual(self, rng):
        pop = Population(np.ones((4, 6), dtype=np.uint8), np.full(4, 2.5))
        i = _tournament_index(pop, rng)
        assert pop.rows[i] == bytes([1] * 6)
        assert pop.fit[i] == 2.5

    def test_tournament_holding_best_returns_best(self):
        # the fitter of the two draws wins, whichever was drawn first
        pop = make_population([1.0, 2.0, 3.0])
        for u in ([0.9, 0.1], [0.1, 0.9]):
            assert _tournament_index(pop, ScriptedRng(u)) == 2

    def test_tie_keeps_the_first_draw(self):
        pop = make_population([1.0, 2.0, 2.0])
        assert _tournament_index(pop, ScriptedRng([0.9, 0.5])) == 2
        assert _tournament_index(pop, ScriptedRng([0.5, 0.9])) == 1

    def test_binary_selection_pressure(self):
        pop = make_population([1.0, 2.0])
        rng = node_rng(11)
        wins = sum(pop.fitness[_tournament_index(pop, rng)] == 2.0 for _ in range(10_000))
        # with replacement the fitter wins 1 - (1/2)^2 = 0.75 of draws
        assert abs(wins / 10_000 - 0.75) < 0.02


class TestOnePointCrossover:
    def test_identical_parents(self, rng):
        a = bytes([1, 0, 1, 1, 0])
        child = one_point_crossover(a, bytes([1, 0, 1, 1, 0]), 1.0, rng)
        assert type(child) is bytearray and child == a

    def test_probability_zero_returns_first_parent(self, rng):
        a = np.array([1, 1, 0, 0], dtype=np.uint8)
        b = np.array([0, 0, 1, 1], dtype=np.uint8)
        child = one_point_crossover(a, b, 0.0, rng)
        assert np.array_equal(child, a)

    def test_output_is_prefix_suffix_splice(self):
        # oracle: the child must equal a[:k] + b[k:] for some k (k=L means a)
        rng = node_rng(21)
        length = 24
        for _ in range(10_000):
            a = (rng.generator.random(length) < 0.5).astype(np.uint8)
            b = (rng.generator.random(length) < 0.5).astype(np.uint8)
            child = np.frombuffer(one_point_crossover(a.tobytes(), b.tobytes(), 0.8, rng), np.uint8)
            prefix_ok = np.concatenate(([True], np.cumprod(child == a).astype(bool)))
            suffix_ok = np.concatenate(
                (np.cumprod((child == b)[::-1]).astype(bool)[::-1], [True])
            )
            assert bool(np.any(prefix_ok & suffix_ok))

    def test_returns_copy_not_view(self, rng):
        a = np.zeros(6, dtype=np.uint8)
        child = one_point_crossover(a, a, 0.0, rng)
        child[0] = 1
        assert a[0] == 0


def mutated(genome, p, rng):
    """A copy of `genome` with `mutate` applied to it."""
    child = genome.copy()
    mutate(child, p, rng)
    return child


class TestMutate:
    def test_zero_rate_is_identity(self, rng):
        g = np.array([1, 0, 1], dtype=np.uint8)
        assert np.array_equal(mutated(g, 0.0, rng), g)

    def test_rate_one_is_complement(self, rng):
        g = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(mutated(g, 1.0, rng), 1 - g)

    def test_expected_flip_count(self):
        rng = node_rng(31)
        g = np.zeros(150, dtype=np.uint8)
        flips = [int(mutated(g, 4.0 / 150, rng).sum()) for _ in range(10_000)]
        assert abs(np.mean(flips) - 4.0) < 0.1

    @pytest.mark.parametrize("length", [30, 150, 2048])
    def test_flip_distribution(self, length):
        # every bit flips on its own with probability p: the flip count is
        # Binomial(L, p) and each bit's rate is p
        p = 4.0 / length
        calls = 20_000
        rng = node_rng(37)
        g = np.zeros(length, dtype=np.uint8)
        per_bit = np.zeros(length)
        counts = np.empty(calls)
        for c in range(calls):
            child = mutated(g, p, rng)
            per_bit += child
            counts[c] = child.sum()
        assert abs(counts.mean() - length * p) <= 0.05 * length * p
        assert abs(counts.var() - length * p * (1 - p)) <= 0.05 * length * p * (1 - p)
        stderr = np.sqrt(p * (1 - p) / calls)
        assert np.all(np.abs(per_bit / calls - p) <= 5 * stderr)

    @pytest.mark.parametrize("length", [1, 30, 150, 2048, 5000])
    @pytest.mark.parametrize("rate", ["0", "5e-324", "4/L", "0.5", "1"])
    def test_flips_during_walk_what_flip_positions_returns(self, length, rate):
        """`mutate` flips, during the walk, the flip positions `perturb`
        returns at the same rate, with the same draws; rate 0 flips nothing
        and draws nothing."""
        # 5000 bits pass a 1,024-uniform block within one call
        p = min(1.0, 4.0 / length) if rate == "4/L" else float(rate)
        walker, sampler = node_rng(83), node_rng(83)
        g = node_rng(5).integers(0, 2, size=length, dtype=np.uint8)
        for _ in range(100):
            child = mutated(g, p, walker)
            expected = perturb(length, p, sampler) if p else []
            assert np.flatnonzero(child != g).tolist() == expected
            assert walker.random() == sampler.random()

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_read_only_genome_raises(self, rate):
        g = bytes(2048)  # a stored genome
        with pytest.raises(TypeError, match="does not support item assignment"):
            mutate(g, rate, node_rng(89))
        assert not any(g)

    def test_flips_in_place(self):
        g = node_rng(3).integers(0, 2, size=300, dtype=np.uint8)
        before = g.copy()
        assert mutate(g, 0.05, node_rng(41)) is None
        flipped = np.flatnonzero(g != before).tolist()
        assert flipped and flipped == perturb(300, 0.05, node_rng(41))


def gap_mutate_reference(genome, p, rng):
    """Gap-sampling mutation written as one plain loop: the reference for
    the flips `perturb` returns and `mutate` makes, and the draws they
    consume. The gap to the next flip is geometric, `int(log(1 - u) /
    log1p(-p))` for one uniform u, so a call costs about L*p + 1 draws."""
    out = genome.copy()
    if p == 1.0:
        return 1 - out
    log_q = math.log1p(-p)
    i = int(math.log(1.0 - rng.random()) / log_q)
    while i < len(out):
        out[i] ^= 1
        i += 1 + int(math.log(1.0 - rng.random()) / log_q)
    return out


class TestFlipPositions:
    """The SA's flip positions (`perturb`) against the ssGA's flips
    (`mutate`) and the plain loop."""

    @pytest.mark.parametrize("length", [30, 150, 2048])
    @pytest.mark.parametrize("rate", ["4/L", "1"])
    def test_same_flips_and_draws_as_mutate(self, length, rate):
        p = 4.0 / length if rate == "4/L" else 1.0
        sampler, mutator, reference = node_rng(53), node_rng(53), node_rng(53)
        g = np.zeros(length, dtype=np.uint8)
        for _ in range(500):
            positions = perturb(length, p, sampler)
            assert positions == np.flatnonzero(mutated(g, p, mutator)).tolist()
            assert positions == np.flatnonzero(gap_mutate_reference(g, p, reference)).tolist()
            # all three RNGs are left at the same position of the stream
            assert sampler.random() == mutator.random() == reference.random()


def reference_positions(length, p, rng):
    return np.flatnonzero(gap_mutate_reference(np.zeros(length, np.uint8), p, rng)).tolist()


def table_positions(length, p, rng):
    """The flip positions `BufferedRng.gap_positions` walks at a rate p < 1."""
    return rng.gap_positions(length, math.log1p(-p))


def buffered(seed, block):
    return BufferedRng(np.random.Generator(np.random.PCG64(seed)), block=block)


class StubGenerator:
    """Stands in for a numpy Generator: `random(size)` cycles through
    fixed uniforms."""

    def __init__(self, values):
        self.values, self.i = values, 0

    def random(self, size):
        out = [self.values[(self.i + j) % len(self.values)] for j in range(size)]
        self.i += size
        return np.array(out)


class TestGapTable:
    """`BufferedRng.gap_positions` reads the gaps from a per-block table;
    it must give the positions and leave the stream where the plain
    per-draw loop does. `perturb`, which calls it below rate 1, stands in
    where 4/L reaches rate 1."""

    @pytest.mark.parametrize("block", [7, 1024])
    @pytest.mark.parametrize("length", [1, 2, 30, 2048])
    @pytest.mark.parametrize("rate", ["1e-20", "1e-6", "4/L", "0.5", "0.999"])
    def test_same_as_reference(self, block, length, rate):
        # 4/L is capped at rate 1 for L < 4
        p = min(1.0, 4.0 / length) if rate == "4/L" else float(rate)
        table, reference = buffered(61, block), buffered(61, block)
        for call in range(300):
            assert perturb(length, p, table) == reference_positions(length, p, reference)
            # plain draws between calls come from the same stream position
            for _ in range(call % 3):
                assert table.random() == reference.random()

    @pytest.mark.parametrize("block", [7, 1024])
    def test_two_rates_alternating(self, block):
        table, reference = buffered(67, block), buffered(67, block)
        for call in range(600):
            p = 4.0 / 2048 if call % 2 else 0.05
            assert table_positions(2048, p, table) == reference_positions(2048, p, reference)
        assert table.random() == reference.random()

    def test_denormal_rate_ends_every_call(self):
        # the scalar loop's int(inf) raises OverflowError at this rate; the
        # table caps the quotient, and each call consumes its one draw
        table, stream = buffered(71, 7), buffered(71, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(100):
                assert table_positions(2048, 5e-324, table) == []
                stream.random()
                assert table.random() == stream.random()

    @pytest.mark.parametrize("toward", [0.0, -np.inf], ids=["toward_zero", "away_from_zero"])
    @pytest.mark.parametrize("p", [0.5, 0.1, 4.0 / 2048])
    def test_one_ulp_log_falls_back_to_exact_gaps(self, monkeypatch, toward, p):
        # uniforms whose quotient log(1 - u) / log1p(-p) sits on an integer,
        # where a one-ulp error in numpy's log would move the floor
        log_q = math.log1p(-p)
        uniforms = [-math.expm1(k * log_q) for k in range(1, 51)] + [0.0]
        exact_log = np.log
        monkeypatch.setattr(np, "log", lambda x: np.nextafter(exact_log(x), toward))
        table = BufferedRng(StubGenerator(uniforms), block=64)
        reference = BufferedRng(StubGenerator(uniforms), block=64)
        for _ in range(40):
            assert table_positions(600, p, table) == reference_positions(600, p, reference)
            assert table.random() == reference.random()


class TestSsgaStep:
    def test_rejection_leaves_population_unchanged(self):
        prob = MmdpInstance(k=1)
        rng = node_rng(41)
        params = GaParams(pop_size=8).resolved_for(prob.length)
        pop = init_population(params, prob, rng)
        saw_rejection = False
        for _ in range(200):
            before_g = np.stack(pop.rows)
            before_f = pop.fitness.copy()
            _offspring_step(pop, params, prob, rng)
            if np.array_equal(np.stack(pop.rows), before_g):
                # either rejected outright or an identical splice landed
                assert np.array_equal(pop.fitness, before_f)
                saw_rejection = True
        assert saw_rejection

    def test_improvement_becomes_member(self):
        prob = MmdpInstance(k=2)
        rng = node_rng(43)
        params = GaParams(pop_size=8).resolved_for(prob.length)
        pop = init_population(params, prob, rng)
        for _ in range(2_000):
            best_before = max(pop.fit)
            _offspring_step(pop, params, prob, rng)
            if max(pop.fit) > best_before:
                return  # the improving offspring is present as the new best
        pytest.fail("no improving offspring observed")

    def test_best_fitness_monotone(self):
        prob = MmdpInstance(k=3)
        rng = node_rng(47)
        params = GaParams(pop_size=16).resolved_for(prob.length)
        pop = init_population(params, prob, rng)
        best = max(pop.fit)
        for _ in range(1_000):
            _offspring_step(pop, params, prob, rng)
            now = max(pop.fit)
            assert now >= best
            best = now

    def test_exactly_one_evaluation(self, counting):
        prob = counting(MmdpInstance(k=1))
        rng = node_rng(53)
        params = GaParams(pop_size=4).resolved_for(prob.length)
        pop = init_population(params, prob, rng)
        prob.count = 0
        _offspring_step(pop, params, prob, rng)
        assert prob.count == 1

    def test_size_invariant(self):
        prob = MmdpInstance(k=1)
        rng = node_rng(59)
        params = GaParams(pop_size=8).resolved_for(prob.length)
        pop = init_population(params, prob, rng)
        for _ in range(500):
            _offspring_step(pop, params, prob, rng)
            assert len(pop.fit) == 8


class TestWorstIndexCache:
    # few distinct values, so the population is full of ties
    tied = st.sampled_from([0.0, 0.360384, 0.640576, 1.0])

    @given(
        st.lists(tied, min_size=2, max_size=12),
        st.lists(st.one_of(st.none(), tied), max_size=80),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_first_argmin_after_every_write(self, fits, ops, seed):
        # None is an offspring step, a number an immigrant of that fitness
        prob = MmdpInstance(k=1)
        params = GaParams().resolved_for(prob.length)
        pop = make_population(fits, length=prob.length)
        rng = node_rng(seed)
        assert pop.worst_index() == int(np.argmin(pop.fitness))
        for op in ops:
            if op is None:
                _offspring_step(pop, params, prob, rng)
            else:
                pop.replace_worst(bytes(prob.length), op)
            assert pop.worst_index() == int(np.argmin(pop.fitness))


class TestImmigrate:
    def test_worse_immigrant_becomes_new_worst(self):
        pop = make_population([2.0, 3.0, 4.0])
        pop.replace_worst(np.zeros(8, dtype=np.uint8), 1.0)
        assert max(pop.fit) == 4.0
        assert pop.fitness.min() == 1.0

    def test_better_immigrant_becomes_best(self):
        pop = make_population([2.0, 3.0, 4.0])
        pop.replace_worst(np.ones(8, dtype=np.uint8), 9.0)
        assert max(pop.fit) == 9.0

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=32), st.floats(0, 100))
    def test_size_conserved(self, fits, incoming_fitness):
        pop = make_population(fits)
        size = len(pop.fit)
        pop.replace_worst(np.zeros(8, dtype=np.uint8), incoming_fitness)
        assert len(pop.fit) == size

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=32), st.floats(0, 100))
    def test_best_never_decreases(self, fits, incoming_fitness):
        pop = make_population(fits)
        before = max(pop.fit)
        pop.replace_worst(np.zeros(8, dtype=np.uint8), incoming_fitness)
        assert max(pop.fit) >= before


class TestSelectEmigrant:
    """An emigrant is a member's own `bytes` row with its fitness, drawn
    with one scalar uniform."""

    def test_singleton(self, rng):
        pop = make_population([5.0])
        genome, fitness = select_emigrant(pop, rng)
        assert genome is pop.rows[0]
        assert fitness == 5.0

    def test_population_untouched(self, rng):
        pop = make_population([1.0, 2.0, 3.0])
        genomes = b"".join(pop.rows)
        genome, _ = select_emigrant(pop, rng)
        with pytest.raises(TypeError):
            genome[0] = 9  # the shared row is immutable bytes
        assert b"".join(pop.rows) == genomes

    def test_uniform_distribution(self):
        pop = make_population(list(range(64)))
        rng, twin = node_rng(61), node_rng(61)
        counts = np.zeros(64)
        for _ in range(10_000):
            genome, fitness = select_emigrant(pop, rng)
            i = int(twin.random() * 64)  # the one draw the index costs
            assert genome is pop.rows[i] and fitness == pop.fit[i]
            counts[i] += 1
        assert rng.random() == twin.random()
        assert scipy_stats.chisquare(counts).pvalue > 0.01


class TestPopulation:
    """`rows` and `fit` hold each member once: immutable `bytes` rows, which
    may be shared, and Python floats, with the worst-index cache on the
    first minimum, through every kind of write and read."""

    @pytest.mark.parametrize(
        "problem", [MmdpInstance(k=3), generate_ssp_instance(40, seed=2)], ids=["mmdp", "ssp"]
    )
    def test_invariants_after_mixed_calls(self, problem):
        params = GaParams(pop_size=12).resolved_for(problem.length)
        rng = node_rng(71)
        pop = init_population(params, problem, rng)
        donor = init_population(params, problem, node_rng(72))
        for step in range(600):
            op = step % 5
            if op == 3:
                pop.replace_worst(*select_emigrant(donor, rng))
            elif op == 4:
                genomes, fit = b"".join(pop.rows), list(pop.fit)
                genome, _ = select_emigrant(pop, rng)
                with pytest.raises(TypeError):
                    genome[0] ^= 1
                assert b"".join(pop.rows) == genomes
                assert pop.fit == fit
            else:
                _offspring_step(pop, params, problem, rng)
            assert pop.worst_index() == pop.fit.index(min(pop.fit))
            assert all(type(f) is float for f in pop.fit)
            assert len(pop.rows) == len(pop.fit)
            for row in pop.rows:
                assert type(row) is bytes and len(row) == problem.length


class TestRunPanmicticSsga:
    def test_budget_equal_to_pop_size_stops_after_init(self):
        res = panmictic("ssga", MmdpInstance(k=2), budget=64, seed=1)
        assert res.evaluations == 64
        assert res.elapsed_ms == 0.0
        assert len(res.trace) == 1

    def test_deterministic(self):
        a = panmictic("ssga", MmdpInstance(k=2), budget=20_000, seed=9)
        b = panmictic("ssga", MmdpInstance(k=2), budget=20_000, seed=9)
        assert a == b

    def test_mmdp_k2_solve_rate(self):
        solved = sum(
            panmictic("ssga", MmdpInstance(k=2), budget=100_000, seed=s).success
            for s in range(100)
        )
        assert solved >= 95

    def test_ssp_n16_solve_rate(self):
        prob = generate_ssp_instance(16, seed=11)
        solved = sum(
            panmictic("ssga", prob, budget=100_000, seed=s).success
            for s in range(100)
        )
        assert solved >= 95

    def test_trace_monotone(self):
        res = panmictic("ssga", MmdpInstance(k=3), budget=50_000, seed=77)
        times = [t for t, _ in res.trace]
        fits = [f for _, f in res.trace]
        assert times == sorted(times)
        assert fits == sorted(fits)
