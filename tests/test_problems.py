import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrocm.ga import GaParams, init_population
from hydrocm.problems import (
    _MMDP_MILLIONTHS,
    WEIGHT_MAX,
    _block_sum,
    MmdpInstance,
    SubsetSumInstance,
    generate_ssp_instance,
    is_optimum,
    random_genome,
    save_instance,
)

from conftest import bits, load_instance


def brute_force_ssp(inst):
    """Independent oracle: exhaustive scan of every mask."""
    n = inst.length
    best = 0
    for mask in range(1 << n):
        s = 0
        for i in range(n):
            if mask >> i & 1:
                s += int(inst.weights[i])
        if s <= inst.capacity and s > best:
            best = s
    return best


genomes = st.lists(st.integers(0, 1), min_size=1, max_size=96).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


ONE_BLOCK = MmdpInstance(k=1)

#: The MMDP subfunction in integer millionths, by block unitation.
MILLIONTHS = [1_000_000, 0, 360_384, 640_576, 360_384, 0, 1_000_000]


def block(u):
    """A 6-bit genome of unitation `u`."""
    return bits("1" * u + "0" * (6 - u))


class TestUnitation:
    """The MMDP tally: each block's unitation, then the subfunction sum in
    millionths."""

    def test_counts_ones(self):
        assert ONE_BLOCK.tally(bits("111000")) == [3, 640_576]

    def test_zero(self):
        assert ONE_BLOCK.tally(bits("000000")) == [0, 1_000_000]

    def test_saturated(self):
        assert ONE_BLOCK.tally(bits("111111")) == [6, 1_000_000]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ONE_BLOCK.tally(bits("11110"))

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_rejects_a_genome_not_one_byte_per_bit(self, k):
        # right length, wrong width: eight bytes per bit
        inst = MmdpInstance(k=k)
        with pytest.raises(ValueError):
            inst.tally(np.ones(inst.length, dtype=np.int64))
        with pytest.raises(ValueError):
            inst.evaluate(np.ones(inst.length, dtype=np.int64))

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_bool_genome_tallies_as_its_uint8_copy(self, k):
        inst = MmdpInstance(k=k)
        g = np.random.default_rng(k).random(inst.length) < 0.5
        assert inst.tally(g) == inst.tally(g.astype(np.uint8))


def oracle_tally(g, k):
    """Per-block numpy sums, then the subfunction sum in millionths."""
    out = g.reshape(k, 6).sum(axis=1).tolist()
    return out + [sum(MILLIONTHS[u] for u in out)]


def assert_kernel_agrees(inst, g):
    """`tally` equals the oracle, and `evaluate`, which builds no tally,
    gives the same float as `fitness_of(tally(g))` and the oracle's sum."""
    expected = oracle_tally(g, inst.k)
    assert inst.tally(g) == expected
    assert inst.evaluate(g).hex() == inst.fitness_of(inst.tally(g)).hex() == (expected[-1] / 1e6).hex()


class TestTallyKernel:
    """`MmdpInstance` sums every block with one big-integer multiply and
    every subfunction value with two byte-table translations; both must
    agree with plain per-block sums on any layout of the genome."""

    @pytest.mark.parametrize("u", range(7))
    def test_block_sum_of_one_unitation_is_the_table_value(self, u):
        assert _block_sum(bytes([u])) == _MMDP_MILLIONTHS[u] == MILLIONTHS[u]

    @given(st.integers(1, 40), st.data())
    def test_equals_block_sums(self, k, data):
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=6 * k, max_size=6 * k)), dtype=np.uint8)
        assert_kernel_agrees(MmdpInstance(k=k), g)

    @pytest.mark.parametrize("k", [100, 1000])
    def test_equals_block_sums_at_large_k(self, k):
        inst, rng = MmdpInstance(k=k), np.random.default_rng(k)
        genomes = [np.zeros(inst.length, np.uint8), np.ones(inst.length, np.uint8)]
        genomes += [(rng.random(inst.length) < p).astype(np.uint8) for p in (0.1, 0.5, 0.9) for _ in range(10)]
        for g in genomes:
            assert_kernel_agrees(inst, g)

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_non_contiguous_view(self, k):
        inst = MmdpInstance(k=k)
        big = np.random.default_rng(k).integers(0, 2, size=2 * inst.length, dtype=np.uint8)
        g = big[::2]
        assert not g.flags.c_contiguous
        assert inst.tally(g) == oracle_tally(g, k)

    def test_read_only_population_row(self):
        inst, rng = MmdpInstance(k=25), np.random.default_rng(0)
        pop = init_population(GaParams(pop_size=4), inst, rng)
        for row, f in zip(pop.rows, pop.fit):
            assert type(row) is bytes
            with pytest.raises(TypeError):
                row[0] ^= 1
            assert inst.tally(row) == oracle_tally(np.frombuffer(row, np.uint8), 25)
            assert inst.evaluate(row) == f


class TestMmdpSubfunction:
    def test_known_values(self):
        assert f"{ONE_BLOCK.evaluate(block(0)):.6f}" == "1.000000"
        assert f"{ONE_BLOCK.evaluate(block(3)):.6f}" == "0.640576"
        assert f"{ONE_BLOCK.evaluate(block(2)):.6f}" == "0.360384"

    @pytest.mark.parametrize("u", range(7))
    def test_symmetric(self, u):
        complement = 1 - block(u)
        assert ONE_BLOCK.tally(complement) == [6 - u, MILLIONTHS[u]]
        assert ONE_BLOCK.evaluate(block(u)) == ONE_BLOCK.fitness_of(ONE_BLOCK.tally(complement))


class TestMmdpFitness:
    def test_all_ones_is_global_optimum(self):
        inst = MmdpInstance(k=25)
        assert inst.evaluate(np.ones(150, dtype=np.uint8)) == 25.0

    def test_two_uniform_blocks(self):
        assert MmdpInstance(k=2).evaluate(bits("000000111111")) == 2.0

    def test_single_block_three_ones(self):
        assert MmdpInstance(k=1).evaluate(bits("010110")) == 0.640576

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            MmdpInstance(k=1).evaluate(bits("0101"))

    def test_rejects_no_blocks(self):
        with pytest.raises(ValueError, match="k must be positive"):
            MmdpInstance(k=0)

    @given(st.integers(1, 8), st.data())
    def test_complement_symmetry(self, k, data):
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=6 * k, max_size=6 * k)), dtype=np.uint8)
        inst = MmdpInstance(k=k)
        assert inst.evaluate(g) == inst.evaluate(1 - g)

    @given(st.integers(1, 8), st.data())
    def test_bounds_and_optimality_condition(self, k, data):
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=6 * k, max_size=6 * k)), dtype=np.uint8)
        inst = MmdpInstance(k=k)
        f = inst.evaluate(g)
        assert 0.0 <= f <= k
        blocks_uniform = all(int(b.sum()) in (0, 6) for b in g.reshape(k, 6))
        assert (f == float(k)) == blocks_uniform


TALLY_PROBLEMS = {
    "mmdp1": MmdpInstance(k=1),
    "mmdp5": MmdpInstance(k=5),
    "mmdp25": MmdpInstance(k=25),
    "ssp16": generate_ssp_instance(16, seed=5),
    "ssp64": generate_ssp_instance(64, seed=7),
    "ssp2048": generate_ssp_instance(2048, seed=3),
}


def flipped(g, positions):
    out = g.copy()
    out[list(positions)] ^= 1
    return out


class TestTally:
    """The annealer scores a move as `fitness_of(flip(tally(g), g, pos))`.
    That must equal a full evaluation of the flipped genome bit for bit,
    or golden records would drift."""

    @pytest.mark.parametrize("name", sorted(TALLY_PROBLEMS))
    @given(data=st.data())
    def test_flip_matches_full_evaluation(self, name, data):
        inst = TALLY_PROBLEMS[name]
        n = inst.length
        # dense genomes put subset sums over capacity
        density = data.draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = (rng.random(n) < density).astype(np.uint8)
        positions = data.draw(
            st.one_of(
                st.sets(st.integers(0, n - 1), max_size=min(n, 12)).map(sorted),
                st.just(list(range(n))),
                # a run of neighbours: several flips in one MMDP block
                st.tuples(st.integers(0, n - 1), st.integers(2, 14)).map(
                    lambda run: list(range(run[0], min(n, run[0] + run[1])))
                ),
            )
        )
        g_before = g.copy()
        t = inst.tally(g)
        t_before = copy.copy(t)
        moved = inst.flip(t, g, positions)
        assert inst.fitness_of(moved).hex() == inst.evaluate(flipped(g, positions)).hex()
        assert inst.fitness_of(t).hex() == inst.evaluate(g).hex()
        assert inst.tally(flipped(g, positions)) == moved
        assert np.array_equal(g, g_before)
        assert t == t_before

    def test_mmdp_several_flips_in_one_block(self):
        inst = MmdpInstance(k=2)
        g = bits("110000" "111111")
        # block 0 goes 2 -> 4 ones, block 1 goes 6 -> 3
        moved = inst.flip(inst.tally(g), g, [2, 3, 6, 7, 8])
        assert moved == [4, 3, 360_384 + 640_576]
        assert inst.fitness_of(moved) == inst.evaluate(bits("111100" "000111")) == 1.00096

    @pytest.mark.parametrize("name", ["ssp16", "ssp64", "ssp2048"])
    def test_ssp_flips_across_capacity(self, name):
        # add weights in random order until the sum passes capacity; the
        # bit that crosses it, flipped both ways, scores as evaluate does
        inst = TALLY_PROBLEMS[name]
        order = np.random.default_rng(1).permutation(inst.length)
        cross = int(np.argmax(np.cumsum(inst.weights[order]) > inst.capacity))
        under = np.zeros(inst.length, np.uint8)
        under[order[:cross]] = 1
        over = flipped(under, [order[cross]])
        assert inst.tally(under) <= inst.capacity < inst.tally(over)
        for g in (under, over):
            moved = inst.flip(inst.tally(g), g, [order[cross]])
            assert inst.fitness_of(moved) == inst.evaluate(flipped(g, [order[cross]]))

    @pytest.mark.parametrize("name", sorted(TALLY_PROBLEMS))
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_tally_rejects_wrong_length(self, name, delta):
        inst = TALLY_PROBLEMS[name]
        with pytest.raises(ValueError):
            inst.tally(np.zeros(inst.length + delta, np.uint8))

    @pytest.mark.parametrize("name", sorted(TALLY_PROBLEMS))
    def test_accepted_genome_types(self, name):
        # one byte per bit in any buffer; a strided view only where bytes() copies it
        inst = TALLY_PROBLEMS[name]
        g = np.random.default_rng(inst.length).integers(0, 2, size=inst.length, dtype=np.uint8)
        mmdp = isinstance(inst, MmdpInstance)
        expected = oracle_tally(g, inst.k) if mmdp else int(inst.weights @ g)
        for genome in (g.tobytes(), bytearray(g.tobytes()), g, g.astype(bool)):
            assert inst.tally(genome) == expected
        for wrong in (g.tobytes()[:-1], g.tobytes() + b"\x01", g.astype(np.int64)):
            with pytest.raises(ValueError, match=f"genome of {memoryview(wrong).nbytes} bytes"):
                inst.tally(wrong)
        view = np.repeat(g, 2)[::2]
        if mmdp:
            assert inst.tally(view) == expected
        else:
            with pytest.raises(ValueError, match="not C-contiguous"):
                inst.tally(view)


def permuted_blocks(g, order):
    return g.reshape(-1, 6)[order].ravel()


class TestFitnessBitIdentity:
    """The fitness functions must return the same doubles as the plain
    expressions they stand for, or golden records would drift."""

    @pytest.mark.parametrize("k", [1, 5, 8, 9, 25])  # around numpy's 8-way pairwise sum
    @given(data=st.data())
    def test_mmdp_equals_block_sum_reference(self, k, data):
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=6 * k, max_size=6 * k)), dtype=np.uint8)
        reference = sum(MILLIONTHS[int(b.sum())] for b in g.reshape(k, 6)) / 1e6
        assert MmdpInstance(k=k).evaluate(g).hex() == reference.hex()

    @staticmethod
    def ssp_reference(g, inst):
        s = int(inst.weights @ g)  # int64 arithmetic
        c = inst.capacity
        return float(s) if s <= c else float(max(0, c - (s - c)))

    @given(st.integers(2, 300), st.integers(0, 2**31 - 1), st.data())
    def test_ssp_equals_int64_reference(self, n, seed, data):
        inst = generate_ssp_instance(n, seed)
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
        assert inst.evaluate(g) == self.ssp_reference(g, inst)

    @pytest.mark.parametrize(
        "inst",
        [
            generate_ssp_instance(2048, seed=7),
            # sums past 2**24, where a single-precision dot would round
            SubsetSumInstance(weights=np.full(4096, 9_999), capacity=9_999 * 2048, known_optimum=9_999 * 2048),
        ],
        ids=["n2048", "heavy"],
    )
    def test_ssp_over_capacity_at_full_scale(self, inst):
        n = inst.length
        rng = np.random.default_rng(3)
        genomes = [np.ones(n, np.uint8), np.zeros(n, np.uint8)]
        genomes += [(rng.random(n) < p).astype(np.uint8) for p in (0.3, 0.5, 0.7, 0.9) for _ in range(25)]
        over = 0
        for g in genomes:
            over += int(inst.weights @ g) > inst.capacity
            assert inst.evaluate(g) == self.ssp_reference(g, inst)
        assert over >= 50


class TestMmdpBlockOrder:
    """MMDP fitness is a sum over blocks, so it cannot depend on their
    order: two genomes of equal true fitness must compare equal, or the
    ssGA's replace test and the SA's equal moves settle ties by rounding."""

    @given(st.integers(1, 25), st.data())
    def test_block_permutation_leaves_evaluate_equal(self, k, data):
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=6 * k, max_size=6 * k)), dtype=np.uint8)
        order = data.draw(st.permutations(range(k)))
        inst = MmdpInstance(k=k)
        assert inst.evaluate(permuted_blocks(g, order)).hex() == inst.evaluate(g).hex()

    @pytest.mark.parametrize("k", [5, 12, 25])
    def test_no_permutation_changes_value_in_3000_genomes(self, k):
        inst, rng = MmdpInstance(k=k), np.random.default_rng(k)
        changed = 0
        for _ in range(3000):
            g = np.frombuffer(random_genome(inst.length, rng), np.uint8)
            changed += inst.evaluate(permuted_blocks(g, rng.permutation(k))) != inst.evaluate(g)
        assert changed == 0


class TestSspFitness:
    inst = SubsetSumInstance(weights=np.array([3, 5, 8, 13]), capacity=16, known_optimum=16)

    def test_oracle_confirms_feasible_maximum(self):
        assert brute_force_ssp(self.inst) == 16

    def test_exact_capacity_mask(self):
        assert self.inst.evaluate(bits("1001")) == 16.0

    def test_empty_subset(self):
        assert self.inst.evaluate(bits("0000")) == 0.0

    @pytest.mark.parametrize(
        "weights, capacity, known_optimum, message",
        [
            ([], 0, 0, "non-empty 1-D"),
            ([[3, 5], [8, 13]], 16, 16, "non-empty 1-D"),
            ([3, -1], 2, 2, "weights must lie in"),
            ([3, WEIGHT_MAX + 1], 3, 3, "weights must lie in"),
            ([3, 5], 9, 8, "capacity must lie in"),
            ([3, 5], -1, 0, "capacity must lie in"),
            ([3, 5], 7, 8, "known_optimum must lie in"),
            ([3, 5], 7, -1, "known_optimum must lie in"),
        ],
        ids=[
            "no-weights",
            "2-D-weights",
            "negative-weight",
            "weight-above-max",
            "capacity-above-sum",
            "negative-capacity",
            "optimum-above-capacity",
            "negative-optimum",
        ],
    )
    def test_rejects_out_of_range_instance(self, weights, capacity, known_optimum, message):
        with pytest.raises(ValueError, match=message):
            SubsetSumInstance(weights=np.array(weights, dtype=np.int64), capacity=capacity, known_optimum=known_optimum)

    def test_over_capacity_penalty(self):
        # all four weights sum to 29; the reflected penalty gives 16-(29-16)=3
        total = int(self.inst.weights.sum())
        expected = max(0, self.inst.capacity - (total - self.inst.capacity))
        assert expected == 3
        assert self.inst.evaluate(bits("1111")) == float(expected)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            self.inst.evaluate(bits("101"))

    def test_fitness_bounded_by_capacity_all_masks(self):
        for mask in itertools.product((0, 1), repeat=4):
            f = self.inst.evaluate(np.array(mask, dtype=np.uint8))
            assert 0.0 <= f <= self.inst.capacity

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_random_small_instances_match_brute_force(self, seed):
        inst = generate_ssp_instance(10, seed)
        assert brute_force_ssp(inst) == inst.known_optimum
        rng = np.random.default_rng(seed)
        for _ in range(20):
            g = random_genome(10, rng)
            assert 0.0 <= inst.evaluate(g) <= inst.capacity


class TestGenerateSspInstance:
    def test_deterministic(self):
        a = generate_ssp_instance(2048, seed=99)
        b = generate_ssp_instance(2048, seed=99)
        assert np.array_equal(a.weights, b.weights)
        assert a.capacity == b.capacity
        assert a.known_optimum == b.known_optimum

    def test_weights_clamped(self):
        inst = generate_ssp_instance(16, seed=3)
        assert (inst.weights >= 0).all() and (inst.weights <= 10_000).all()

    def test_optimum_achievable_exhaustively(self):
        inst = generate_ssp_instance(16, seed=3)
        masks = ((np.arange(1 << 16)[:, None] >> np.arange(16)) & 1).astype(np.int64)
        sums = masks @ inst.weights
        assert (sums == inst.capacity).any()

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            generate_ssp_instance(1, seed=0)

    def test_capacity_within_total(self):
        for seed in range(10):
            inst = generate_ssp_instance(32, seed)
            assert 0 <= inst.capacity <= int(inst.weights.sum())


class TestIsOptimum:
    def test_mmdp_hit(self):
        assert is_optimum(25.0, MmdpInstance(k=25))

    def test_mmdp_miss(self):
        assert not is_optimum(24.639, MmdpInstance(k=25))
        # the test is exact: one ulp below the optimum misses it
        assert not is_optimum(math.nextafter(25.0, 0.0), MmdpInstance(k=25))

    def test_ssp_exact_equality(self):
        inst = SubsetSumInstance(weights=np.array([3, 5, 8, 13]), capacity=16, known_optimum=16)
        assert is_optimum(16.0, inst)
        assert not is_optimum(15.0, inst)


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = generate_ssp_instance(32, seed=17)
        path = tmp_path / "instance.txt"
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.weights, inst.weights)
        assert back.capacity == inst.capacity
        assert back.known_optimum == inst.known_optimum

    def test_flat_layout(self, tmp_path):
        inst = SubsetSumInstance(weights=np.array([1, 2]), capacity=3, known_optimum=3)
        path = tmp_path / "instance.txt"
        save_instance(inst, path)
        assert path.read_text().splitlines() == ["2", "3", "3", "1", "2"]
