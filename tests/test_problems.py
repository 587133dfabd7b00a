import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrocm.problems import (
    _MMDP_SUBFUNCTION,
    MmdpInstance,
    SubsetSumInstance,
    bits,
    generate_ssp_instance,
    is_optimum,
    load_instance,
    mmdp_fitness,
    mmdp_subfunction,
    random_genome,
    save_instance,
    ssp_fitness,
    unitation,
)


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


class TestUnitation:
    def test_counts_ones(self):
        assert unitation(bits("111000")) == 3

    def test_zero(self):
        assert unitation(bits("000000")) == 0

    def test_saturated(self):
        assert unitation(bits("111111")) == 6

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            unitation(bits("11110"))


class TestMmdpSubfunction:
    def test_known_values(self):
        assert f"{mmdp_subfunction(0):.6f}" == "1.000000"
        assert f"{mmdp_subfunction(3):.6f}" == "0.640576"
        assert f"{mmdp_subfunction(2):.6f}" == "0.360384"

    @pytest.mark.parametrize("u", range(7))
    def test_symmetric(self, u):
        assert mmdp_subfunction(u) == mmdp_subfunction(6 - u)

    @pytest.mark.parametrize("u", [-1, 7])
    def test_rejects_out_of_range(self, u):
        with pytest.raises(ValueError):
            mmdp_subfunction(u)


class TestMmdpFitness:
    def test_all_ones_is_global_optimum(self):
        inst = MmdpInstance(k=25)
        assert mmdp_fitness(np.ones(150, dtype=np.uint8), inst) == 25.0

    def test_two_uniform_blocks(self):
        assert mmdp_fitness(bits("000000111111"), MmdpInstance(k=2)) == 2.0

    def test_single_block_three_ones(self):
        assert mmdp_fitness(bits("010110"), MmdpInstance(k=1)) == 0.640576

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            mmdp_fitness(bits("0101"), MmdpInstance(k=1))

    @given(st.integers(1, 8), st.data())
    def test_complement_symmetry(self, k, data):
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=6 * k, max_size=6 * k)), dtype=np.uint8)
        inst = MmdpInstance(k=k)
        assert mmdp_fitness(g, inst) == mmdp_fitness(1 - g, inst)

    @given(st.integers(1, 8), st.data())
    def test_bounds_and_optimality_condition(self, k, data):
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=6 * k, max_size=6 * k)), dtype=np.uint8)
        inst = MmdpInstance(k=k)
        f = mmdp_fitness(g, inst)
        assert 0.0 <= f <= k
        blocks_uniform = all(int(b.sum()) in (0, 6) for b in g.reshape(k, 6))
        assert (f == float(k)) == blocks_uniform


class TestFitnessBitIdentity:
    """The fitness functions must return the same doubles as the plain
    numpy expressions they replaced, or golden records would drift."""

    @pytest.mark.parametrize("k", [1, 5, 8, 9, 25])  # around numpy's 8-way pairwise sum
    @given(data=st.data())
    def test_mmdp_equals_block_sum_reference(self, k, data):
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=6 * k, max_size=6 * k)), dtype=np.uint8)
        reference = float(_MMDP_SUBFUNCTION.take(g.reshape(k, 6).sum(axis=1)).sum())
        assert mmdp_fitness(g, MmdpInstance(k=k)).hex() == reference.hex()

    @staticmethod
    def ssp_reference(g, inst):
        s = int(inst.weights @ g)  # int64 arithmetic
        c = inst.capacity
        return float(s) if s <= c else float(max(0, c - (s - c)))

    @given(st.integers(2, 300), st.integers(0, 2**31 - 1), st.data())
    def test_ssp_equals_int64_reference(self, n, seed, data):
        inst = generate_ssp_instance(n, seed)
        g = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
        assert ssp_fitness(g, inst) == self.ssp_reference(g, inst)

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
            assert ssp_fitness(g, inst) == self.ssp_reference(g, inst)
        assert over >= 50


class TestSspFitness:
    inst = SubsetSumInstance(weights=np.array([3, 5, 8, 13]), capacity=16, known_optimum=16)

    def test_oracle_confirms_feasible_maximum(self):
        assert brute_force_ssp(self.inst) == 16

    def test_exact_capacity_mask(self):
        assert ssp_fitness(bits("1001"), self.inst) == 16.0

    def test_empty_subset(self):
        assert ssp_fitness(bits("0000"), self.inst) == 0.0

    def test_over_capacity_penalty(self):
        # all four weights sum to 29; the reflected penalty gives 16-(29-16)=3
        total = int(self.inst.weights.sum())
        expected = max(0, self.inst.capacity - (total - self.inst.capacity))
        assert expected == 3
        assert ssp_fitness(bits("1111"), self.inst) == float(expected)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ssp_fitness(bits("101"), self.inst)

    def test_fitness_bounded_by_capacity_all_masks(self):
        for mask in itertools.product((0, 1), repeat=4):
            f = ssp_fitness(np.array(mask, dtype=np.uint8), self.inst)
            assert 0.0 <= f <= self.inst.capacity

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_random_small_instances_match_brute_force(self, seed):
        inst = generate_ssp_instance(10, seed)
        assert brute_force_ssp(inst) == inst.known_optimum
        rng = np.random.default_rng(seed)
        for _ in range(20):
            g = random_genome(10, rng)
            assert 0.0 <= ssp_fitness(g, inst) <= inst.capacity


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

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5\n3\n3\n1\n")
        with pytest.raises(ValueError):
            load_instance(path)
