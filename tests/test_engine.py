import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from hydrocm import engine
from hydrocm.engine import (
    CHANNEL_CAPACITY,
    Channel,
    RunConfig,
    VirtualScheduler,
    run_experiment,
)
from hydrocm.ga import GaParams
from hydrocm.problems import MmdpInstance, generate_ssp_instance, is_optimum
from hydrocm.sa import SaParams
from hydrocm.topology import (
    BondSpec,
    NodeSpec,
    TopologySpec,
    TopologyValidationError,
    ethane_topology,
    panmictic_topology,
    ring_topology,
)

import reference


def migrant(i):
    return bytes([i]), float(i)


def pair_topology(alg_a="ssga", alg_b="sa"):
    nodes = (
        NodeSpec("C0", "carbon", alg_a, 1.0),
        NodeSpec("C1", "carbon", alg_b, 1.0),
    )
    return TopologySpec(nodes, (BondSpec("C0", "C1"),))


class TestChannel:
    """A channel is a deque of `(genome, fitness)` migrants bounded at
    CHANNEL_CAPACITY; the sender counts what it appends in `sent`."""

    def test_fifo_order(self):
        ch = Channel(1)
        for i in range(3):
            ch.append(migrant(i))
        assert [ch.popleft()[1] for _ in range(3)] == [0.0, 1.0, 2.0]

    def test_overflow_drops_oldest(self):
        ch = Channel(1)
        for i in range(CHANNEL_CAPACITY + 1):
            ch.append(migrant(i))
        ch.sent += CHANNEL_CAPACITY + 1
        assert len(ch) == CHANNEL_CAPACITY
        assert ch.sent - len(ch) == 1  # one migrant left by overflow
        assert ch[0][1] == 1.0  # migrant 0 was dropped

    def test_drain_empty_channel(self):
        ch = Channel(1)
        assert not ch
        assert list(ch) == []

    def test_drain_empties_channel(self):
        ch = Channel(1)
        ch.append(migrant(1))
        drained = []
        while ch:
            drained.append(ch.popleft())
        assert [f for _, f in drained] == [1.0]
        assert not ch and len(ch) == 0


class TestVirtualScheduler:
    def test_half_speed_node_runs_half_as_often(self):
        sched = VirtualScheduler([1.0, 0.5])
        counts = [0, 0]
        horizon = 100 * sched.scale
        for micro, idx in sched:
            if micro > horizon:
                break
            counts[idx] += 1
        assert counts == [100, 50]

    def test_equal_factors_round_robin(self):
        sched = VirtualScheduler([1.0, 1.0, 1.0])
        order = []
        for micro, idx in sched:
            order.append(idx)
            if len(order) == 9:
                break
        assert order == [0, 1, 2] * 3

    def test_heterogeneous_ratio_exact(self):
        sched = VirtualScheduler([1.0, 0.35])
        counts = [0, 0]
        horizon = 100_000 * sched.scale
        for micro, idx in sched:
            if micro > horizon:
                break
            counts[idx] += 1
        assert Fraction(counts[0], counts[1]) == 1 / Fraction("0.35")


def forbid_building_islands(monkeypatch):
    """Make any run that gets as far as building its islands fail."""

    def no_islands(config):
        raise AssertionError("islands built for a config that cannot run")

    monkeypatch.setattr(engine, "_build_islands", no_islands)


def initialization_cost(topology, ga=GaParams(), sa=SaParams()) -> int:
    config = RunConfig(topology, MmdpInstance(k=6), evaluation_budget=10**6, seed=0, ga=ga, sa=sa)
    return config.initialization_cost


class TestInitializationCost:
    def test_per_node_costs(self):
        ga, sa = GaParams(), SaParams()
        assert initialization_cost(panmictic_topology("ssga"), ga, sa) == 64
        assert initialization_cost(panmictic_topology("sa"), ga, sa) == 101
        assert initialization_cost(panmictic_topology("sa"), ga, SaParams(t0=2.0)) == 1
        assert initialization_cost(ethane_topology("G"), GaParams(pop_size=8), sa) == 2 * 8 + 6 * 101
        assert initialization_cost(ethane_topology("S"), ga, sa) == 2 * 101 + 6 * 64

    @pytest.mark.parametrize(
        "topology",
        [ethane_topology("G"), ethane_topology("S"), panmictic_topology("ssga"), panmictic_topology("sa")],
        ids=["ethane_g", "ethane_s", "panmictic_ssga", "panmictic_sa"],
    )
    def test_budget_equal_to_cost_runs_init_only(self, topology, monkeypatch):
        cost = initialization_cost(topology)
        res = run_experiment(
            RunConfig(topology=topology, problem=MmdpInstance(k=6), evaluation_budget=cost, seed=3)
        )
        assert res.evaluations == cost
        assert res.elapsed_ms == 0.0
        assert all(s.iterations == 0 for s in res.per_island.values())
        # building the config alone rejects a budget one short
        forbid_building_islands(monkeypatch)
        with pytest.raises(ValueError, match="initializing"):
            RunConfig(topology=topology, problem=MmdpInstance(k=6), evaluation_budget=cost - 1, seed=3)


class TestExactBudget:
    """An unsolved run spends its budget to the last evaluation, SA
    immigrant moves included: a drain stops where the budget does."""

    @pytest.mark.parametrize("freq", [1, 3])
    @pytest.mark.parametrize("setup", ["G", "S"])
    def test_unsolved_run_spends_exactly_its_budget(self, setup, freq, monkeypatch):
        drains = []  # (room, spent) of every migration
        migrate = engine._Island.migrate

        def recorded(island, room):
            spent = migrate(island, room)
            drains.append((room, spent))
            return spent

        monkeypatch.setattr(engine._Island, "migrate", recorded)
        unsolved = 0
        for budget in range(1_000, 1_401, 20):
            res = run_experiment(
                RunConfig(
                    topology=ethane_topology(setup),
                    problem=MmdpInstance(k=8),
                    evaluation_budget=budget,
                    seed=budget,
                    migration_frequency=freq,
                )
            )
            assert res.evaluations <= budget
            assert res.evaluations == sum(s.evaluations for s in res.per_island.values())
            if not res.success:
                unsolved += 1
                assert res.evaluations == budget
        assert unsolved > 0
        # some drain stopped at the budget, so the limit path ran
        assert any(0 < spent == room for room, spent in drains)


class TestMigrantsNeverRaiseTheBest:
    """A migrant's fitness is a full evaluation of its genome, and no more
    than the best fitness that some `initialize` or `step` has returned so
    far. The loop folds each of those into the global best, so no
    immigrant can raise it and `run_experiment` checks nothing after a
    migration."""

    # every iteration with slow nodes at a tenth of the fast ones' speed, so
    # channels overflow and drop migrants; and every third at the default speed
    @pytest.mark.parametrize("freq, slow", [(1, 0.1), (3, 0.35)])
    @pytest.mark.parametrize(
        "problem", [MmdpInstance(k=6), generate_ssp_instance(64, seed=7)], ids=["mmdp6", "ssp64"]
    )
    @pytest.mark.parametrize(
        "topology",
        [
            lambda slow: ethane_topology("G", slow),
            lambda slow: ethane_topology("S", slow),
            lambda slow: ring_topology(8, {0, 3}, slow),
        ],
        ids=["ethane_g", "ethane_s", "ring8"],
    )
    def test_migrant_within_the_running_best(self, topology, problem, freq, slow, monkeypatch):
        best = [-math.inf]  # the running max over every initialize and step
        applied = [0]

        def tracked(method, fitness):
            def wrapper(island):
                out = method(island)
                best[0] = max(best[0], fitness(out))
                return out

            return wrapper

        def checked(apply):
            def wrapper(island, msg):
                genome, fitness = msg
                assert fitness == problem.evaluate(genome)
                assert fitness <= best[0]
                applied[0] += 1
                return apply(island, msg)

            return wrapper

        for cls in (engine._GaIsland, engine._SaIsland):
            monkeypatch.setattr(cls, "initialize", tracked(cls.initialize, lambda out: out[1]))
            monkeypatch.setattr(cls, "step", tracked(cls.step, lambda out: out))
            monkeypatch.setattr(cls, "_apply_immigrant", checked(cls._apply_immigrant))
        for seed in (0, 1):
            best[0] = -math.inf
            res = run_experiment(
                RunConfig(
                    topology=topology(slow),
                    problem=problem,
                    evaluation_budget=3_000,
                    seed=seed,
                    migration_frequency=freq,
                )
            )
            assert res.best == best[0]
        assert applied[0] > 0


class TestNoMutableGenomeIsShared:
    """Every genome that two owners can hold, a population row, an SA best
    or a queued migrant, is immutable `bytes`; the only bytearray, flipped
    in place, is each SA island's current solution, which it owns alone."""

    @pytest.mark.parametrize("variant", ["G", "S"], ids=["ethane_g", "ethane_s"])
    def test_after_migrations_both_ways(self, variant):
        config = RunConfig(
            topology=ethane_topology(variant),
            problem=MmdpInstance(k=6),
            evaluation_budget=10**6,
            seed=5,
            migration_frequency=1,
        )
        islands = engine._build_islands(config)
        for island in islands:
            island.initialize()
        queued = 0
        for _ in range(300):
            for island in islands:
                island.step()
                island.migrate(config.evaluation_budget)
            for island in islands:
                if isinstance(island, engine._GaIsland):
                    assert all(type(row) is bytes for row in island.pop.rows)
                else:
                    assert type(island.state.best[0]) is bytes
                    assert type(island.state.genome) is bytearray
                for channel in island.in_channels:
                    assert all(type(genome) is bytes for genome, _ in channel)
                    queued += len(channel)
        assert queued
        received = {type(island) for island in islands if island.immigrants}
        assert received == {engine._GaIsland, engine._SaIsland}


class TestRunExperiment:
    def test_replay_determinism(self):
        config = dict(
            topology=ethane_topology("G"),
            problem=MmdpInstance(k=3),
            evaluation_budget=100_000,
        )
        a = run_experiment(RunConfig(seed=9, **config))
        b = run_experiment(RunConfig(seed=9, **config))
        assert a == b

    def test_ethane_solves_desk_mmdp(self):
        prob = MmdpInstance(k=5)
        solved = sum(
            run_experiment(
                RunConfig(
                    topology=ethane_topology("G"),
                    problem=prob,
                    evaluation_budget=500_000,
                    seed=s,
                )
            ).success
            for s in range(10)
        )
        assert solved >= 9

    def test_budget_exhaustion_flags_failure(self):
        prob = MmdpInstance(k=6)
        res = run_experiment(
            RunConfig(topology=ethane_topology("G"), problem=prob, evaluation_budget=2_000, seed=1)
        )
        assert not res.success
        assert res.evaluations <= 2_000
        assert res.best < prob.optimum

    def test_counter_conservation(self):
        res = run_experiment(
            RunConfig(
                topology=ethane_topology("S"),
                problem=MmdpInstance(k=3),
                evaluation_budget=30_000,
                seed=2,
            )
        )
        assert res.evaluations == sum(s.evaluations for s in res.per_island.values())

    def test_all_islands_advance(self):
        res = run_experiment(
            RunConfig(
                topology=ethane_topology("G"),
                problem=MmdpInstance(k=6),
                evaluation_budget=20_000,
                seed=3,
            )
        )
        assert all(s.iterations > 0 for s in res.per_island.values())

    def test_migration_happens(self):
        res = run_experiment(
            RunConfig(
                topology=pair_topology(),
                problem=MmdpInstance(k=6),
                evaluation_budget=20_000,
                seed=4,
            )
        )
        assert all(s.emigrants_sent > 0 for s in res.per_island.values())
        assert all(s.immigrants_received > 0 for s in res.per_island.values())

    def test_trace_monotone_and_consistent(self):
        res = run_experiment(
            RunConfig(
                topology=ring_topology(4, {0}),
                problem=MmdpInstance(k=4),
                evaluation_budget=50_000,
                seed=7,
            )
        )
        times = [t for t, _ in res.trace]
        fits = [f for _, f in res.trace]
        assert times == sorted(times)
        assert fits == sorted(fits)
        assert res.best == fits[-1]
        assert res.success == is_optimum(res.best, MmdpInstance(k=4))

    def test_success_stops_all_islands(self):
        res = run_experiment(
            RunConfig(
                topology=ethane_topology("G"),
                problem=MmdpInstance(k=1),
                evaluation_budget=1_000_000,
                seed=8,
            )
        )
        assert res.success
        assert res.evaluations < 1_000_000
        # seed 0 solves while initializing: the nodes after the solving one
        # never initialize and count nothing, and every count is derived at
        # the end of the run from what each node did
        for setup, init_evaluations in (("G", {"C0": 64}), ("S", {"C0": 101, "C1": 101, "H0": 64})):
            res = run_experiment(
                RunConfig(
                    topology=ethane_topology(setup),
                    problem=MmdpInstance(k=1),
                    evaluation_budget=1_000_000,
                    seed=0,
                )
            )
            assert res.success and res.elapsed_ms == 0.0 and res.trace == [(0.0, 1.0)]
            got = {node: dataclasses.astuple(s) for node, s in res.per_island.items()}
            assert got == {node: (init_evaluations.get(node, 0), 0, 0, 0, 0) for node in got}
            assert res.evaluations == sum(init_evaluations.values())

    def test_invalid_topology_rejected(self, monkeypatch):
        bad = TopologySpec(
            (NodeSpec("H0", "hydrogen", "sa"), NodeSpec("H1", "hydrogen", "sa")), ()
        )
        forbid_building_islands(monkeypatch)
        with pytest.raises(TopologyValidationError):
            RunConfig(topology=bad, problem=MmdpInstance(k=1), evaluation_budget=100, seed=0)

    def test_empty_topology_rejected_before_any_step(self, monkeypatch):
        # the islands and the scheduler assume at least one node
        forbid_building_islands(monkeypatch)
        with pytest.raises(TopologyValidationError, match="topology has no nodes"):
            RunConfig(topology=TopologySpec((), ()), problem=MmdpInstance(k=1), evaluation_budget=100, seed=0)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(
                topology=ethane_topology("G"),
                problem=MmdpInstance(k=1),
                evaluation_budget=0,
                seed=0,
            )

    @pytest.mark.parametrize("field", ["migration_frequency"])
    def test_migration_setting_below_one_rejected(self, field):
        # the CLI rejects it under its own field name, so no config file reaches this check
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            RunConfig(ethane_topology("G"), MmdpInstance(k=1), 1_000, 0, **{field: 0})

    def test_init_only_budget(self):
        res = run_experiment(
            RunConfig(
                topology=panmictic_topology("ssga"),
                problem=MmdpInstance(k=4),
                evaluation_budget=64,
                seed=10,
            )
        )
        assert res.evaluations == 64
        assert res.elapsed_ms == 0.0

    def test_speed_factors_shape_iteration_counts(self):
        res = run_experiment(
            RunConfig(
                topology=ethane_topology("G"),
                problem=MmdpInstance(k=6),
                evaluation_budget=30_000,
                seed=11,
            )
        )
        fast = res.per_island["C0"].iterations
        slow = res.per_island["H0"].iterations
        assert slow < fast
        # slow nodes run at 0.35x the fast clock; allow one-iteration edges
        assert abs(slow - 0.35 * fast) <= 1 + 0.35

    def test_multiplicity_sets_migration_batch(self):
        """Every migration sends as many emigrants down each of a node's
        channels as the channel's bond has multiplicity."""
        nodes = (
            NodeSpec("C0", "carbon", "ssga", 1.0),
            NodeSpec("C1", "carbon", "ssga", 1.0),
            NodeSpec("H0", "hydrogen", "sa", 0.35),
            NodeSpec("H1", "hydrogen", "sa", 0.35),
            NodeSpec("H2", "hydrogen", "sa", 0.35),
            NodeSpec("H3", "hydrogen", "sa", 0.35),
        )
        bonds = (
            BondSpec("C0", "C1", multiplicity=2),
            BondSpec("C0", "H0"),
            BondSpec("C0", "H1"),
            BondSpec("C1", "H2"),
            BondSpec("C1", "H3"),
        )
        spec = TopologySpec(nodes, bonds)
        degree = spec.bond_degree()
        for freq in (50, 7):
            res = run_experiment(
                RunConfig(
                    topology=spec,
                    problem=MmdpInstance(k=25),
                    evaluation_budget=20_000,
                    seed=12,
                    migration_frequency=freq,
                )
            )
            assert not res.success
            for node_id, stats in res.per_island.items():
                assert stats.emigrants_sent == (stats.iterations // freq) * degree[node_id]


class TestMigrationCounters:
    """Every node's counters on small runs whose channels overflow or whose
    SA drain halts at the budget, pinned to the values of
    `tests/reference.py`. A channel overflows when its receiver drains it
    less than once per 8 migrations of its sender: here the slow nodes run
    at a tenth of the fast ones' speed. `messages_dropped` is derived from
    the channels at the end of a run, so these pins are what guard it.
    Stats tuples are (evaluations, iterations, emigrants_sent,
    immigrants_received, messages_dropped)."""

    CASES = {
        # topology, MMDP k, budget, migration_frequency, seed
        "ethane_g-overflow": (lambda: ethane_topology("G", 0.1), 6, 3_000, 3, 1),
        # an SA hub halts a drain with 3 evaluations of room left
        "ethane_s-overflow-halt": (lambda: ethane_topology("S", 0.1), 6, 2_980, 1, 2),
        "ring8-overflow": (lambda: ring_topology(8, {0, 4}, 0.1), 6, 3_000, 1, 3),
        # an SA leaf halts a drain with 3 evaluations of room left
        "ethane_g-halt": (lambda: ethane_topology("G"), 8, 1_040, 1, 1_040),
    }
    EXPECTED = {
        "ethane_g-overflow": {
            "C0": (604, 540, 720, 230, 0),
            "C1": (604, 540, 720, 231, 0),
            **{f"H{i}": (299, 54, 18, 144, 36) for i in range(5)},
            "H5": (297, 54, 18, 142, 36),
        },
        "ethane_s-overflow-halt": {
            "C0": (1160, 461, 1844, 598, 0),
            "C1": (1160, 461, 1844, 598, 0),
            **{f"H{i}": (110, 46, 46, 368, 92) for i in range(6)},
        },
        "ring8-overflow": {
            **{f"N{i}": (159, 95, 95, 95, 0) for i in range(8)},
            "N0": (1023, 959, 959, 95, 0),
            "N4": (1023, 959, 959, 95, 0),
            "N1": (159, 95, 95, 760, 191),
            "N5": (159, 95, 95, 760, 191),
        },
        "ethane_g-halt": {
            "C0": (95, 31, 124, 60, 0),
            "C1": (95, 31, 124, 61, 0),
            **{f"H{i}": (143, 11, 11, 31, 0) for i in range(4)},
            "H4": (139, 10, 10, 28, 0),
            "H5": (139, 10, 10, 28, 0),
        },
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_per_node_counters(self, case):
        topology, k, budget, freq, seed = self.CASES[case]
        config = RunConfig(
            topology=topology(),
            problem=MmdpInstance(k=k),
            evaluation_budget=budget,
            seed=seed,
            migration_frequency=freq,
        )
        res = run_experiment(config)
        assert not res.success and res.evaluations == budget
        got = {
            node: (s.evaluations, s.iterations, s.emigrants_sent, s.immigrants_received, s.messages_dropped)
            for node, s in res.per_island.items()
        }
        assert got == self.EXPECTED[case]
        assert got == {node: tuple(s.values()) for node, s in reference.run(config)["per_island"].items()}
        assert any(s.messages_dropped for s in res.per_island.values()) == ("overflow" in case)
        stats = res.per_island.values()
        received = sum(s.immigrants_received for s in stats)
        dropped = sum(s.messages_dropped for s in stats)
        assert received + dropped <= sum(s.emigrants_sent for s in stats)
