import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hydrocm.engine import RunConfig
from hydrocm.problems import MmdpInstance
from hydrocm.topology import (
    BondSpec,
    NodeSpec,
    TopologySpec,
    TopologyValidationError,
    compile_channels,
    ethane_topology,
    load_topology,
    ring_topology,
    save_topology,
    validate_topology,
)

from conftest import random_hydrocarbon


def methane():
    nodes = [NodeSpec("C0", "carbon", "ssga", 1.0)]
    nodes += [NodeSpec(f"H{i}", "hydrogen", "sa", 0.35) for i in range(4)]
    bonds = [BondSpec("C0", f"H{i}") for i in range(4)]
    return TopologySpec(tuple(nodes), tuple(bonds))


class TestEthane:
    def test_structure(self):
        spec = ethane_topology("G")
        assert len(spec.nodes) == 8
        assert len(spec.bonds) == 7
        degree = spec.bond_degree()
        assert degree["C0"] == 4 and degree["C1"] == 4
        assert all(degree[f"H{i}"] == 1 for i in range(6))

    def test_variant_g_assignment(self):
        spec = ethane_topology("G")
        assert {n.algorithm for n in spec.nodes if n.atom == "carbon"} == {"ssga"}
        assert {n.algorithm for n in spec.nodes if n.atom == "hydrogen"} == {"sa"}

    def test_variant_s_swaps_algorithms(self):
        g = ethane_topology("G")
        s = ethane_topology("S")
        assert [frozenset((b.a, b.b)) for b in g.bonds] == [frozenset((b.a, b.b)) for b in s.bonds]
        assert {n.algorithm for n in s.nodes if n.atom == "carbon"} == {"sa"}
        assert {n.algorithm for n in s.nodes if n.atom == "hydrogen"} == {"ssga"}

    def test_speed_classes(self):
        spec = ethane_topology("G", slow_factor=0.5)
        assert all(n.speed_factor == 1.0 for n in spec.nodes if n.atom == "carbon")
        assert all(n.speed_factor == 0.5 for n in spec.nodes if n.atom == "hydrogen")

    def test_validates(self):
        assert validate_topology(ethane_topology("G")) == []
        assert validate_topology(ethane_topology("S")) == []

    def test_pure_constructor(self):
        assert ethane_topology("G") == ethane_topology("G")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ethane_topology("X")


class TestRing:
    def test_structure(self):
        spec = ring_topology(8, {0, 3})
        channels = compile_channels(spec)
        assert len(spec.nodes) == 8
        assert len(channels) == 8
        assert sorted(src for src, _, _ in channels) == sorted(n.id for n in spec.nodes)

    def test_fast_positions(self):
        spec = ring_topology(8, {0, 3})
        speeds = [n.speed_factor for n in spec.nodes]
        assert speeds[0] == 1.0 and speeds[3] == 1.0
        assert all(s < 1.0 for i, s in enumerate(speeds) if i not in (0, 3))

    def test_two_node_ring(self):
        channels = compile_channels(ring_topology(2, {0}))
        pairs = {(src, dst) for src, dst, _ in channels}
        assert pairs == {("N0", "N1"), ("N1", "N0")}

    def test_all_nodes_reachable_within_n_minus_1_hops(self):
        spec = ring_topology(8, {0, 3})
        succ = {src: dst for src, dst, _ in compile_channels(spec)}
        reached = {"N0": 0}
        cursor = "N0"
        for hop in range(1, len(spec.nodes)):
            cursor = succ[cursor]
            reached.setdefault(cursor, hop)
        assert set(reached) == {n.id for n in spec.nodes}
        assert max(reached.values()) == len(spec.nodes) - 1

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            ring_topology(4, {0, 4})

    def test_rejects_tiny_ring(self):
        with pytest.raises(ValueError):
            ring_topology(1, set())

    def test_ring_passes_kind_aware_validation(self):
        assert validate_topology(ring_topology(5, {0})) == []


class TestValidateHydrocarbon:
    def test_methane_valid(self):
        assert validate_topology(methane()) == []

    def test_pentavalent_carbon(self):
        nodes = [NodeSpec("C0", "carbon", "ssga")]
        nodes += [NodeSpec(f"H{i}", "hydrogen", "sa") for i in range(5)]
        bonds = [BondSpec("C0", f"H{i}") for i in range(5)]
        violations = validate_topology(TopologySpec(tuple(nodes), tuple(bonds)))
        assert len(violations) == 1
        assert "C0" in violations[0]

    def test_lonely_hydrogen(self):
        spec = TopologySpec(
            (NodeSpec("C0", "carbon", "ssga"), NodeSpec("H0", "hydrogen", "sa")), ()
        )
        violations = validate_topology(spec)
        assert any("H0" in v for v in violations)

    def test_disconnected_molecules(self):
        a = ethane_topology("G")
        renamed = tuple(
            NodeSpec(n.id + "x", n.atom, n.algorithm, n.speed_factor) for n in a.nodes
        )
        rebonds = tuple(BondSpec(b.a + "x", b.b + "x", b.multiplicity) for b in a.bonds)
        combined = TopologySpec(a.nodes + renamed, a.bonds + rebonds)
        violations = validate_topology(combined)
        assert any("disconnected" in v for v in violations)

    def test_duplicate_bond(self):
        nodes = (
            NodeSpec("C0", "carbon", "ssga"),
            NodeSpec("C1", "carbon", "ssga"),
            NodeSpec("H0", "hydrogen", "sa"),
            NodeSpec("H1", "hydrogen", "sa"),
        )
        bonds = (
            BondSpec("C0", "C1"),
            BondSpec("C1", "C0"),
            BondSpec("C0", "H0"),
            BondSpec("C1", "H1"),
        )
        violations = validate_topology(TopologySpec(nodes, bonds))
        assert any("duplicate" in v for v in violations)

    def test_unknown_endpoint(self):
        spec = TopologySpec((NodeSpec("C0", "carbon", "ssga"),), (BondSpec("C0", "Z9"),))
        violations = validate_topology(spec)
        assert any("Z9" in v for v in violations)


def ring_reference(spec):
    """One cycle over all nodes: every node has exactly one known successor,
    and the walk from the first node meets each node once and comes back."""
    ids = [n.id for n in spec.nodes]
    succ = {b.a: b.b for b in spec.bonds}
    if not ids or len(spec.bonds) != len(ids) or set(succ) != set(ids) or not set(succ.values()) <= set(ids):
        return False
    walk, cursor = [], ids[0]
    for _ in ids:
        walk.append(cursor)
        cursor = succ[cursor]
    return cursor == ids[0] and sorted(walk) == sorted(ids)


def hydrocarbon_reference(spec):
    """Known endpoints, no repeated unordered pair, valence, and one
    breadth-first component over all nodes."""
    ids = [n.id for n in spec.nodes]
    if not ids or any(e not in ids for b in spec.bonds for e in (b.a, b.b)):
        return False
    if len({frozenset((b.a, b.b)) for b in spec.bonds}) != len(spec.bonds):
        return False
    degree = Counter()
    for b in spec.bonds:
        degree[b.a] += b.multiplicity
        degree[b.b] += b.multiplicity
    for n in spec.nodes:
        if (n.atom == "hydrogen" and degree[n.id] != 1) or (n.atom == "carbon" and degree[n.id] > 4):
            return False
    reached, frontier = {ids[0]}, [ids[0]]
    while frontier:
        here = frontier.pop(0)
        for b in spec.bonds:
            if here in (b.a, b.b):
                there = b.b if here == b.a else b.a
                if there not in reached:
                    reached.add(there)
                    frontier.append(there)
    return len(reached) == len(ids)


def random_spec(r, kind):
    """A small node and bond set: often a cycle (ring) or a tree
    (hydrocarbon), sometimes split, cut, doubled or pointed at an unknown
    node, otherwise random bonds."""
    ids = [f"N{i}" for i in range(r.randint(0, 6))]
    order = r.sample(ids, len(ids))
    if ids and r.random() < 0.6:
        if kind == "ring":
            cut = r.randint(1, len(order)) if r.random() < 0.3 else len(order)
            cycles = [c for c in (order[:cut], order[cut:]) if len(c) > 1]
            pairs = [(c[j - 1], c[j]) for c in cycles for j in range(len(c))]
        else:
            pairs = [(order[r.randrange(j)], order[j]) for j in range(1, len(order))]
    else:
        pairs = [(r.choice(ids + ["X"]), r.choice(ids + ["Y"])) for _ in range(r.randint(0, 2 * len(ids)))]
    if pairs and r.random() < 0.2:
        pairs.pop(r.randrange(len(pairs)))
    if pairs and r.random() < 0.2:
        a, b = r.choice(pairs)
        pairs.append(r.choice([(a, b), (b, a)]))
    if ids and r.random() < 0.05:
        pairs.append((r.choice(ids), "Z"))
    bonds = tuple(BondSpec(a, b, r.choice((1, 1, 1, 2, 3))) for a, b in pairs if a != b)
    degree = Counter()
    for b in bonds:
        degree[b.a] += b.multiplicity
        degree[b.b] += b.multiplicity
    atoms = {i: "hydrogen" if degree[i] == 1 and r.random() < 0.9 else "carbon" for i in ids}
    return TopologySpec(tuple(NodeSpec(i, atoms[i], "ssga") for i in ids), bonds, kind)


class TestValidatorMatchesReference:
    @pytest.mark.parametrize("kind, reference", [("ring", ring_reference), ("hydrocarbon", hydrocarbon_reference)])
    def test_same_verdict_on_random_specs(self, kind, reference):
        r = random.Random(15)
        verdicts = Counter()
        for _ in range(10_000):
            spec = random_spec(r, kind)
            valid = reference(spec)
            assert (validate_topology(spec) == []) == valid, spec
            verdicts[valid] += 1
        assert min(verdicts[True], verdicts[False]) > 1_000, verdicts


class TestCompileChannels:
    def test_ethane_channel_count(self):
        channels = compile_channels(ethane_topology("G"))
        assert len(channels) == 14
        assert all(multiplicity == 1 for _, _, multiplicity in channels)

    def test_double_bond_batch(self):
        nodes = (
            NodeSpec("C0", "carbon", "ssga"),
            NodeSpec("C1", "carbon", "sa"),
            NodeSpec("H0", "hydrogen", "sa"),
            NodeSpec("H1", "hydrogen", "sa"),
            NodeSpec("H2", "hydrogen", "sa"),
            NodeSpec("H3", "hydrogen", "sa"),
        )
        bonds = (
            BondSpec("C0", "C1", multiplicity=2),
            BondSpec("C0", "H0"),
            BondSpec("C0", "H1"),
            BondSpec("C1", "H2"),
            BondSpec("C1", "H3"),
        )
        doubles = [c for c in compile_channels(TopologySpec(nodes, bonds)) if c[2] == 2]
        assert {(src, dst) for src, dst, _ in doubles} == {("C0", "C1"), ("C1", "C0")}

    def test_ring_is_unidirectional(self):
        channels = compile_channels(ring_topology(8, {0, 3}))
        assert len(channels) == 8
        pairs = {(src, dst) for src, dst, _ in channels}
        assert all((dst, src) not in pairs for src, dst in pairs)

    def test_invalid_spec_raises_with_violations(self):
        spec = TopologySpec(
            (NodeSpec("H0", "hydrogen", "sa"), NodeSpec("H1", "hydrogen", "sa")), ()
        )
        with pytest.raises(TopologyValidationError) as err:
            RunConfig(topology=spec, problem=MmdpInstance(k=1), evaluation_budget=1_000, seed=0)
        assert err.value.violations

    def test_symmetric_channels_for_hydrocarbons(self):
        table = {(src, dst): multiplicity for src, dst, multiplicity in compile_channels(ethane_topology("S"))}
        for (src, dst), batch in table.items():
            assert table[(dst, src)] == batch


class TestRandomHydrocarbon:
    @given(st.integers(0, 10_000))
    def test_always_valid(self, seed):
        spec = random_hydrocarbon(np.random.default_rng(seed))
        assert validate_topology(spec) == []

    @given(st.integers(0, 10_000))
    def test_handshake_lemma(self, seed):
        spec = random_hydrocarbon(np.random.default_rng(seed), max_carbons=8)
        total_degree = sum(spec.bond_degree().values())
        assert total_degree == 2 * sum(b.multiplicity for b in spec.bonds)


class TestTopologyIO:
    def test_round_trip(self, tmp_path):
        spec = ethane_topology("G")
        path = tmp_path / "ethane.topology"
        save_topology(spec, path)
        assert load_topology(path) == spec

    def test_ring_round_trip(self, tmp_path):
        spec = ring_topology(5, {0, 2})
        path = tmp_path / "ring.topology"
        save_topology(spec, path)
        back = load_topology(path)
        assert back == spec
        assert back.kind == "ring"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.topology"
        path.write_text("nodes: [")
        with pytest.raises(ValueError):
            load_topology(path)

    def test_rejects_missing_sections(self, tmp_path):
        path = tmp_path / "empty.topology"
        path.write_text("nodes: []\n")
        with pytest.raises(ValueError):
            load_topology(path)
