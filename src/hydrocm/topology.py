"""Hydrocarbon-shaped migration topologies.

Nodes are atoms (carbon = fast hub with valence 4, hydrogen = slow leaf
with valence 1), bonds are communication links whose multiplicity sets
the migration batch size. Classic unidirectional rings are supported as
a separate kind that bypasses valence rules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from .ga import check_real

CARBON = "carbon"
HYDROGEN = "hydrogen"
VALENCE = {CARBON: 4, HYDROGEN: 1}

SSGA = "ssga"
SA = "sa"
ALGORITHMS = (SSGA, SA)

KIND_HYDROCARBON = "hydrocarbon"
KIND_RING = "ring"

#: Speed of the slow node class in the built-in setups and shipped files,
#: roughly the single-core gap between the fast and slow hardware tiers it
#: stands for; another speed is a topology file's `speed_factor`.
DEFAULT_SLOW_FACTOR = 0.35


class TopologyValidationError(ValueError):
    """Raised when a run is configured on an invalid topology; `violations`
    lists what `validate_topology` found."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class NodeSpec:
    id: str
    atom: str
    algorithm: str
    speed_factor: float = 1.0

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError(f"node 'id' must be a string, got {self.id!r}")
        if self.atom not in VALENCE:
            raise ValueError(f"unknown atom {self.atom!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        object.__setattr__(self, "speed_factor", check_real("speed_factor", self.speed_factor))
        if self.speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {self.speed_factor!r}")


@dataclass(frozen=True)
class BondSpec:
    """Communication link between two distinct nodes.

    For hydrocarbon topologies the pair is unordered; ring topologies
    interpret (a, b) as the direction of flow.
    """

    a: str
    b: str
    multiplicity: int = 1

    def __post_init__(self):
        for key, value in (("a", self.a), ("b", self.b)):
            if not isinstance(value, str):
                raise ValueError(f"bond endpoint {key!r} must be a string, got {value!r}")
        if self.a == self.b:
            raise ValueError(f"bond endpoints must differ, got {self.a!r} twice")
        m = self.multiplicity
        if isinstance(m, bool) or not isinstance(m, int) or m not in (1, 2, 3):
            raise ValueError(f"multiplicity must be the integer 1, 2 or 3, got {m!r}")


@dataclass(frozen=True)
class TopologySpec:
    nodes: tuple[NodeSpec, ...]
    bonds: tuple[BondSpec, ...]
    kind: str = KIND_HYDROCARBON

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        if self.kind not in (KIND_HYDROCARBON, KIND_RING):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")

    def bond_degree(self) -> dict[str, int]:
        """Total bond multiplicity per node id."""
        deg = {n.id: 0 for n in self.nodes}
        for b in self.bonds:
            if b.a in deg:
                deg[b.a] += b.multiplicity
            if b.b in deg:
                deg[b.b] += b.multiplicity
        return deg


def ethane_topology(variant: str, slow_factor: float = DEFAULT_SLOW_FACTOR) -> TopologySpec:
    """Two bonded carbon hubs, each carrying three hydrogen leaves.

    Variant "G" puts ssGA on the carbons and SA on the hydrogens;
    variant "S" swaps the assignment. Carbons run at speed 1.0,
    hydrogens at `slow_factor`.
    """
    v = variant.upper()
    if v not in ("G", "S"):
        raise ValueError(f"variant must be 'G' or 'S', got {variant!r}")
    hub_alg, leaf_alg = (SSGA, SA) if v == "G" else (SA, SSGA)
    nodes = [
        NodeSpec("C0", CARBON, hub_alg, 1.0),
        NodeSpec("C1", CARBON, hub_alg, 1.0),
    ]
    nodes += [NodeSpec(f"H{i}", HYDROGEN, leaf_alg, slow_factor) for i in range(6)]
    bonds = [BondSpec("C0", "C1")]
    bonds += [BondSpec("C0", f"H{i}") for i in range(3)]
    bonds += [BondSpec("C1", f"H{i}") for i in range(3, 6)]
    return TopologySpec(tuple(nodes), tuple(bonds), KIND_HYDROCARBON)


def panmictic_topology(algorithm: str) -> TopologySpec:
    """One carbon node at speed 1.0 with no bonds: a panmictic baseline
    running `algorithm`, one iteration per virtual tick."""
    return TopologySpec((NodeSpec("panmictic", CARBON, algorithm, 1.0),), ())


def ring_topology(n: int, fast_positions, slow_factor: float = DEFAULT_SLOW_FACTOR) -> TopologySpec:
    """Unidirectional ring of `n` ssGA islands; nodes listed in
    `fast_positions` run at speed 1.0, the rest at `slow_factor`.

    Bonds are stored in cycle order and compiled one directed channel
    each; valence rules do not apply to rings.
    """
    if n < 2:
        raise ValueError(f"ring needs at least 2 nodes, got {n}")
    fast = set(fast_positions)
    bad = [p for p in fast if not 0 <= p < n]
    if bad:
        raise ValueError(f"fast_positions out of range [0,{n}): {sorted(bad)}")
    nodes = tuple(
        NodeSpec(
            f"N{i}",
            CARBON if i in fast else HYDROGEN,
            SSGA,
            1.0 if i in fast else slow_factor,
        )
        for i in range(n)
    )
    bonds = tuple(BondSpec(f"N{i}", f"N{(i + 1) % n}") for i in range(n))
    return TopologySpec(nodes, bonds, KIND_RING)


def validate_topology(spec: TopologySpec) -> list[str]:
    """All violations, with node ids; an empty list means the spec is valid.

    Both kinds need at least one node, bonds between known nodes, no
    repeated link (an unordered pair for hydrocarbons, an ordered pair for
    rings) and a connected graph. Hydrocarbons then obey valence. Each
    ring node has exactly one outgoing and one incoming bond, which with
    connectivity makes the bonds one directed cycle over every node."""
    ring = spec.kind == KIND_RING
    violations = [] if spec.nodes else ["topology has no nodes"]
    root = {n.id: n.id for n in spec.nodes}

    def find(i: str) -> str:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    links = set()
    for b in spec.bonds:
        unknown = [e for e in (b.a, b.b) if e not in root]
        for endpoint in unknown:
            violations.append(f"bond {b.a}-{b.b} references unknown node {endpoint}")
        link = (b.a, b.b) if ring else frozenset((b.a, b.b))
        if link in links:
            violations.append(f"duplicate bond between {b.a} and {b.b}")
        links.add(link)
        if not unknown:
            root[find(b.a)] = find(b.b)
    components: dict[str, list[str]] = {}
    for i in root:
        components.setdefault(find(i), []).append(i)
    for comp in list(components.values())[1:]:
        violations.append(f"disconnected component: {sorted(comp)}")

    if ring:
        out = Counter(b.a for b in spec.bonds)
        inc = Counter(b.b for b in spec.bonds)
        for n in spec.nodes:
            if out[n.id] != 1 or inc[n.id] != 1:
                violations.append(
                    f"ring node {n.id} has {out[n.id]} outgoing and {inc[n.id]} incoming bonds, expected 1 each"
                )
        return violations
    degree = spec.bond_degree()
    for node in spec.nodes:
        d = degree[node.id]
        if node.atom == HYDROGEN and d != 1:
            violations.append(f"hydrogen {node.id} has bond multiplicity {d}, expected exactly 1")
        elif node.atom == CARBON and d > VALENCE[CARBON]:
            violations.append(f"carbon {node.id} has bond multiplicity {d}, at most 4 allowed")
    return violations


def compile_channels(spec: TopologySpec) -> tuple[tuple[str, str, int], ...]:
    """Directed migration channels of a valid spec as (src, dst,
    multiplicity) triples: two opposite channels per hydrocarbon bond, one
    per ring bond."""
    channels = []
    for b in spec.bonds:
        channels.append((b.a, b.b, b.multiplicity))
        if spec.kind != KIND_RING:
            channels.append((b.b, b.a, b.multiplicity))
    return tuple(channels)


def _check_keys(mapping, allowed: tuple[str, ...], required: tuple[str, ...], what: str) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{what} must be a mapping, got {mapping!r}")
    for key in mapping:
        if key not in allowed:
            raise ValueError(f"{what}: unknown key {key!r}")
    for key in required:
        if key not in mapping:
            raise ValueError(f"{what} missing {key!r}")


def topology_from_dict(data: dict) -> TopologySpec:
    """The spec a topology document describes. Unknown keys and values of
    the wrong type are errors; nothing is truncated or ignored."""
    _check_keys(data, ("kind", "nodes", "bonds"), ("nodes", "bonds"), "topology document")
    nodes = []
    for n in data["nodes"]:
        _check_keys(n, ("id", "atom", "algorithm", "speed_factor"), ("id",), "node")
        nodes.append(
            NodeSpec(
                id=n["id"],
                atom=n.get("atom", CARBON),
                algorithm=n.get("algorithm", SSGA),
                speed_factor=n.get("speed_factor", 1.0),
            )
        )
    bonds = []
    for b in data["bonds"]:
        _check_keys(b, ("a", "b", "multiplicity"), ("a", "b"), "bond")
        bonds.append(BondSpec(a=b["a"], b=b["b"], multiplicity=b.get("multiplicity", 1)))
    return TopologySpec(nodes, bonds, data.get("kind", KIND_HYDROCARBON))


class UniqueKeyLoader(yaml.SafeLoader):
    """`yaml.SafeLoader` that rejects a key repeated in one mapping; safe_load keeps the last."""


def _unique_key_mapping(loader, node):
    seen = set()
    for key_node, _ in node.value:
        if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
            key = loader.construct_object(key_node)
            if key in seen:
                raise yaml.MarkedYAMLError(None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
    return loader.construct_mapping(node, deep=True)


UniqueKeyLoader.add_constructor("tag:yaml.org,2002:map", _unique_key_mapping)


def save_topology(spec: TopologySpec, path) -> None:
    Path(path).write_text(yaml.safe_dump({"kind": spec.kind, **asdict(spec)}, sort_keys=False))


def read_yaml(path):
    """The YAML document at `path`; a repeated key is an error. A file that
    cannot be read or parsed raises ValueError("cannot read ...")."""
    try:
        return yaml.load(Path(path).read_text(), Loader=UniqueKeyLoader)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def load_topology(path) -> TopologySpec:
    data = read_yaml(path)
    try:
        return topology_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
