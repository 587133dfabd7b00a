"""hydrocm: hydrocarbon-shaped heterogeneous island metaheuristics.

Steady-state GA and simulated annealing islands wired by molecule-like
topologies (carbon hubs, hydrogen leaves), with asynchronous migration,
deterministic heterogeneous-speed emulation, benchmark problems, and a
statistics harness.
"""

from .engine import RunConfig, run_experiment
from .ga import GaParams
from .problems import MmdpInstance, SubsetSumInstance, generate_ssp_instance
from .records import RunResult
from .sa import SaParams
from .topology import TopologySpec, ethane_topology, panmictic_topology, ring_topology

__all__ = [
    "GaParams",
    "MmdpInstance",
    "RunConfig",
    "RunResult",
    "SaParams",
    "SubsetSumInstance",
    "TopologySpec",
    "ethane_topology",
    "generate_ssp_instance",
    "panmictic_topology",
    "ring_topology",
    "run_experiment",
]
