"""hydrocm: hydrocarbon-shaped heterogeneous island metaheuristics.

Steady-state GA and simulated annealing islands wired by molecule-like
topologies (carbon hubs, hydrogen leaves), with asynchronous migration,
deterministic heterogeneous-speed emulation, benchmark problems, and a
statistics harness.
"""
