"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
live). Budgets and tolerances are fixed here, not calibrated elsewhere.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import yaml

from hydrocm.cli import main as cli_main
from hydrocm.engine import VirtualScheduler
from hydrocm.ga import GaParams, _offspring_step, init_population
from hydrocm.problems import MmdpInstance, generate_ssp_instance
from hydrocm.sa import SaParams, accept, init_sa_state, inject_immigrant, sa_step, update_temperature
from hydrocm.stats import mann_whitney_u, speedup

from conftest import bits, node_rng, random_hydrocarbon
from effort_cells import CRITERION_3_CELLS, effort
from test_stats import mann_whitney_oracle


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_1_mmdp_table_fidelity():
    expected = ["1.000000", "0.000000", "0.360384", "0.640576", "0.360384", "0.000000", "1.000000"]
    block = MmdpInstance(k=1)
    table_ok = all(f"{block.evaluate(bits('1' * u + '0' * (6 - u))):.6f}" == expected[u] for u in range(7))
    optimum_ok = MmdpInstance(k=25).evaluate(np.ones(150, dtype=np.uint8)) == 25.0
    report(1, "mmdp table fidelity", table_ok and optimum_ok)


def test_criterion_2_speedup_reproduction():
    # published mean times (ms): single-processor vs 8-node heterogeneous
    cells = [
        (15995, 5318, 3.00),  # subset sum rows
        (17817, 7155, 2.49),
        (18137, 7453, 2.43),
        (41943, 9195, 4.56),  # mmdp rows
        (20627, 3052, 6.76),
        (21227, 3194, 6.64),
    ]
    errors = [abs(speedup([seq], [par]) - published) for seq, par, published in cells]
    report(2, "speedup arithmetic reproduction", max(errors) <= 0.01, f"max error {max(errors):.4f}")


def test_criterion_3_desk_scale_solve_rates():
    # seeds 1000-1099, budgets 500k (MMDP k=5) and 100k (SSP n=16, instance
    # seed 11); the runs are shared with the random-stream gate
    outcomes = {cell: sum(success for _, success in effort(cell)) for cell in CRITERION_3_CELLS}
    ok = all(v >= 95 for v in outcomes.values())
    detail = ", ".join(f"{k}={v}/100" for k, v in outcomes.items())
    report(3, "desk-scale solve rates", ok, detail)


def test_criterion_4_ssp_oracle_equivalence():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(20):
        n = int(rng.integers(8, 17))
        inst = generate_ssp_instance(n, seed=int(rng.integers(0, 2**31)))
        masks = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.int64)
        sums = masks @ inst.weights
        achievable = bool((sums == inst.known_optimum).any())
        fitness = np.where(
            sums <= inst.capacity, sums, np.maximum(0, inst.capacity - (sums - inst.capacity))
        )
        spot_checks = all(
            inst.evaluate(masks[i].astype(np.uint8)) == float(fitness[i])
            for i in rng.integers(0, 1 << n, size=50)
        )
        bounded = bool((fitness <= inst.capacity).all())
        maximal = int(fitness.max()) == inst.known_optimum
        ok = ok and achievable and bounded and maximal and spot_checks
    report(4, "ssp exhaustive oracle equivalence", ok)


def test_criterion_5_mann_whitney_exactness():
    rng = np.random.default_rng(505)
    size_pairs = list(itertools.product(range(1, 7), repeat=2))
    datasets = []
    for n_a, n_b in size_pairs:  # every size pair at least once
        datasets.append((n_a, n_b))
    while len(datasets) < 200:
        datasets.append((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
    ok = True
    for n_a, n_b in datasets:
        pool = rng.permutation(10_000)[: n_a + n_b].astype(float)  # distinct => no ties
        xs, ys = list(pool[:n_a]), list(pool[n_a:])
        u, p, method = mann_whitney_u(xs, ys)
        u_oracle, p_oracle = mann_whitney_oracle(xs, ys)
        u_swap, p_swap, _ = mann_whitney_u(ys, xs)
        ok = ok and method == "exact" and u == u_oracle and p == p_oracle
        ok = ok and u_swap == n_a * n_b - u and p_swap == p
    report(5, "mann-whitney exact p bit-for-bit vs oracle", ok, f"{len(datasets)} datasets")


def _random_cli_config(rng):
    problems = [
        {"kind": "mmdp", "k": int(rng.integers(1, 4))},
        {"kind": "ssp", "n": int(rng.integers(8, 17)), "seed": int(rng.integers(0, 1000))},
    ]
    setups = [
        {"kind": "ethane_g"},
        {"kind": "ethane_s"},
        {"kind": "ring", "n": int(rng.integers(3, 9)), "fast_positions": [0]},
        {"kind": "panmictic_ssga"},
        {"kind": "panmictic_sa"},
    ]
    return {
        "problem": problems[int(rng.integers(0, len(problems)))],
        "setup": setups[int(rng.integers(0, len(setups)))],
        "repetitions": int(rng.integers(2, 4)),
        "budget": int(rng.integers(2_000, 8_000)),
        "mode": "virtual",
        "master_seed": int(rng.integers(0, 10_000)),
    }


def test_criterion_6_determinism_replay(tmp_path):
    rng = np.random.default_rng(606)
    ok = True
    for i in range(10):
        cfg_path = tmp_path / f"cfg{i}.yaml"
        cfg_path.write_text(yaml.safe_dump(_random_cli_config(rng)))
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        same = (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        for trace in sorted((out_a / "traces").iterdir()):
            same = same and trace.read_bytes() == (out_b / "traces" / trace.name).read_bytes()
        ok = ok and same
    report(6, "virtual-time replay byte-identical", ok, "10 random configs")


def test_criterion_7_invariant_suite(capsys):
    checks = {}

    # island best monotone under steady-state steps with immigration mixed in
    prob = MmdpInstance(k=3)
    rng = node_rng(71)
    params = GaParams(pop_size=16).resolved_for(prob.length)
    pop = init_population(params, prob, rng)
    best = max(pop.fit)
    monotone = True
    sizes_ok = True
    for step in range(2_000):
        if step % 37 == 0:
            genome = (rng.generator.random(prob.length) < 0.5).astype(np.uint8)
            pop.replace_worst(genome, prob.evaluate(genome))
        else:
            _offspring_step(pop, params, prob, rng)
        monotone = monotone and max(pop.fit) >= best
        sizes_ok = sizes_ok and len(pop.fit) == 16
        best = max(pop.fit)
    checks["ga best monotone"] = monotone
    checks["population size conserved"] = sizes_ok

    # SA best-so-far monotone under steps and immigrant injections
    sa_params = SaParams().resolved_for(prob.length)
    state = init_sa_state(sa_params, prob, rng)
    best = state.best[1]
    monotone = True
    for step in range(2_000):
        if step % 37 == 0:
            genome = (rng.generator.random(prob.length) < 0.5).astype(np.uint8)
            inject_immigrant(state, genome, prob, rng)
        else:
            sa_step(state, sa_params, prob, rng)
        monotone = monotone and state.best[1] >= best
        best = state.best[1]
    checks["sa best monotone"] = monotone

    # temperature positive and non-increasing at two cooling rates
    temp_ok = True
    for sched in (SaParams(schedule_rate=0.9), SaParams(schedule_rate=50.0)):
        prev = math.inf
        for k in range(1_000):
            t = update_temperature(7.5, k, sched)
            temp_ok = temp_ok and 0.0 < t <= prev
            prev = t
    checks["temperature monotone"] = temp_ok

    # Boltzmann acceptance frequencies at fixed delta/T ratios
    boltzmann_ok = True
    for ratio in (0.5, 1.0, 2.0):
        hits = sum(accept(1.0, 1.0 - ratio, 1.0, rng) for _ in range(10_000))
        boltzmann_ok = boltzmann_ok and abs(hits / 10_000 - math.exp(-ratio)) <= 0.02
    checks["boltzmann acceptance"] = boltzmann_ok

    # handshake lemma over random valid hydrocarbons
    gen = np.random.default_rng(77)
    handshake_ok = True
    for _ in range(100):
        spec = random_hydrocarbon(gen, max_carbons=8)
        total_degree = sum(spec.bond_degree().values())
        handshake_ok = handshake_ok and total_degree == 2 * sum(b.multiplicity for b in spec.bonds)
    checks["valence handshake"] = handshake_ok

    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items())
    report(7, "invariant suite", ok, detail)


def test_criterion_8_heterogeneity_emulation():
    sched = VirtualScheduler([1.0, 0.35])
    horizon = 100_000 * sched.scale
    counts = [0, 0]
    for micro, idx in sched:
        if micro > horizon:
            break
        counts[idx] += 1
    exact = Fraction(counts[0], counts[1]) == 1 / Fraction("0.35")
    report(
        8,
        "heterogeneous scheduler exact ratio",
        exact and counts == [100_000, 35_000],
        f"counts={counts}",
    )
