"""Ablation benches for the modelling choices behind the reproduction:
the checkpoint policies and estimators of :mod:`repro.core`, the
failure calibration of :mod:`repro.failures.catalog` and the BLCR cost
model of :mod:`repro.storage` (see README, "Architecture").

These go beyond the paper's own tables: they sweep the knobs the
reproduction depends on and check the conclusions are not calibration
artifacts.

* checkpoint-cost scaling — the Theorem 1 advantage must persist when
  BLCR is faster/slower than measured;
* MNOF misprediction — Formula (3) degrades gracefully under biased
  MNOF (the asymmetry argument of §5.2);
* policy zoo — Daly's formula and the naive baselines are strictly
  dominated on the heavy-tailed workload;
* frailty spread — the Young gap grows with the tail heaviness and
  vanishes in the homogeneous-exponential limit (Corollary 1 regime).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.registry import get_experiment
from repro.core.policies import (
    OptimalCountPolicy,
    YoungPolicy,
)
from repro.experiments.common import (
    default_trace,
    evaluate_policy,
    flatten_trace,
    policy_run_spec,
)
from repro.failures.catalog import google_like_catalog
from repro.trace.sampler import failed_job_sample
from repro.trace.synthesizer import TraceConfig, synthesize_trace

N_JOBS = 2500
SEED = 2013


def _gap(trace, **kwargs) -> tuple[float, float]:
    f3 = evaluate_policy(policy_run_spec("optimal", **kwargs), trace=trace)
    yg = evaluate_policy(policy_run_spec("young", **kwargs), trace=trace)
    return f3.mean_wpr(), yg.mean_wpr()


def test_ablation_policy_zoo(benchmark):
    """Formula (3) leads the policy zoo on the replayed workload."""
    trace = default_trace(N_JOBS, SEED)

    def run():
        out = {}
        for pol in ("optimal", "young", "daly", "none"):
            run = evaluate_policy(
                policy_run_spec(pol, estimation="priority"), trace=trace
            )
            out[run.policy_name] = run.mean_wpr()
        return out

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    print("policy zoo avg WPR:", {k: round(v, 4) for k, v in scores.items()})
    assert scores["formula3"] >= max(
        scores["young"], scores["daly"], scores["none"]
    )
    assert scores["none"] < scores["formula3"] - 0.02


def test_ablation_frailty_spread(benchmark):
    """The Young gap shrinks as frailty vanishes (Corollary 1 regime)."""

    def run():
        gaps = {}
        for sigma in (0.0, 1.0):
            cat = google_like_catalog(frailty_sigma=sigma)
            cfg = TraceConfig(n_jobs=N_JOBS, resubmit_delay_log_sigma=0.1,
                              resubmit_delay_log_mean=np.log(1e-3),
                              long_task_fraction=0.0 if sigma == 0.0 else 0.12)
            trace = failed_job_sample(
                synthesize_trace(cfg, catalog=cat, seed=SEED), 0.5
            )
            f3, yg = _gap(trace, estimation="priority")
            gaps[sigma] = f3 - yg
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    print("frailty ablation gaps:", {k: round(v, 4) for k, v in gaps.items()})
    # Homogeneous exponential intervals with clean timestamps: Young is
    # near-optimal (Corollary 1), so the gap all but disappears.
    assert abs(gaps[0.0]) < 0.02
    assert gaps[1.0] > gaps[0.0]


def test_ablation_mnof_misprediction(benchmark):
    """Formula (3) degrades gracefully under a biased MNOF estimate."""
    trace = default_trace(N_JOBS, SEED)
    flat = flatten_trace(trace)

    def run():
        from repro.core.placement import select_storage_batch
        from repro.core.simulate import simulate_tasks_replay
        from repro.metrics.wpr import wpr_from_arrays

        true_mnof = flat.hist_failures.astype(float)
        out = {}
        for bias in (0.25, 0.5, 1.0, 2.0, 4.0):
            mnof = true_mnof * bias
            _, ckpt, rst = select_storage_batch(flat.te, mnof, flat.mem_mb)
            counts = OptimalCountPolicy().interval_counts(
                flat.te, ckpt, rst, mnof, np.inf
            )
            sim = simulate_tasks_replay(
                flat.te, counts, ckpt, rst, flat.hist_intervals
            )
            out[bias] = float(np.mean(
                wpr_from_arrays(flat.te, sim.wallclock, flat.job_index)
            ))
        return out

    wprs = benchmark.pedantic(run, rounds=1, iterations=1)
    print("MNOF bias ablation:", {k: round(v, 4) for k, v in wprs.items()})
    # Unbiased is best; 4x over/under costs only a few percent (the
    # sqrt in Formula (3) absorbs estimation error).
    best = wprs[1.0]
    assert best == max(wprs.values())
    assert best - min(wprs.values()) < 0.08


def test_ablation_checkpoint_cost_scaling(benchmark):
    """The ordering survives a 4x slower or faster BLCR."""
    trace = default_trace(N_JOBS, SEED)
    flat = flatten_trace(trace)

    def run():
        from repro.core.simulate import simulate_tasks_replay
        from repro.metrics.wpr import wpr_from_arrays
        from repro.storage.costmodel import checkpoint_cost_nfs, restart_cost
        from repro.trace.stats import build_estimator

        est = build_estimator(trace)
        mnof_map = est.mnof_lookup()
        mtbf_map = est.mtbf_lookup()
        mnof = np.array([mnof_map.get(int(p), 0.0) for p in flat.priority])
        mtbf = np.array([mtbf_map.get(int(p), np.inf) for p in flat.priority])
        rst = np.asarray(restart_cost(flat.mem_mb, "B"))
        out = {}
        for scale in (0.25, 1.0, 4.0):
            ckpt = scale * np.asarray(checkpoint_cost_nfs(flat.mem_mb))
            row = {}
            for pol in (OptimalCountPolicy(), YoungPolicy()):
                counts = pol.interval_counts(flat.te, ckpt, rst, mnof, mtbf)
                sim = simulate_tasks_replay(
                    flat.te, counts, ckpt, rst, flat.hist_intervals
                )
                row[pol.name] = float(np.mean(
                    wpr_from_arrays(flat.te, sim.wallclock, flat.job_index)
                ))
            out[scale] = row
        return out

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    for scale, row in table.items():
        print(f"C x{scale}: formula3={row['formula3']:.4f} "
              f"young={row['young']:.4f}")
        assert row["formula3"] > row["young"] - 1e-6


def test_ablation_host_failures(benchmark):
    """§1's reliability tradeoff: under host crashes, shared-disk
    checkpointing beats local ramdisks (whose checkpoints die with the
    host), and the gap grows with the crash rate."""
    from repro.cluster import CloudPlatform, ClusterConfig
    from repro.core.policies import FixedCountPolicy
    from repro.trace.models import Job, JobType, Task, Trace

    tasks = tuple(
        Task(task_id=k, job_id=0, index=k, te=2000.0, mem_mb=100.0,
             priority=1, interval_scale=1e9)
        for k in range(16)
    )
    trace = Trace((Job(job_id=0, job_type=JobType.BAG_OF_TASKS,
                       submit_time=0.0, tasks=tasks),))

    def run():
        out = {}
        for mtbf in (None, 8000.0, 3000.0):
            row = {}
            for storage in ("local", "dmnfs"):
                cfg = ClusterConfig(n_hosts=4, storage=storage,
                                    host_mtbf=mtbf, host_repair_time=60.0)
                res = CloudPlatform(cfg, seed=5).run_trace(
                    trace, FixedCountPolicy(10)
                )
                row[storage] = res.mean_wpr()
            out[mtbf] = row
        return out

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    for mtbf, row in table.items():
        print(f"host MTBF={mtbf}: local={row['local']:.4f} "
              f"dmnfs={row['dmnfs']:.4f}")
    # No crashes: local's cheaper checkpoints win (or tie).
    assert table[None]["local"] >= table[None]["dmnfs"] - 0.01
    # Frequent crashes: shared disk wins, and by more as MTBF shrinks.
    assert table[3000.0]["dmnfs"] > table[3000.0]["local"]
    gap_lo = table[8000.0]["dmnfs"] - table[8000.0]["local"]
    gap_hi = table[3000.0]["dmnfs"] - table[3000.0]["local"]
    assert gap_hi > gap_lo


def test_ablation_async_checkpoints(benchmark):
    """Algorithm 1 line 7: threading the checkpoint write off the
    critical path removes its wall-clock cost without losing rollback
    protection (the commit-window risk is second-order)."""
    from repro.core.simulate import (
        simulate_task,
        simulate_task_async_checkpoints,
    )
    from repro.failures.distributions import Exponential
    from repro.failures.injector import FailureInjector

    def run():
        totals = {"blocking": 0.0, "async": 0.0}
        dist = Exponential(1 / 200.0)
        for seed in range(500):
            a = simulate_task_async_checkpoints(
                600.0, 12, 1.5, 2.0,
                FailureInjector(dist, np.random.default_rng(seed)),
            )
            b = simulate_task(
                600.0, 12, 1.5, 2.0,
                FailureInjector(dist, np.random.default_rng(seed)),
            )
            totals["async"] += a.wallclock
            totals["blocking"] += b.wallclock
        return {k: v / 500 for k, v in totals.items()}

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"mean wall-clock: blocking={means['blocking']:.1f}s "
          f"async={means['async']:.1f}s "
          f"(saves {means['blocking'] - means['async']:.1f}s)")
    assert means["async"] < means["blocking"]
    # The saving is on the order of (x-1)*C = 16.5 s.
    assert 5.0 < means["blocking"] - means["async"] < 40.0


def test_ablation_gang_scaling(benchmark):
    """Future-work extension: coordinated checkpointing for MPI-style
    gangs.  Sizing intervals from the aggregate failure rate (Theorem 1
    on Σ E(Y_i)) beats the per-rank-naive plan, increasingly with the
    gang size."""
    from repro.core.gang import weak_scaling_table

    rows = benchmark.pedantic(
        lambda: weak_scaling_table(rank_counts=(1, 4, 16, 64),
                                   n_samples=120, seed=3),
        rounds=1, iterations=1,
    )
    print("ranks  x_aware  x_naive  WPR_aware  WPR_naive")
    for r in rows:
        print(f"{r.n_ranks:5d}  {r.x_gang_aware:7d}  {r.x_naive:7d}  "
              f"{r.wpr_gang_aware:9.4f}  {r.wpr_naive:9.4f}")
    by_m = {r.n_ranks: r for r in rows}
    assert abs(by_m[1].improvement) < 0.02
    assert by_m[64].improvement > 0.01
    assert by_m[64].improvement > by_m[4].improvement


def test_crossval_tiers(benchmark):
    """Quality gate: the fast tier matches the DES on identical replay."""
    rep = benchmark.pedantic(
        lambda: get_experiment("crossval")(n_jobs=300),
        rounds=1, iterations=1,
    )
    print(rep.render())
    assert rep.data["wpr_gap"] < 0.01


def test_ablation_restart_delay(benchmark):
    """Scheduling delays on restart hurt both policies but do not flip
    the ordering (the DES measures these endogenously)."""
    trace = default_trace(N_JOBS, SEED)

    def run():
        out = {}
        for delay in (0.0, 10.0, 60.0):
            f3, yg = _gap(trace, estimation="priority", restart_delay=delay)
            out[delay] = (f3, yg)
        return out

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    for delay, (f3, yg) in table.items():
        print(f"restart_delay={delay}: formula3={f3:.4f} young={yg:.4f}")
        assert f3 > yg
    # More delay, lower WPR for everyone.
    assert table[60.0][0] < table[0.0][0]
