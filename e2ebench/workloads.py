"""The benchmark's four workloads, as specs generated from one seed.

A tier workload is a list of :class:`~repro.spec.RunSpec` values;
``replay-campaign`` is a list of :class:`~repro.campaign.CampaignSpec`
rounds.  The benchmark's ``--seed`` only feeds
``execution.base_seed``; the program under test receives nothing but
the specs built here.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from repro.api import scenario_spec
from repro.campaign import CampaignSpec
from repro.experiments.common import policy_run_spec

#: Share of ``--seconds`` the cold phase of a tier workload is sized
#: to; the resume phase recomputes half of the cold ops, so cold plus
#: resume is about one ``--seconds``.
COLD_SHARE = 2.0 / 3.0

#: History-trace size and seed of every ``replay-campaign`` cell.
CAMPAIGN_N_JOBS = 1000
CAMPAIGN_TRACE_SEED = 2013


@dataclass(frozen=True)
class Op:
    """One ``api.run`` call: a registered scenario plus overrides.

    ``est_s`` is the op's wall time on a 2-core x86 host at the seed
    commit; it only decides how many ops fit into ``--seconds``.
    """

    scenario: str
    overrides: dict
    est_s: float


@dataclass(frozen=True)
class Workload:
    """A named workload: its ops (or campaign) and why it exists."""

    name: str
    why: str
    ops: tuple[Op, ...] = ()
    #: the small untimed op run during set-up
    warmup: Op | None = None
    campaign: bool = False


def _vec(scenario, policy, storage, est_s, **more):
    return Op(scenario, {"execution.tier": "vector", "workload.n_tasks": 10000,
                         "policy.name": policy, "storage.mode": storage,
                         **more}, est_s)


def _scalar(scenario, policy, storage, est_s, **more):
    return Op(scenario, {"execution.tier": "scalar", "workload.n_tasks": 10000,
                         "policy.name": policy, "storage.mode": storage,
                         **more}, est_s)


def _des(scenario, est_s, **more):
    return Op(scenario, {"execution.tier": "des", **more}, est_s)


_SPREAD = "exp-per-priority-spread"
_BASE = "exp-baseline-local"

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="synthetic-build",
            why="10k-task synthetic vector/scalar ops: per-task workload "
                "resolution in build_workload dominates and the MC kernel "
                "is ~1%, so workload-build work shows and kernel work "
                "should not.",
            ops=(
                _vec(_SPREAD, "optimal", "local", 0.9),
                _vec("storage-auto-selection", "optimal", "auto", 3.5),
                _scalar(_BASE, "young", "local", 1.0),
                _vec(_SPREAD, "daly", "nfs", 1.0),
                _vec(_BASE, "fixed-interval", "local", 0.6,
                     **{"policy.param": 120.0}),
                _scalar(_SPREAD, "optimal", "nfs", 1.7),
                _vec(_SPREAD, "young", "auto", 3.5),
                _vec(_BASE, "daly", "nfs", 0.9),
                _vec(_SPREAD, "fixed-interval", "local", 0.9,
                     **{"policy.param": 300.0}),
                _scalar(_SPREAD, "daly", "local", 1.7),
            ),
            warmup=Op(_SPREAD, {"execution.tier": "vector",
                                "workload.n_tasks": 500}, 0.05),
        ),
        Workload(
            name="des-contended",
            why="DES ops that refuse to shard (shared storage, host "
                "crashes) with queues hundreds deep: the scheduler's "
                "_find_vm/_drain scans dominate, sharding is never used.",
            ops=(
                _des("storage-nfs-contended", 2.0,
                     **{"workload.n_tasks": 600}),
                _des("host-crashes-shared", 1.8,
                     **{"workload.n_tasks": 500}),
                _des("host-crashes-local-wipe", 2.0,
                     **{"workload.n_tasks": 500}),
                _des("storage-auto-selection", 3.3,
                     **{"workload.n_tasks": 600}),
                _des("storage-dmnfs", 2.3, **{"workload.n_tasks": 400}),
                _des("storage-nfs-contended", 2.0,
                     **{"workload.n_tasks": 600, "policy.name": "young"}),
            ),
            warmup=_des("storage-nfs-contended", 0.05,
                        **{"workload.n_tasks": 100}),
        ),
        Workload(
            name="des-sharded",
            why="Contention-free DES ops (local storage, no host crashes) "
                "that des.sharding splits by host group: the sim.engine "
                "event loop and executor carry the work.",
            ops=(
                _des(_BASE, 2.0, **{"workload.n_tasks": 2000}),
                _des("bursty-arrivals", 1.8, **{"workload.n_tasks": 2000}),
                _des("hetero-hosts", 2.0, **{"workload.n_tasks": 2000}),
                _des("steady-arrivals", 2.0, **{"workload.n_tasks": 2000}),
                _des("google-trace-steady", 2.3,
                     **{"workload.trace_jobs": 300}),
                _des("google-trace-bursty", 1.7,
                     **{"workload.trace_jobs": 300}),
            ),
            warmup=_des(_BASE, 0.05, **{"workload.n_tasks": 200}),
        ),
        Workload(
            name="replay-campaign",
            why="The paper's Table 6 / Fig. 9 grid as one resumable "
                "campaign on a pool: the blocked redraw kernel's straggler "
                "tail, store writes and reads, and parallel.sweep dispatch.",
            campaign=True,
        ),
    )
}


def base_seed(seed: int, index: int) -> int:
    """The ``execution.base_seed`` of op ``index`` under ``--seed``."""
    return 1000 * seed + index


def op_spec(op: Op, seed: int, index: int):
    """The spec one op runs: its scenario with the op's overrides."""
    return scenario_spec(op.scenario).evolve(
        **op.overrides, **{"execution.base_seed": base_seed(seed, index)})


def tier_specs(workload: Workload, seed: int, seconds: float) -> list:
    """The cold-phase specs of a tier workload.

    Ops are taken from the workload's list in order (cycling when the
    run is long) until their estimated time fills the cold share of
    ``seconds``; at least four ops always run.
    """
    budget = COLD_SHARE * seconds
    specs, spent = [], 0.0
    for index, op in enumerate(itertools.cycle(workload.ops)):
        if len(specs) >= 4 and spent >= budget:
            break
        specs.append(op_spec(op, seed, index))
        spent += op.est_s
    return specs


def warmup_spec(workload: Workload, seed: int):
    """The small untimed op of the set-up phase."""
    if workload.campaign:
        return _campaign_base().evolve(
            **{"execution.base_seed": base_seed(seed, 999)})
    return op_spec(workload.warmup, seed, 999)


def _campaign_base():
    return policy_run_spec("optimal", n_jobs=CAMPAIGN_N_JOBS,
                           trace_seed=CAMPAIGN_TRACE_SEED,
                           name="replay-campaign")


def campaign_workers() -> int:
    """Pool size of the campaign: at most two, never above the cores."""
    return max(1, min(2, os.cpu_count() or 1))


def campaign_rounds(seed: int, workers: int) -> list[CampaignSpec]:
    """The ``replay-campaign`` grid as four campaigns, one per (base
    seed, estimation) pair: policy x storage x failure mode = 24 cells
    each, 96 cells in all."""
    return [
        CampaignSpec(
            name=f"replay-campaign-{index}-{estimation}",
            specs=(_campaign_base(),),
            axes=(
                ("policy.name", ("optimal", "young", "daly", "none")),
                ("storage.mode", ("auto", "local", "shared")),
                ("failures.mode", ("replay", "redraw")),
            ),
            overrides=(("policy.estimation", estimation),
                       ("execution.base_seed", base_seed(seed, index))),
            workers=workers,
        )
        for index in (1, 2)
        for estimation in ("priority", "oracle")
    ]
