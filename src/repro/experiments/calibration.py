"""Calibration experiments: Fig. 7 and Tables 2–5.

These reproduce the paper's BLCR cost characterization from our encoded
cost models: checkpoint cost linearity (Fig. 7), simultaneous-
checkpoint contention on local ramdisk vs NFS (Table 2), the DM-NFS
collision simulation (Table 3), single checkpoint operation times
(Table 4) and restart costs per migration type (Table 5).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import ExperimentReport, register
from repro.experiments.reporting import render_table
from repro.storage.costmodel import (
    CHECKPOINT_OP_TABLE,
    LOCAL_CONTENTION_AVG,
    NFS_CONTENTION_AVG,
    checkpoint_cost_local,
    checkpoint_cost_nfs,
    checkpoint_op_time,
    contention_factor_nfs,
    restart_cost,
)
from repro.storage.devices import DMNFS

__all__ = ["fig7", "table2", "table3", "table4", "table5"]

#: Memory sizes measured in the paper's Fig. 7 / Table 5, MB.
MEM_SIZES = (10.0, 20.0, 40.0, 80.0, 160.0, 240.0)


@register("fig7")
def fig7() -> ExperimentReport:
    """Fig. 7: total checkpoint cost vs number of checkpoints per device."""
    rows = []
    series: dict[str, list[float]] = {}
    for mem in MEM_SIZES:
        local = [n * checkpoint_cost_local(mem) for n in range(1, 6)]
        nfs = [n * checkpoint_cost_nfs(mem) for n in range(1, 6)]
        series[f"local_{int(mem)}MB"] = local
        series[f"nfs_{int(mem)}MB"] = nfs
        rows.append([f"{int(mem)} MB"] + local + nfs)
    headers = (
        ["memsize"]
        + [f"local n={n}" for n in range(1, 6)]
        + [f"NFS n={n}" for n in range(1, 6)]
    )
    text = render_table(headers, rows, title="Checkpointing cost (seconds)")
    return ExperimentReport(
        exp_id="fig7",
        title="Checkpointing Cost based on BLCR (local ramdisk vs NFS)",
        text=text,
        data={
            "series": series,
            "local_range": (checkpoint_cost_local(10.0), checkpoint_cost_local(240.0)),
            "nfs_range": (checkpoint_cost_nfs(10.0), checkpoint_cost_nfs(240.0)),
        },
        notes=[
            "paper: per-checkpoint cost spans [0.016, 0.99] s locally and "
            "[0.25, 2.52] s over NFS for 10-240 MB; total cost linear in "
            "the number of checkpoints",
        ],
    )


@register("tab2")
def table2(mem_mb: float = 160.0) -> ExperimentReport:
    """Table 2: cost of simultaneous checkpointing, local vs plain NFS."""
    degrees = list(range(1, 6))
    local_cost = [checkpoint_cost_local(mem_mb) for _ in degrees]
    nfs_cost = [
        checkpoint_cost_nfs(mem_mb) * contention_factor_nfs(x) for x in degrees
    ]
    rows = [
        ["local ramdisk (model)"] + local_cost,
        ["local ramdisk (paper avg)"] + list(LOCAL_CONTENTION_AVG),
        ["NFS (model)"] + nfs_cost,
        ["NFS (paper avg)"] + list(NFS_CONTENTION_AVG),
    ]
    headers = ["type"] + [f"X={x}" for x in degrees]
    text = render_table(
        headers, rows,
        title=f"Simultaneous checkpointing cost, mem={mem_mb:.0f} MB (seconds)",
    )
    return ExperimentReport(
        exp_id="tab2",
        title="Cost of Simultaneous Checkpointing on Local Ramdisk and NFS",
        text=text,
        data={
            "degrees": degrees,
            "local": local_cost,
            "nfs": nfs_cost,
            "nfs_slope": float(np.polyfit(degrees, nfs_cost, 1)[0]),
        },
        notes=[
            "local cost is flat in the parallel degree; NFS cost grows "
            "roughly linearly (server congestion), matching the paper's "
            "measurements",
        ],
    )


@register("tab3")
def table3(
    mem_mb: float = 160.0,
    n_servers: int = 32,
    n_trials: int = 1000,
    seed: int = 42,
) -> ExperimentReport:
    """Table 3: DM-NFS keeps simultaneous checkpointing cheap.

    Monte-Carlo over random server choices: for each parallel degree X,
    X writers each pick one of ``n_servers`` NFS servers; a writer's
    cost reflects how many peers collided onto its server.
    """
    rng = np.random.default_rng(seed)
    degrees = list(range(1, 6))
    single = checkpoint_cost_nfs(mem_mb)
    rows = []
    stats: dict[int, dict[str, float]] = {}
    for x in degrees:
        costs = []
        for _ in range(n_trials):
            dmnfs = DMNFS(n_servers, rng)
            admissions = [dmnfs.begin_checkpoint(single) for _ in range(x)]
            costs.extend(c for c, _ in admissions)
            for c, tok in admissions:
                dmnfs.end_checkpoint(tok)
        arr = np.asarray(costs)
        stats[x] = {
            "min": float(arr.min()),
            "avg": float(arr.mean()),
            "max": float(arr.max()),
        }
    rows = [
        ["min"] + [stats[x]["min"] for x in degrees],
        ["avg"] + [stats[x]["avg"] for x in degrees],
        ["max"] + [stats[x]["max"] for x in degrees],
    ]
    headers = ["DM-NFS"] + [f"X={x}" for x in degrees]
    text = render_table(
        headers, rows,
        title=f"DM-NFS simultaneous checkpointing, mem={mem_mb:.0f} MB, "
              f"{n_servers} servers (seconds)",
    )
    return ExperimentReport(
        exp_id="tab3",
        title="Cost of Simultaneously Checkpointing Tasks on DM-NFS",
        text=text,
        data={"stats": stats},
        notes=[
            "paper: DM-NFS average stays within 2 s at every parallel "
            "degree (vs ~9 s for plain NFS at X=5)",
        ],
    )


@register("tab4")
def table4() -> ExperimentReport:
    """Table 4: time cost of a single checkpoint operation (shared disk)."""
    rows = [
        [f"{m:g} MB", t, checkpoint_op_time(m)]
        for m, t in CHECKPOINT_OP_TABLE
    ]
    text = render_table(
        ["memory size", "paper (s)", "model (s)"], rows,
        title="Single checkpoint operation time over shared disk",
    )
    model = {m: checkpoint_op_time(m) for m, _ in CHECKPOINT_OP_TABLE}
    return ExperimentReport(
        exp_id="tab4",
        title="Time Cost of a Checkpoint",
        text=text,
        data={"model": model, "paper": dict(CHECKPOINT_OP_TABLE)},
        notes=["model interpolates the paper's measurements exactly at knots"],
    )


@register("tab5")
def table5() -> ExperimentReport:
    """Table 5: task restart cost per migration type."""
    rows_a = ["migration type A"] + [restart_cost(m, "A") for m in MEM_SIZES]
    rows_b = ["migration type B"] + [restart_cost(m, "B") for m in MEM_SIZES]
    headers = ["type"] + [f"{int(m)} MB" for m in MEM_SIZES]
    text = render_table(
        headers, [rows_a, rows_b],
        title="Task restarting cost based on BLCR over VM ramdisk (seconds)",
    )
    return ExperimentReport(
        exp_id="tab5",
        title="Task Restarting Cost (migration type A vs B)",
        text=text,
        data={
            "A": {m: restart_cost(m, "A") for m in MEM_SIZES},
            "B": {m: restart_cost(m, "B") for m in MEM_SIZES},
        },
        notes=[
            "type A (local checkpoints) restarts cost more than type B "
            "(shared-disk checkpoints) at every memory size",
        ],
    )
