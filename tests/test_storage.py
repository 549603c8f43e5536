"""Unit tests for the BLCR-calibrated storage cost models and devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.blcr import BLCRModel, MigrationType
from repro.storage.costmodel import (
    CHECKPOINT_OP_TABLE,
    LOCAL_COST_RANGE,
    NFS_CONTENTION_AVG,
    NFS_COST_RANGE,
    checkpoint_cost_local,
    checkpoint_cost_nfs,
    checkpoint_op_time,
    contention_factor_nfs,
    dmnfs_cost,
    restart_cost,
)
from repro.storage.devices import DMNFS, LocalRamdisk, NFSServer


class TestCheckpointCosts:
    def test_fig7_endpoints(self):
        assert checkpoint_cost_local(10.0) == pytest.approx(LOCAL_COST_RANGE[0])
        assert checkpoint_cost_local(240.0) == pytest.approx(LOCAL_COST_RANGE[1])
        assert checkpoint_cost_nfs(10.0) == pytest.approx(NFS_COST_RANGE[0])
        assert checkpoint_cost_nfs(240.0) == pytest.approx(NFS_COST_RANGE[1])

    def test_linear_in_memory(self):
        mid = checkpoint_cost_local(125.0)
        assert mid == pytest.approx(
            (checkpoint_cost_local(10.0) + checkpoint_cost_local(240.0)) / 2
        )

    def test_nfs_always_pricier_than_local(self):
        for mem in (10, 50, 100, 240, 500):
            assert checkpoint_cost_nfs(mem) > checkpoint_cost_local(mem)

    def test_extrapolation_has_floor(self):
        assert checkpoint_cost_local(1.0) >= 1e-3

    def test_vectorized(self):
        mems = np.array([10.0, 240.0])
        np.testing.assert_allclose(
            checkpoint_cost_local(mems), list(LOCAL_COST_RANGE)
        )

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            checkpoint_cost_local(0.0)
        with pytest.raises(ValueError):
            checkpoint_cost_nfs(-5.0)


class TestCheckpointOpTime:
    def test_exact_at_knots(self):
        for mem, t in CHECKPOINT_OP_TABLE:
            assert checkpoint_op_time(mem) == pytest.approx(t)

    def test_monotone_overall(self):
        mems = np.linspace(10.3, 240.0, 50)
        vals = [checkpoint_op_time(m) for m in mems]
        # Table 4 is monotone; interpolation must preserve that.
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_extrapolates_beyond_range(self):
        assert checkpoint_op_time(300.0) > checkpoint_op_time(240.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            checkpoint_op_time(0.0)


class TestRestartCost:
    def test_table5_exact(self):
        paper_a = {10: 0.71, 20: 0.84, 40: 1.23, 80: 1.87, 160: 3.22, 240: 5.69}
        paper_b = {10: 0.37, 20: 0.49, 40: 0.54, 80: 0.86, 160: 1.45, 240: 2.40}
        for mem, val in paper_a.items():
            assert restart_cost(mem, "A") == pytest.approx(val)
        for mem, val in paper_b.items():
            assert restart_cost(mem, "B") == pytest.approx(val)

    def test_type_a_pricier_than_b(self):
        for mem in (10, 60, 160, 240, 400):
            assert restart_cost(mem, "A") > restart_cost(mem, "B")

    def test_case_insensitive(self):
        assert restart_cost(160, "a") == restart_cost(160, "A")

    def test_invalid_type(self):
        with pytest.raises(ValueError):
            restart_cost(100, "C")

    def test_vectorized(self):
        out = restart_cost(np.array([10.0, 240.0]), "A")
        np.testing.assert_allclose(out, [0.71, 5.69])


class TestContention:
    def test_degree_one_is_unity(self):
        assert contention_factor_nfs(1) == pytest.approx(1.0)

    def test_matches_table2_ratios(self):
        base = NFS_CONTENTION_AVG[0]
        for x in range(1, 6):
            assert contention_factor_nfs(x) == pytest.approx(
                NFS_CONTENTION_AVG[x - 1] / base
            )

    def test_monotone_beyond_measured_range(self):
        assert contention_factor_nfs(8) > contention_factor_nfs(5)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            contention_factor_nfs(0)

    def test_trend_matches_polyfit_bit_for_bit(self):
        xs = np.arange(1, len(NFS_CONTENTION_AVG) + 1, dtype=float)
        ys = np.asarray(NFS_CONTENTION_AVG)
        base = NFS_CONTENTION_AVG[0]
        for d in range(1, 65):
            if d <= len(ys):
                want = NFS_CONTENTION_AVG[d - 1] / base
            else:
                slope = float(np.polyfit(xs, ys, 1)[0])
                want = (ys[-1] + slope * (d - len(ys))) / base
            assert contention_factor_nfs(d) == want

    def test_dmnfs_cost_single_writer(self):
        assert dmnfs_cost(160.0, 1) == pytest.approx(checkpoint_cost_nfs(160.0))


class TestDevices:
    def test_local_ramdisk_flat_pricing(self):
        d = LocalRamdisk()
        c1, t1 = d.begin_checkpoint(checkpoint_cost_local(160.0))
        c2, t2 = d.begin_checkpoint(checkpoint_cost_local(160.0))
        assert c1 == c2 == checkpoint_cost_local(160.0)  # no contention
        assert d.in_flight == 2
        d.end_checkpoint(t1)
        d.end_checkpoint(t2)
        assert d.in_flight == 0

    def test_local_unbalanced_end_raises(self):
        d = LocalRamdisk()
        with pytest.raises(RuntimeError):
            d.end_checkpoint(d)

    def test_nfs_contention_pricing(self):
        d = NFSServer()
        c1, t1 = d.begin_checkpoint(checkpoint_cost_nfs(160.0))
        c2, t2 = d.begin_checkpoint(checkpoint_cost_nfs(160.0))
        assert c2 > c1  # second concurrent writer pays more
        d.end_checkpoint(t1)
        d.end_checkpoint(t2)
        c3, t3 = d.begin_checkpoint(checkpoint_cost_nfs(160.0))
        assert c3 == pytest.approx(c1)  # back to single-writer price
        d.end_checkpoint(t3)
        assert d.peak_parallel == 2

    def test_dmnfs_spreads_load(self, rng):
        d = DMNFS(32, rng)
        single = checkpoint_cost_nfs(160.0)
        admissions = [d.begin_checkpoint(single) for _ in range(5)]
        costs = [c for c, _ in admissions]
        # With 32 servers and 5 writers, most writers pay the
        # single-writer price.
        assert np.median(costs) == pytest.approx(single)
        assert d.in_flight == 5
        for c, tok in admissions:
            d.end_checkpoint(tok)
        assert d.in_flight == 0

    def test_dmnfs_single_server_degrades_to_nfs(self, rng):
        d = DMNFS(1, rng)
        c1, t1 = d.begin_checkpoint(checkpoint_cost_nfs(160.0))
        c2, t2 = d.begin_checkpoint(checkpoint_cost_nfs(160.0))
        assert c2 > c1
        d.end_checkpoint(t1)
        d.end_checkpoint(t2)

    def test_dmnfs_validation(self, rng):
        with pytest.raises(ValueError):
            DMNFS(0, rng)
        d = DMNFS(2, rng)
        with pytest.raises(TypeError):
            d.end_checkpoint("bogus")

    def test_migration_types(self):
        assert LocalRamdisk().migration_type == "A"
        assert NFSServer().migration_type == "B"
        assert DMNFS(2).migration_type == "B"


class TestBLCRModel:
    def test_costs_match_tables(self):
        m = BLCRModel(mem_mb=160.0)
        assert m.checkpoint_cost_local == pytest.approx(checkpoint_cost_local(160.0))
        assert m.checkpoint_cost_shared == pytest.approx(checkpoint_cost_nfs(160.0))
        assert m.restart_cost_local == pytest.approx(3.22)
        assert m.restart_cost_shared == pytest.approx(1.45)
        assert m.operation_time == pytest.approx(checkpoint_op_time(160.0))

    def test_enum_accessors(self):
        m = BLCRModel(mem_mb=100.0)
        assert m.checkpoint_cost(MigrationType.A) == m.checkpoint_cost_local
        assert m.checkpoint_cost("B") == m.checkpoint_cost_shared
        assert m.restart_cost("A") == m.restart_cost_local
        assert m.restart_cost(MigrationType.B) == m.restart_cost_shared

    def test_scales(self):
        base = BLCRModel(mem_mb=100.0)
        scaled = BLCRModel(mem_mb=100.0, shared_scale=2.0)
        assert scaled.checkpoint_cost_shared == pytest.approx(
            2 * base.checkpoint_cost_shared
        )
        assert scaled.checkpoint_cost_local == base.checkpoint_cost_local

    def test_validation(self):
        with pytest.raises(ValueError):
            BLCRModel(mem_mb=0.0)
        with pytest.raises(ValueError):
            BLCRModel(mem_mb=1.0, local_scale=0.0)
