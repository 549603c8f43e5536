"""The replay tier builds each trace's per-task inputs once per process.

Without a ``trace=`` override, :func:`evaluate_policy` takes the
flattened trace and the per-task ``(mnof, mtbf)`` estimates from
process-wide caches beside the evaluation-trace cache.  They must equal
what :func:`flatten_trace` and ``_estimates`` compute afresh, be
read-only (every cell over the trace shares them), go when
:func:`clear_trace_cache` drops the traces, and stay out of the way of
the uncached ``trace=`` path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import (
    _estimates,
    _estimates_cached,
    _flat_cached,
    clear_trace_cache,
    default_trace,
    evaluate_policy,
    flatten_trace,
    policy_run_spec,
)

N_JOBS, TRACE_SEED = 120, 7
KEY = (N_JOBS, TRACE_SEED, True)


def _spec(estimation="priority", length_cap=None, **kwargs):
    return policy_run_spec("young", n_jobs=N_JOBS, trace_seed=TRACE_SEED,
                           estimation=estimation, length_cap=length_cap,
                           **kwargs)


def _cache_info():
    return [c.cache_info() for c in (_flat_cached, _estimates_cached)]


def _assert_same_read_only(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[...] = 0


class TestCachedInputs:
    @pytest.mark.parametrize("estimation", ["oracle", "priority"])
    @pytest.mark.parametrize("length_cap", [None, 1000.0])
    def test_equal_to_uncached_and_read_only(self, estimation, length_cap):
        spec = _spec(estimation, length_cap)
        run = evaluate_policy(spec)
        trace = default_trace(N_JOBS, TRACE_SEED)
        fresh = flatten_trace(trace)
        cap = math.inf if length_cap is None else length_cap
        for field in dataclasses.fields(fresh):
            _assert_same_read_only(getattr(run.flat, field.name),
                                   getattr(fresh, field.name))
        for got, want in zip(_estimates_cached(*KEY, estimation, cap),
                             _estimates(fresh, trace, estimation, cap)):
            _assert_same_read_only(got, want)
        # The cached path runs exactly what the uncached one runs.
        over = evaluate_policy(spec, trace=trace)
        assert run.sim.digest() == over.sim.digest()
        assert run.job_wpr.tobytes() == over.job_wpr.tobytes()

    def test_cells_share_arrays_not_wrappers(self):
        a = evaluate_policy(_spec())
        b = evaluate_policy(_spec(failure_mode="redraw"))
        assert a.flat is not b.flat
        assert a.flat.te is b.flat.te
        a.flat.te = np.zeros(1)  # rebinding only touches a's wrapper
        assert evaluate_policy(_spec()).flat.te is b.flat.te

    def test_first_call_goes_through_module_attributes(self, monkeypatch):
        """e2ebench's tracer times ``flatten_trace`` and
        ``build_estimator`` by patching them where ``common`` binds
        them; a cold cache must call those bindings, once."""
        calls = {"flatten": 0, "estimator": 0}
        real_flatten = common.flatten_trace
        real_build = common.build_estimator

        def flatten(trace):
            calls["flatten"] += 1
            return real_flatten(trace)

        def build(trace):
            calls["estimator"] += 1
            return real_build(trace)

        monkeypatch.setattr(common, "flatten_trace", flatten)
        monkeypatch.setattr(common, "build_estimator", build)
        clear_trace_cache()
        for policy in ("optimal", "young", "none"):
            evaluate_policy(_spec().evolve(**{"policy.name": policy}))
        assert calls == {"flatten": 1, "estimator": 1}


class TestCacheLifetime:
    def test_clear_trace_cache_drops_the_derived_cache(self):
        evaluate_policy(_spec())
        assert all(info.currsize > 0 for info in _cache_info())
        clear_trace_cache()
        assert all(info.currsize == 0 for info in _cache_info())

    def test_trace_override_neither_reads_nor_fills(self):
        trace = default_trace(N_JOBS, TRACE_SEED)
        clear_trace_cache()
        evaluate_policy(_spec(), trace=trace)
        assert all(info.currsize == 0 for info in _cache_info())
        evaluate_policy(_spec())  # fill
        before = _cache_info()
        evaluate_policy(_spec(), trace=trace)
        evaluate_policy(_spec("oracle"), trace=trace)
        assert _cache_info() == before
