"""Smoke test of the benchmark at a small size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for a few ops, untraced and traced, and checks that
each declared metric is emitted with its unit and that every op passes
its output check.
"""

from __future__ import annotations

import pytest

import run

SMALL_OPS = {"degree": 6, "expand": 3, "verify": 3}

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = [
    "group_ring.mul.calls",
    "group_ring.mul.self_s",
    "group_ring.init.calls",
    "group_ring.apply.calls",
    "group_ring.apply.self_s",
    "polyfract.init.calls",
    "polyfract.shift_by.calls",
    "polyfract.shift_by.self_s",
    "polyfract.delta_direction.calls",
    "polyfract.delta_direction.self_s",
    "polyfract.eval.calls",
    "polyfract.eval.self_s",
    "polyfract.from_samples.calls",
    "polyfract.from_samples.self_s",
    "polyfract.binom.hit_ratio",
    "polyfract.binom.lookups",
    "polyfract.binom.cache_size",
    "polyfract.shifted_basis.hit_ratio",
    "polyfract.shifted_basis.lookups",
    "polyfract.shifted_basis.cache_size",
    "expansion.expand_word_grouped.calls",
    "expansion.expand_word_grouped.self_s",
    "expansion.expand_word_sequence.calls",
    "expansion.expand_word_sequence.self_s",
    "expansion.sequence_terms",
    "expansion.groups",
    "expansion.group_yield",
    "fdeg.fdeg_general.calls",
    "fdeg.fdeg_general.self_s",
    "fdeg.delta_calls_per_call",
    "fdeg.words_refuted",
    "fdeg.exhaustive_ratio",
    "fdeg.fdeg_standard_by_search.calls",
    "fdeg.fdeg_standard_by_search.self_s",
    "identities.verify_identity.calls",
    "identities.verify_identity.self_s",
    "identities.instances",
    "identities.instances_per_s",
    "identities.alt_sum_multivariate.calls",
    "identities.alt_sum_multivariate.self_s",
    "cli.run.calls",
    "cli.run.self_s",
    "cli.parse.self_s",
    "cli.lower.self_s",
    "trace.overhead_ratio",
] + [f"identities.suite.{name}.wall_s" for name in (
    "ring_laws", "thm_3_1_a", "thm_3_1_b", "thm_3_1_c", "thm_3_1_f", "thm_3_2", "thm_3_4",
    "thm_4_1", "thm_4_2", "thm_5_1", "thm_5_1_printed", "thm_6_4", "thm_6_5", "thm_6_7",
    "thm_6_8", "thm_6_9", "thm_7_1", "thm_7_2", "thm_7_3", "thm_7_3_uncorrected",
)]


def test_declared_metrics_cover_the_named_ones():
    assert run.declared_units(trace=0) == END_TO_END
    assert set(PER_LAYER) <= run.declared_units(trace=1).keys()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    result = run.measure(workload, seed=1, seconds=0, trace=trace, ops=SMALL_OPS[workload])
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == SMALL_OPS[workload] * (3 if trace else 1)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == run.declared_units(trace)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace and workload != "verify":
        value = {name: metric["value"] for name, metric in result["metrics"].items()}
        construct = value["polyfract.self_s"] + value["fdeg.self_s"]
        products = value["group_ring.self_s"] + value["expansion.self_s"]
        assert (construct > products) == (workload == "degree")

