"""Span arithmetic, metric derivation and wrapping of the layer tracer."""
import math

import pytest

from tinlink import cli, constellations, linksim, rates, scheme

import layers

# A synthetic run: (name, entry, start, end, parent); spans 3 and 5 spend
# 0.5 s in the wrapper's bookkeeping before they start
TREE = [
    ("cli.main", 0.0, 0.0, 10.0, -1),                       # 0
    ("constellations.superimpose", 1.0, 1.0, 4.0, 0),       # 1
    ("constellations.build_rect_qam", 2.0, 2.0, 3.0, 1),    # 2
    ("rates.estimate_mi_dispersion", 4.5, 5.0, 9.0, 0),     # 3
    ("rates.qfunc_inv", 5.0, 5.0, 6.0, 3),                  # 4
    ("rates.qfunc_inv", 6.0, 6.5, 8.0, 3),                  # 5
]


def synthetic_tracer(tree=TREE):
    tracer = layers.Tracer()
    for name, entry, start, end, parent in tree:
        if name not in tracer.names:
            tracer.names.append(name)
        tracer.name_id.append(tracer.names.index(name))
        tracer.entry.append(entry)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.run.append(0)
    return tracer


def test_self_time_subtracts_children_from_their_entry():
    t = synthetic_tracer()
    selfs = layers.self_times(t.entry, t.start, t.end, t.parent)
    # root: 10 - 3 - (9 - 4.5); superimpose: 3 - 1; estimate: 4 - 1 - (8 - 6)
    assert selfs == pytest.approx([2.5, 2.0, 1.0, 1.0, 1.0, 1.5])


def test_group_counts_outermost_calls_only():
    t = synthetic_tracer()
    names = t.span_names()
    selfs = layers.self_times(t.entry, t.start, t.end, t.parent)
    calls, total, self_s = layers.group_stats(
        names, t.start, t.end, t.parent, selfs, layers.GROUPS["constellations"])
    assert (calls, total, self_s) == pytest.approx((1, 3.0, 3.0))


def test_layer_metrics_per_invocation():
    t = synthetic_tracer()
    t.counters["rates.kernel_pair_evals"] = 800.0
    t.counters["rates.stat_lookups"] = 4.0
    m = layers.layer_metrics(t, n_runs=2)
    assert m["cli.self_s"] == pytest.approx(1.25)
    assert m["rates.estimate.calls"] == 0.5
    assert m["rates.estimate.s"] == pytest.approx(2.0)
    assert m["rates.qfunc_inv.calls"] == 1.0
    assert m["rates.qfunc_inv.s"] == pytest.approx(2.5 / 2)
    assert m["rates.kernel_pair_evals"] == 400.0
    assert m["rates.kernel_pair_evals_per_s"] == pytest.approx(800.0 / 4.0)
    assert m["rates.stats_cache_hit_ratio"] == pytest.approx(1 - 1 / 4)
    assert m["linksim.frame_reuse_ratio"] == 0.0


MODULES = {"cli": cli, "scheme": scheme, "rates": rates, "linksim": linksim,
           "constellations": constellations}


def test_install_wraps_aliases_and_uninstall_restores():
    before = {(n, a): v for n, m in MODULES.items() for a, v in vars(m).items()}
    tracer = layers.Tracer()
    tracer.install(MODULES)
    try:
        assert scheme.build_rect_qam.__wrapped__ is before[
            ("constellations", "build_rect_qam")]
        spec = scheme.SystemSpec.create(1.0, [
            scheme.UserSpec(16, 1e-6, math.sqrt(10 ** 1.8)),
            scheme.UserSpec(24, 1e-4, math.sqrt(10 ** 0.5))])
        scheme.assign_power([[2], [4, 4]], spec)
    finally:
        tracer.uninstall()
    after = {(n, a): v for n, m in MODULES.items() for a, v in vars(m).items()}
    assert after == before
    names = tracer.span_names()
    assert names[0] == "scheme.assign_power"
    # constellations built inside assign_power, through scheme's own imports
    assert "constellations.build_rect_qam" in names
    assert all(p == 0 for n, p in zip(names, tracer.parent)
               if n == "constellations.superimpose")


def test_counters_come_from_call_arguments():
    tracer = layers.Tracer()
    tracer.install(MODULES)
    try:
        qpsk = constellations.build_gray_qam(2).points
        rates.estimate_mi_dispersion(qpsk, [qpsk], 2.0, 1000, 0)
    finally:
        tracer.uninstall()
    assert all(e <= s for e, s in zip(tracer.entry, tracer.start))
    # (|x_num|^2 + |x_den|^2) x samples with |x_num| = 16, |x_den| = 4
    assert tracer.counters["rates.kernel_pair_evals"] == (16 ** 2 + 4 ** 2) * 1000
