"""Tests for the distributed-application kernels (EXP-M2)."""

from __future__ import annotations

import pytest

from repro.exp import Runner, get_experiment
from repro.harness.apps import KERNELS, run_kernel
from repro.harness.throughput import build_load_network
from repro.topology.generators import random_irregular


def small_net(routing="itb", seed=4):
    topo = random_irregular(6, seed=seed, hosts_per_switch=1)
    return build_load_network(topo, routing)


class TestRunKernel:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            run_kernel(small_net(), "game-of-life")

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_kernel_completes(self, kernel):
        res = run_kernel(small_net(), kernel, iterations=2,
                         message_size=256)
        assert res.completion_ns > 0
        assert res.messages > 0
        assert res.kernel == kernel

    def test_message_counts(self):
        net = small_net()
        n = len(net.gm_hosts)
        res = run_kernel(net, "all-to-all", iterations=2, message_size=64)
        assert res.messages == 2 * n * (n - 1)
        res_ring = run_kernel(small_net(), "ring", iterations=3,
                              message_size=64)
        assert res_ring.messages == 3 * n

    def test_deterministic(self):
        a = run_kernel(small_net(), "random-pairs", iterations=2, seed=9)
        b = run_kernel(small_net(), "random-pairs", iterations=2, seed=9)
        assert a.completion_ns == b.completion_ns

    def test_more_iterations_take_longer(self):
        short = run_kernel(small_net(), "ring", iterations=1)
        long = run_kernel(small_net(), "ring", iterations=4)
        assert long.completion_ns > short.completion_ns


class TestComparison:
    @pytest.fixture(scope="class")
    def results(self):
        spec = get_experiment("apps").default_spec().replace(
            n_switches=8, kernels=("all-to-all", "ring"), iterations=2)
        return Runner().run(spec).result.results

    def test_every_combination_present(self, results):
        combos = {(r.kernel, r.routing) for r in results}
        assert combos == {
            ("all-to-all", "updown"), ("all-to-all", "itb"),
            ("ring", "updown"), ("ring", "itb"),
        }

    def test_itb_never_catastrophically_slower(self, results):
        """ITB completion time stays within a small factor of
        up*/down* on every kernel (and typically wins on all-to-all
        as networks grow — benched in test_bench_apps.py)."""
        by = {(r.kernel, r.routing): r.completion_ns for r in results}
        for kernel in ("all-to-all", "ring"):
            ratio = by[(kernel, "itb")] / by[(kernel, "updown")]
            assert ratio < 1.25, f"{kernel}: ITB {ratio:.2f}x slower"

    def test_all_to_all_dominates_ring(self, results):
        """All-to-all moves n(n-1) messages per iteration vs n."""
        by = {(r.kernel, r.routing): r.completion_ns for r in results}
        assert by[("all-to-all", "updown")] > by[("ring", "updown")]
