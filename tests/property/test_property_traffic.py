"""Property-based tests for the traffic and wireless substrates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.livelab import AppSession, LiveLabSynthesizer
from repro.traffic.packets import Packet, PacketTrace
from repro.wireless.fluid import FluidLTECell, FluidWiFiCell, OfferedFlow, _waterfill
from repro.wireless.phy import lte_cqi_for_snr, wifi_rate_for_snr
from tests.wireless.waterfill_reference import bisection_waterfill

demands = st.lists(st.floats(1e3, 1e8), min_size=1, max_size=12)
snrs = st.floats(-10.0, 60.0)


@st.composite
def waterfill_instances(draw):
    """(demands, costs, budget): up to 40 flows, demands drawn from a
    few shared values (ties) or freely, unit or per-bit airtime costs,
    budget a fraction of the total that may exceed it."""
    n = draw(st.integers(1, 40))
    shared = draw(st.lists(st.floats(1e4, 1e8), min_size=1, max_size=3))
    ds = draw(
        st.lists(st.sampled_from(shared) | st.floats(1e4, 1e8), min_size=n, max_size=n)
    )
    if draw(st.booleans()):
        costs = [1.0] * n
    else:
        costs = draw(st.lists(st.floats(1e-9, 1e-6), min_size=n, max_size=n))
    total = sum(d * c for d, c in zip(ds, costs))
    return ds, costs, total * draw(st.floats(1e-3, 1.2))


class TestWaterfillProperties:
    @given(demands, st.floats(0.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_demand_or_budget(self, ds, budget):
        costs = [1.0 / 30e6] * len(ds)
        alloc = _waterfill(ds, costs, budget)
        for x, d in zip(alloc, ds):
            assert 0.0 <= x <= d * (1 + 1e-9)
        used = sum(x * c for x, c in zip(alloc, costs))
        assert used <= budget * (1 + 1e-6)

    @given(demands)
    @settings(max_examples=60, deadline=None)
    def test_big_budget_satisfies_everyone(self, ds):
        costs = [1.0 / 30e6] * len(ds)
        alloc = _waterfill(ds, costs, budget=1e9)
        assert alloc == ds

    @given(demands, st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_throughput_fairness(self, ds, budget):
        # Squeezed flows all sit at the common water level.
        costs = [1.0] * len(ds)
        alloc = _waterfill(ds, costs, budget)
        squeezed = [x for x, d in zip(alloc, ds) if x < d * (1 - 1e-6)]
        if len(squeezed) >= 2:
            assert max(squeezed) - min(squeezed) < 1e-3 * max(squeezed)


    @given(waterfill_instances())
    @settings(max_examples=100, deadline=None)
    def test_matches_bisection_reference(self, instance):
        ds, costs, budget = instance
        alloc = _waterfill(ds, costs, budget)
        ref = bisection_waterfill(ds, costs, budget)
        for x, r in zip(alloc, ref):
            assert abs(x - r) <= 1e-11 * r

    @given(waterfill_instances())
    @settings(max_examples=100, deadline=None)
    def test_squeezed_allocation_spends_the_budget(self, instance):
        ds, costs, budget = instance
        alloc = _waterfill(ds, costs, budget)
        if all(x == d for x, d in zip(alloc, ds)):
            return  # the budget covers every demand
        used = sum(x * c for x, c in zip(alloc, costs))
        assert abs(used - budget) <= 1e-12 * budget


class TestFluidCellProperties:
    @given(st.lists(st.tuples(st.floats(1e5, 3e7), snrs), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_wifi_qos_always_valid(self, specs):
        cell = FluidWiFiCell(capacity_cap_bps=20e6)
        flows = [OfferedFlow(i, "web", d, s) for i, (d, s) in enumerate(specs)]
        for qos in cell.allocate(flows).values():
            assert qos.throughput_bps >= 0
            assert qos.delay_s > 0
            assert 0.0 <= qos.loss_rate <= 1.0

    @given(st.lists(st.tuples(st.floats(1e5, 3e7), snrs), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_lte_qos_always_valid(self, specs):
        cell = FluidLTECell()
        flows = [OfferedFlow(i, "web", d, s) for i, (d, s) in enumerate(specs)]
        for qos in cell.allocate(flows).values():
            assert qos.throughput_bps >= 0
            assert qos.delay_s > 0
            assert 0.0 <= qos.loss_rate <= 1.0

    @given(snrs)
    @settings(max_examples=60, deadline=None)
    def test_phy_lookups_total(self, snr):
        assert wifi_rate_for_snr(snr) > 0
        assert 1 <= lte_cqi_for_snr(snr) <= 15


class TestPacketTraceProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.integers(1, 1500)),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_sorted_and_conserves_bytes(self, raw):
        trace = PacketTrace(Packet(t, s) for t, s in raw)
        times = [p.timestamp for p in trace]
        assert times == sorted(times)
        assert trace.total_bytes == sum(s for _, s in raw)

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 50.0), st.integers(1, 1500)),
            min_size=1,
            max_size=30,
        ),
        st.floats(1.0, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_shift_invariants(self, raw, offset):
        trace = PacketTrace(Packet(t, s) for t, s in raw)
        shifted = trace.shifted(offset)
        assert shifted.total_bytes == trace.total_bytes
        assert abs(shifted.duration_s - trace.duration_s) < 1e-9 * (1 + offset)
        merged = PacketTrace.merge([trace, shifted])
        assert len(merged) == 2 * len(trace)


class TestLiveLabProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_mined_counts_never_negative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        synthesizer = LiveLabSynthesizer(n_users=8, days=1.0)
        matrices = synthesizer.matrices(rng, max_total_flows=10)
        for matrix in matrices:
            assert all(v >= 0 for v in matrix)
            assert 0 < sum(matrix) <= 10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_mining_matches_bruteforce_concurrency(self, seed):
        # Cross-check the sweep-line miner against brute-force sampling
        # of the session intervals.
        rng = np.random.default_rng(seed)
        sessions = LiveLabSynthesizer(n_users=4, days=0.5).generate_sessions(rng)
        if not sessions:
            return
        matrices = LiveLabSynthesizer.mine_matrices(sessions)
        peak_mined = max(sum(m) for m in matrices)
        # Brute force: concurrency at every session start.
        peak_brute = 0
        for s in sessions:
            t = s.start_s + 1e-9
            active = sum(1 for other in sessions if other.start_s <= t < other.end_s)
            peak_brute = max(peak_brute, active)
        assert peak_mined == peak_brute
