"""Tests for the fluid capacity-sharing models."""

import math

import numpy as np
import pytest

from repro.wireless.fluid import FluidLTECell, FluidWiFiCell, OfferedFlow, _waterfill


def _flows(specs):
    """specs: list of (demand_bps, snr_db[, elastic])."""
    out = []
    for i, spec in enumerate(specs):
        demand, snr = spec[0], spec[1]
        elastic = spec[2] if len(spec) > 2 else True
        out.append(OfferedFlow(i, "web", demand, snr, elastic))
    return out


class TestWaterfill:
    def test_budget_covers_all(self):
        assert _waterfill([1.0, 2.0], [1.0, 1.0], 10.0) == [1.0, 2.0]

    def test_fair_squeeze(self):
        alloc = _waterfill([10.0, 10.0], [1.0, 1.0], 10.0)
        assert alloc[0] == pytest.approx(5.0, rel=1e-6)
        assert alloc[1] == pytest.approx(5.0, rel=1e-6)

    def test_light_flow_protected(self):
        alloc = _waterfill([1.0, 100.0], [1.0, 1.0], 10.0)
        assert alloc[0] == pytest.approx(1.0, rel=1e-6)
        assert alloc[1] == pytest.approx(9.0, rel=1e-6)

    def test_costs_weight_allocation(self):
        # Flow 1 costs twice per bit: same throughput level, less total.
        alloc = _waterfill([10.0, 10.0], [1.0, 2.0], 9.0)
        assert alloc[0] == pytest.approx(alloc[1], rel=1e-6)
        used = alloc[0] * 1.0 + alloc[1] * 2.0
        assert used == pytest.approx(9.0, rel=1e-6)

    def test_zero_budget(self):
        assert _waterfill([5.0], [1.0], 0.0) == [0.0]


def _random_instance(rng):
    """Up to 40 flows; demands with ties, either unit costs or per-bit
    airtime costs."""
    n = int(rng.integers(1, 41))
    base = 10 ** rng.uniform(4, 8, size=3)
    free = 10 ** rng.uniform(4, 8, size=n)
    demands = np.where(rng.random(n) < 0.3, rng.choice(base, size=n), free)
    if rng.random() < 0.3:
        costs = np.ones(n)
    else:
        costs = 10 ** rng.uniform(-9, -6, size=n)
    return demands.tolist(), costs.tolist()


class TestExactWaterfill:
    @pytest.mark.parametrize("shortfall", ["one_ulp", "1e-15"])
    def test_budget_a_hair_short_is_never_all_zero(self, shortfall):
        # When the budget misses the total by an ulp or so, rounding can
        # leave the sorted walk without a crossing; the level must then
        # be the largest demand (everyone served), not an untouched zero.
        rng = np.random.default_rng(9)
        fallbacks = 0
        for _ in range(2000):
            demands, costs = _random_instance(rng)
            total = sum(d * c for d, c in zip(demands, costs))
            if shortfall == "one_ulp":
                budget = math.nextafter(total, 0.0)
            else:
                budget = total * (1 - 1e-15)
            alloc = _waterfill(demands, costs, budget)
            assert any(x > 0.0 for x in alloc)
            used = sum(x * c for x, c in zip(alloc, costs))
            assert used == pytest.approx(budget, rel=1e-12, abs=0.0)
            fallbacks += alloc == demands
        if shortfall == "one_ulp":
            assert fallbacks > 0  # the no-crossing case was exercised

    def test_ties_share_one_level(self):
        alloc = _waterfill([4.0, 4.0, 4.0, 1.0], [1.0] * 4, 7.0)
        assert alloc == [2.0, 2.0, 2.0, 1.0]


class TestFluidWiFi:
    def test_empty(self):
        assert FluidWiFiCell().allocate([]) == {}

    def test_single_flow_satisfied(self):
        cell = FluidWiFiCell()
        qos = cell.allocate(_flows([(5e6, 53.0)]))[0]
        assert qos.throughput_bps == pytest.approx(5e6, rel=1e-3)
        assert qos.loss_rate == pytest.approx(0.0)
        assert qos.delay_s < 0.1

    def test_cap_binds_aggregate(self):
        cell = FluidWiFiCell(capacity_cap_bps=10e6)
        allocation = cell.allocate(_flows([(8e6, 53.0), (8e6, 53.0)]))
        total = sum(q.throughput_bps for q in allocation.values())
        assert total <= 10e6 * 1.01

    def test_cap_squeezes_heavy_flows_first(self):
        cell = FluidWiFiCell(capacity_cap_bps=10e6)
        allocation = cell.allocate(_flows([(9e6, 53.0), (1.5e6, 53.0)]))
        assert allocation[1].throughput_bps == pytest.approx(1.5e6, rel=0.01)
        assert allocation[0].throughput_bps < 9e6

    def test_performance_anomaly(self):
        # TXOP fairness: one low-SNR station drags everyone's share.
        cell = FluidWiFiCell()
        fast_only = cell.allocate(_flows([(30e6, 53.0)] * 3))
        with_slow = cell.allocate(_flows([(30e6, 53.0)] * 3 + [(30e6, 12.0)]))
        assert with_slow[0].throughput_bps < fast_only[0].throughput_bps

    def test_low_snr_residual_loss(self):
        cell = FluidWiFiCell()
        qos = cell.allocate(_flows([(1e6, 10.0)]))[0]
        assert qos.loss_rate > 0.0

    def test_inelastic_overflow_becomes_loss(self):
        cell = FluidWiFiCell(capacity_cap_bps=4e6)
        allocation = cell.allocate(_flows([(8e6, 53.0, False)]))
        assert allocation[0].loss_rate == pytest.approx(0.5, abs=0.05)

    def test_elastic_overflow_no_loss(self):
        cell = FluidWiFiCell(capacity_cap_bps=4e6)
        allocation = cell.allocate(_flows([(8e6, 53.0, True)]))
        assert allocation[0].loss_rate == pytest.approx(0.0)
        assert allocation[0].throughput_bps <= 4e6 * 1.01

    def test_delay_grows_with_load(self):
        cell = FluidWiFiCell()
        light = cell.allocate(_flows([(1e6, 53.0)]))[0]
        heavy = cell.allocate(_flows([(6e6, 53.0)] * 5))[0]
        assert heavy.delay_s > light.delay_s

    def test_saturated_delay_hits_bufferbloat_cap(self):
        cell = FluidWiFiCell(capacity_cap_bps=10e6, queue_cap_s=0.15)
        qos = cell.allocate(_flows([(20e6, 53.0)] * 3))[0]
        assert qos.delay_s == pytest.approx(cell.base_delay_s + 0.15, rel=0.01)

    def test_contention_shrinks_budget(self):
        cell = FluidWiFiCell()
        assert cell.airtime_budget(10) < cell.airtime_budget(1)

    def test_ns3_profile_much_faster(self):
        lab = FluidWiFiCell.testbed_laptop()
        ns3 = FluidWiFiCell.ns3_80211n()
        flows = _flows([(30e6, 53.0)] * 4)
        lab_total = sum(q.throughput_bps for q in lab.allocate(flows).values())
        ns3_total = sum(q.throughput_bps for q in ns3.allocate(flows).values())
        assert ns3_total > 4 * lab_total

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FluidWiFiCell(base_delay_s=0.0)
        with pytest.raises(ValueError):
            FluidWiFiCell(mac_efficiency=1.5)
        with pytest.raises(ValueError):
            FluidWiFiCell(phy_multiplier=0.0)


class TestFluidLTE:
    def test_empty(self):
        assert FluidLTECell().allocate([]) == {}

    def test_single_flow_satisfied(self):
        qos = FluidLTECell().allocate(_flows([(5e6, 30.0)]))[0]
        assert qos.throughput_bps == pytest.approx(5e6, rel=1e-3)

    def test_resource_fairness_protects_others(self):
        # Unlike WiFi, a low-CQI UE should NOT collapse high-CQI UEs
        # (it only wastes its own resource share).
        cell = FluidLTECell()
        flows_good = _flows([(50e6, 30.0)] * 2)
        flows_mixed = _flows([(50e6, 30.0)] * 2 + [(50e6, -5.0)])
        good = cell.allocate(flows_good)
        mixed = cell.allocate(flows_mixed)
        # The two fast UEs lose at most their proportional share, not a
        # WiFi-anomaly collapse: each still gets > 25% of the carrier.
        peak = cell._full_carrier_rate(30.0)
        assert mixed[0].throughput_bps > 0.25 * peak * (1 - cell.control_overhead)
        assert good[0].throughput_bps >= mixed[0].throughput_bps

    def test_no_channel_loss_harq(self):
        qos = FluidLTECell().allocate(_flows([(1e6, -5.0)]))[0]
        assert qos.loss_rate == pytest.approx(0.0)

    def test_cqi_determines_peak(self):
        cell = FluidLTECell()
        fast = cell.allocate(_flows([(100e6, 30.0)]))[0]
        slow = cell.allocate(_flows([(100e6, 0.0)]))[0]
        assert fast.throughput_bps > slow.throughput_bps

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FluidLTECell(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            FluidLTECell(control_overhead=1.0)


class TestOfferedFlow:
    def test_validates_demand(self):
        with pytest.raises(ValueError):
            OfferedFlow(0, "web", 0.0, 53.0)
