"""Tests for the application QoE behaviour models."""

import pytest

from repro.apps.base import app_model_for_class
from repro.apps.conferencing import ConferencingApp
from repro.apps.streaming import StreamingApp
from repro.apps.web import WebApp
from repro.traffic.flows import CONFERENCING, STREAMING, WEB
from repro.wireless.qos import FlowQoS

GOOD = FlowQoS(throughput_bps=10e6, delay_s=0.035, loss_rate=0.0)
SLOW = FlowQoS(throughput_bps=0.5e6, delay_s=0.035, loss_rate=0.0)
LAGGY = FlowQoS(throughput_bps=10e6, delay_s=0.3, loss_rate=0.0)
LOSSY = FlowQoS(throughput_bps=10e6, delay_s=0.035, loss_rate=0.15)


class TestWebApp:
    def test_good_network_fast_page(self):
        assert WebApp().measure_qoe(GOOD) < 3.0

    def test_slow_network_slow_page(self):
        app = WebApp()
        assert app.measure_qoe(SLOW) > app.measure_qoe(GOOD)

    def test_delay_sensitivity(self):
        app = WebApp()
        assert app.measure_qoe(LAGGY) > 2 * app.measure_qoe(GOOD)

    def test_loss_inflates_plt(self):
        app = WebApp()
        assert app.measure_qoe(LOSSY) > app.measure_qoe(GOOD)

    def test_clamped_at_max(self):
        app = WebApp(max_plt_s=10.0)
        dead = FlowQoS(throughput_bps=1e3, delay_s=1.0)
        assert app.measure_qoe(dead) == pytest.approx(10.0)

    def test_monotone_in_throughput(self):
        app = WebApp()
        rates = [0.5e6, 1e6, 2e6, 5e6, 10e6]
        plts = [app.measure_qoe(FlowQoS(r, 0.035)) for r in rates]
        assert plts == sorted(plts, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            WebApp(page_bytes=0.0)


class TestStreamingApp:
    def test_good_network_fast_start(self):
        assert StreamingApp().measure_qoe(GOOD) < 5.0

    def test_below_media_rate_slow_start(self):
        app = StreamingApp(media_bitrate_bps=4e6)
        starving = FlowQoS(throughput_bps=1.5e6, delay_s=0.035)
        assert app.measure_qoe(starving) > 5.0

    def test_rate_sensitivity_dominates_delay(self):
        # Streaming tolerates latency far better than rate starvation.
        app = StreamingApp()
        assert app.measure_qoe(LAGGY) < app.measure_qoe(SLOW)

    def test_loss_shrinks_goodput(self):
        app = StreamingApp()
        assert app.measure_qoe(LOSSY) > app.measure_qoe(GOOD)

    def test_clamped_at_max(self):
        app = StreamingApp(max_startup_s=30.0)
        dead = FlowQoS(throughput_bps=1e3, delay_s=0.5, loss_rate=0.5)
        assert app.measure_qoe(dead) == pytest.approx(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingApp(media_bitrate_bps=-1.0)


class TestConferencingApp:
    def test_good_network_high_psnr(self):
        assert ConferencingApp().measure_qoe(GOOD) > 35.0

    def test_loss_destroys_psnr(self):
        app = ConferencingApp()
        assert app.measure_qoe(LOSSY) < app.measure_qoe(GOOD) - 5.0

    def test_delay_backs_off_rate(self):
        app = ConferencingApp()
        assert app.measure_qoe(LAGGY) < app.measure_qoe(GOOD)

    def test_rate_starvation(self):
        app = ConferencingApp(target_bitrate_bps=1.5e6)
        starved = FlowQoS(throughput_bps=0.3e6, delay_s=0.035)
        assert app.measure_qoe(starved) < 32.0

    def test_psnr_bounds(self):
        app = ConferencingApp()
        dead = FlowQoS(throughput_bps=1e3, delay_s=1.0, loss_rate=0.9)
        assert app.min_psnr_db <= app.measure_qoe(dead) <= app.max_psnr_db
        assert app.measure_qoe(GOOD) <= app.max_psnr_db

    def test_validation(self):
        with pytest.raises(ValueError):
            ConferencingApp(target_bitrate_bps=0.0)
        with pytest.raises(ValueError):
            ConferencingApp(max_psnr_db=10.0, min_psnr_db=20.0)


class TestRegistry:
    def test_lookup(self):
        assert isinstance(app_model_for_class(WEB), WebApp)
        assert isinstance(app_model_for_class(STREAMING), StreamingApp)
        assert isinstance(app_model_for_class(CONFERENCING), ConferencingApp)

    def test_direction_flags(self):
        assert not app_model_for_class(WEB).higher_is_better
        assert not app_model_for_class(STREAMING).higher_is_better
        assert app_model_for_class(CONFERENCING).higher_is_better

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            app_model_for_class("gaming")

    @pytest.mark.parametrize("app_class", [WEB, STREAMING, CONFERENCING])
    def test_fresh_instance_per_call(self, app_class):
        a = app_model_for_class(app_class)
        b = app_model_for_class(app_class)
        assert a is not b
        assert type(a) is type(b)

    def test_unknown_raises_after_lookups(self):
        # The registry is built on first use; a miss must still raise.
        app_model_for_class(WEB)
        with pytest.raises(ValueError, match="gaming"):
            app_model_for_class("gaming")
