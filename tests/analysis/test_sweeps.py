"""Tests for the generic sweep driver."""

import pytest

from repro.analysis.sweeps import (
    METRICS,
    SweepDriver,
    associativity_axis,
    cache_size_axis,
)
from repro.cache.cache import VirtualCache
from repro.common.errors import ConfigurationError
from repro.common.params import CacheGeometry, MemoryTiming
from repro.machine.config import scaled_config
from repro.workloads.slc import SlcWorkload

SCALE = 0.005


def make_driver(**kwargs):
    values = kwargs.pop("values", (40, 64))
    field = kwargs.pop("field", "memory_bytes")
    if field == "memory_bytes":
        base = scaled_config(memory_ratio=40)
        values = tuple(
            ratio * base.cache.size_bytes for ratio in (40, 64)
        )
    else:
        base = scaled_config(memory_ratio=40)
    return SweepDriver(
        base,
        field,
        values,
        lambda: SlcWorkload(length_scale=SCALE),
        **kwargs,
    )


class TestDriver:
    def test_field_sweep_runs_every_point(self):
        driver = make_driver()
        results = driver.run()
        assert set(results) == {""}
        assert len(results[""]) == 2
        memories = {
            run.memory_bytes for run in results[""].values()
        }
        assert len(memories) == 2

    def test_variants_produce_series(self):
        driver = make_driver()
        results = driver.run(variants={
            "MISS": lambda c: c.with_policies(reference="MISS"),
            "NOREF": lambda c: c.with_policies(reference="NOREF"),
        })
        assert set(results) == {"MISS", "NOREF"}
        for series in results.values():
            for run in series.values():
                assert run.references > 0

    def test_callable_field(self):
        def bump_wired(config, value):
            import dataclasses
            return dataclasses.replace(config, wired_frames=value)

        driver = SweepDriver(
            scaled_config(memory_ratio=40), bump_wired, (4, 8),
            lambda: SlcWorkload(length_scale=SCALE),
        )
        results = driver.run()
        assert len(results[""]) == 2

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            SweepDriver(
                scaled_config(), "not_a_field", (1,),
                lambda: SlcWorkload(length_scale=SCALE),
            )

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            SweepDriver(
                scaled_config(), "memory_bytes", (),
                lambda: SlcWorkload(length_scale=SCALE),
            )


class TestAxes:
    def test_cache_size_axis(self):
        config = scaled_config(memory_ratio=40)
        bigger = cache_size_axis(config, config.cache.size_bytes * 2)
        assert bigger.cache.size_bytes == config.cache.size_bytes * 2
        assert bigger.cache.block_bytes == config.cache.block_bytes
        with pytest.raises(ConfigurationError):
            cache_size_axis(config, 12345)  # not a power of two

    def test_associativity_axis(self):
        config = scaled_config(memory_ratio=40)
        ways4 = associativity_axis(config, 4)
        assert ways4.cache.associativity == 4
        assert ways4.cache.num_sets == ways4.cache.num_lines // 4
        with pytest.raises(ConfigurationError):
            associativity_axis(config, 3)  # not a power of two
        with pytest.raises(ConfigurationError):
            associativity_axis(
                config, config.cache.num_lines * 2
            )  # more ways than blocks

    def test_virtual_cache_refuses_set_associative(self):
        geometry = CacheGeometry(
            size_bytes=16 * 1024, block_bytes=32, associativity=2
        )
        with pytest.raises(ConfigurationError):
            VirtualCache(geometry, MemoryTiming())

    def test_sweep_driver_accepts_axis_callables(self):
        driver = SweepDriver(
            scaled_config(memory_ratio=40), cache_size_axis,
            [8 * 1024, 16 * 1024],
            lambda: SlcWorkload(length_scale=SCALE),
        )
        assert driver.field_name == "cache_size_axis"
        driver = SweepDriver(
            scaled_config(memory_ratio=40), associativity_axis,
            [1, 2, 4],
            lambda: SlcWorkload(length_scale=SCALE),
        )
        assert driver.field_name == "associativity_axis"


class TestRendering:
    @pytest.fixture(scope="class")
    def sweep(self):
        driver = make_driver()
        return driver, driver.run()

    def test_tabulate(self, sweep):
        driver, results = sweep
        text = driver.tabulate(results, "page_ins").render()
        assert "memory_bytes" in text
        assert "page_ins" in text

    def test_plot(self, sweep):
        driver, results = sweep
        text = driver.plot(results, "cycles", width=20, height=5)
        assert "cycles vs memory_bytes" in text

    def test_custom_metric_callable(self, sweep):
        driver, results = sweep
        text = driver.tabulate(
            results, lambda run: run.zero_fills
        ).render()
        assert "Sweep of memory_bytes" in text

    def test_standard_metrics_registry(self):
        assert "page_ins" in METRICS
        assert "cycles_per_reference" in METRICS
