"""Tests for data-driven (JSON spec) workloads."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.workloads.base import IFETCH, WRITE, iter_refs
from repro.workloads.scripted import ScriptedWorkload

PAGE = 512

SPEC = {
    "name": "editor-vs-compiler",
    "quantum": 2048,
    "processes": [
        {
            "name": "editor", "weight": 0.5,
            "code_pages": 4, "heap_pages": 64, "file_pages": 16,
            "phases": [
                {"duration": 20_000, "ws_pages": 32,
                 "write_frac": 0.2, "scan_pages": 8},
            ],
        },
        {
            "name": "compiler",
            "code_pages": 8, "heap_pages": 256, "file_pages": 32,
            "phases": [
                {"duration": 30_000, "ws_pages": 120,
                 "write_frac": 0.4, "alloc_pages": 90,
                 "scan_pages": 24},
            ],
        },
    ],
}


def stream_length(instance):
    return sum(len(chunk) >> 1 for chunk in instance.access_chunks())


class TestValidation:
    def test_valid_spec_accepted(self):
        assert ScriptedWorkload(SPEC).name == "editor-vs-compiler"

    def test_empty_processes_rejected(self):
        with pytest.raises(ConfigurationError):
            ScriptedWorkload({"processes": []})

    def test_unknown_process_key_rejected(self):
        bad = {"processes": [{
            "code_pages": 2, "heap_pages": 4, "color": "red",
            "phases": [{"duration": 1000}],
        }]}
        with pytest.raises(ConfigurationError):
            ScriptedWorkload(bad)

    def test_unknown_phase_key_rejected(self):
        bad = {"processes": [{
            "code_pages": 2, "heap_pages": 4,
            "phases": [{"duration": 1000, "speed": 11}],
        }]}
        with pytest.raises(ConfigurationError):
            ScriptedWorkload(bad)

    def test_missing_duration_rejected(self):
        bad = {"processes": [{
            "code_pages": 2, "heap_pages": 4,
            "phases": [{"ws_pages": 2}],
        }]}
        with pytest.raises(ConfigurationError):
            ScriptedWorkload(bad)

    def test_missing_regions_rejected(self):
        bad = {"processes": [{
            "phases": [{"duration": 1000}],
        }]}
        with pytest.raises(ConfigurationError):
            ScriptedWorkload(bad)

    def test_oversized_phase_caught_at_instantiation(self):
        bad = {"processes": [{
            "code_pages": 2, "heap_pages": 4,
            "phases": [{"duration": 1000, "ws_pages": 8}],
        }]}
        workload = ScriptedWorkload(bad)
        with pytest.raises(ConfigurationError):
            workload.instantiate(PAGE)


class TestStream:
    def test_generates_and_respects_regions(self):
        instance = ScriptedWorkload(SPEC).instantiate(PAGE, seed=1)
        count = 0
        for kind, vaddr in iter_refs(instance.access_chunks()):
            region = instance.space_map.region_of(vaddr)
            assert region is not None
            if kind == WRITE:
                assert region.writable
            count += 1
            if count >= 30_000:
                break
        assert count == 30_000

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC))
        workload = ScriptedWorkload(path)
        assert workload.name == "editor-vs-compiler"
        instance = workload.instantiate(PAGE)
        assert stream_length(instance) > 10_000

    def test_length_scale(self):
        short = ScriptedWorkload(SPEC, length_scale=0.1)
        long = ScriptedWorkload(SPEC, length_scale=0.2)
        short_count = stream_length(short.instantiate(PAGE))
        long_count = stream_length(long.instantiate(PAGE))
        assert short_count < long_count

    def test_deterministic_per_seed(self):
        a = list(ScriptedWorkload(SPEC, 0.05).instantiate(
            PAGE, seed=4).access_chunks())
        b = list(ScriptedWorkload(SPEC, 0.05).instantiate(
            PAGE, seed=4).access_chunks())
        assert a == b


class TestSimulation:
    def test_runs_through_the_machine(self):
        result = ExperimentRunner().run(
            scaled_config(memory_ratio=48),
            ScriptedWorkload(SPEC, length_scale=0.2),
        )
        assert result.workload == "editor-vs-compiler"
        assert result.references > 5_000
        assert result.zero_fills > 0
