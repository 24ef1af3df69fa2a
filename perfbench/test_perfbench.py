"""Tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import re
import sys

import digests
import layers
import run

api = run.import_program()

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny_result():
    return api.ExperimentRunner().run(
        api.scaled_config(memory_ratio=16),
        api.SlcWorkload(length_scale=0.001), seed=1,
        max_references=3000,
    )


def test_helper_frame_called_from_workloads_is_charged_to_workloads():
    """Sample a real ``repro.common`` frame whose caller is a workload."""
    sampler = layers.WallSampler(os.path.dirname(api.__file__))
    package = sampler.package_dir + os.sep
    seen = []

    def profile(frame, event, arg):
        if event != "call" or seen:
            return
        caller = frame.f_back
        if (
            frame.f_code.co_filename.startswith(package + "common")
            and caller is not None
            and caller.f_code.co_filename.startswith(
                package + "workloads"
            )
        ):
            seen.append(frame.f_code.co_qualname)
            sampler.charge(frame, 1.0)

    instance = api.SlcWorkload(length_scale=0.001).instantiate(512, seed=3)
    sys.setprofile(profile)
    try:
        next(iter(instance.access_chunks(64)))
    finally:
        sys.setprofile(None)
    assert seen, "no repro.common call from repro.workloads was seen"
    assert dict(sampler.self_s) == {"workloads": 1.0}
    assert sampler.span_s["workloads.busy"] == 1.0


def test_layer_of_maps_files_to_layers():
    root = os.path.join(os.sep, "src", "repro")

    def layer(*parts, function="f"):
        return layers.layer_of(os.path.join(root, *parts), function, root)

    assert layer("vm", "system.py") == "vm"
    assert layer("common", "rng.py") == "helper"
    assert layer("options.py") == "helper"
    assert layer("machine", "runner.py") == "machine"
    assert layer("machine", "simulator.py", function="_miss") == (
        "machine.resolve"
    )
    assert layer("machine", "simulator.py", function="run_chunks") == (
        "machine.classify"
    )
    assert layers.layer_of("/usr/lib/python3/threading.py", "wait",
                           root) is None


def test_perturbed_counter_fails_the_digest_check():
    result = _tiny_result()
    expected = [digests.cell_digest(result)]
    assert digests.mismatched_cells(expected, expected) == []
    events = dict(result.events)
    event = next(iter(events))
    events[event] += 1
    perturbed = dataclasses.replace(result, events=events)
    assert digests.mismatched_cells(
        [digests.cell_digest(perturbed)], expected
    ) == [0]


def test_invariants_catch_a_lost_reference_count():
    result = _tiny_result()
    assert digests.invariant_errors(result) == []
    events = dict(result.events)
    events[api.Event.PROCESSOR_READ] -= 1
    assert digests.invariant_errors(
        dataclasses.replace(result, events=events)
    )


def test_missing_cells_count_as_mismatched():
    assert digests.mismatched_cells(["a"], ["a", "b"]) == [1]
    assert digests.mismatched_cells(["a", "c"], ["a"]) == [1]


def test_metric_names_are_well_formed():
    names = (
        list(run.END_TO_END) + list(run.REPORTED_ONLY) + list(run.PER_LAYER)
    )
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64


def test_benchmark_json_matches_the_benchmark():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.PER_LAYER
    )


def test_golden_covers_both_cell_grids():
    golden = digests.load_golden()
    assert golden["seed"] == run.COMMITTED_SEED
    assert len(golden["cells"]["campaign"]) == 30
    assert len(golden["cells"]["policy-sweep"]) == 2 * 5 * 3 * (
        run.SWEEP_SEEDS
    )
