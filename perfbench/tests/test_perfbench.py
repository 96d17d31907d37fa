"""Tests of the benchmark harness itself (not of botnet_mfg).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import os
from dataclasses import replace

import numpy as np
import pytest

import layers
import run as bench
import tracer as tracer_mod
import workloads
from botnet_mfg.agentsim import SwitchEvent


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def _small_inputs(name, tmp_path):
    """Cut-down inputs so a pass takes well under a second."""
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(bench.DEFAULT_SEED, str(tmp_path))
    if name == "phase_diagram":
        # a 20-step sweep is too coarse for the anchors' band patterns
        return wl, replace(inputs, sets=inputs.sets[2:], steps=20)
    if name == "kinetic_limit":
        return wl, replace(inputs, configs=inputs.configs[:2], replicas=1)
    if name == "myopic_feedback":
        return wl, replace(inputs, config=replace(inputs.config, horizon=0.5))
    return wl, replace(inputs, trials=20)


def test_self_time_on_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    tr = tracer_mod.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]),
                           keep_durations=["c"])
    tr.enter("a")
    tr.enter("b")
    tr.exit()
    tr.enter("c")
    tr.enter("d")
    assert tr.current == "d"
    tr.exit()
    tr.exit()
    tr.exit()
    spans = tr.by_name()
    assert spans["a"] == (1, 10, 3)
    assert spans["b"] == (1, 3, 3)
    assert spans["c"] == (1, 4, 3)
    assert spans["d"] == (1, 1, 1)
    assert sum(s for _, _, s in spans.values()) == 10
    assert tr.durations == {"c": [4]}
    assert tr.current is None


def test_recursion_nests_under_its_own_name():
    tr = tracer_mod.Tracer(clock=FakeClock([0, 2, 5, 6]))
    tr.enter("f")
    tr.enter("f")
    tr.exit()
    tr.exit()
    outer, inner = 1, 2
    assert tr.names[inner] == "f" and tr.parents[inner] == outer
    assert list(tr.ancestors(inner)) == ["f"]
    assert tr.self_time[outer] == 3 and tr.self_time[inner] == 3
    assert tr.by_name()["f"] == (2, 9, 6)


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    originals = [(t.owner, t.attr, getattr(t.owner, t.attr)) for t in layers.TARGETS]
    wl, inputs = _small_inputs("self_check", tmp_path)
    tr = tracer_mod.Tracer()
    with tracer_mod.installed(tr, layers.TARGETS):
        assert all(getattr(o, a) is not f for o, a, f in originals)
        wl.run_pass(inputs)
    assert all(getattr(o, a) is f for o, a, f in originals)
    assert tr.by_name()["validation.run_all"][0] == 1

    with pytest.raises(RuntimeError):
        with tracer_mod.installed(tr, layers.TARGETS):
            raise RuntimeError("body failed")
    assert all(getattr(o, a) is f for o, a, f in originals)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(name, tmp_path):
    wl, inputs = _small_inputs(name, tmp_path)
    plain = wl.run_pass(inputs)
    tr = tracer_mod.Tracer()
    with tracer_mod.installed(tr, layers.TARGETS):
        traced = wl.run_pass(inputs)
    assert traced.blobs == plain.blobs
    assert traced.digest() == plain.digest()
    assert wl.check(inputs, traced).failures == []
    metrics = layers.layer_metrics(tr)
    declared = {m["name"] for m in bench.load_spec()["per_layer"]}
    assert set(metrics) | {"trace.wall_s", "trace.overhead_s"} == declared


def test_every_per_layer_metric_names_what_it_should_move():
    for metric in bench.load_spec()["per_layer"]:
        assert layers.moves(metric["name"]), metric["name"]


@pytest.fixture(scope="module")
def anchors_pass(tmp_path_factory):
    wl = workloads.WORKLOADS["phase_diagram"]
    inputs = wl.make_inputs(bench.DEFAULT_SEED, str(tmp_path_factory.mktemp("phase")))
    inputs = replace(inputs, sets=inputs.sets[:2])
    out = wl.run_pass(inputs)
    assert wl.check(inputs, out).failures == []
    return inputs, out


def _rows(text):
    import csv
    import io

    return list(csv.DictReader(io.StringIO(text)))


def test_checker_flags_a_perturbed_mu(anchors_pass):
    inputs, out = anchors_pass
    params = inputs.sets[0].params
    rows = _rows(out.values[("regime_one", "equilibria")][1])
    assert rows and workloads.equilibrium_problems(params, rows) == []
    rows[0]["mu"] = repr(float(rows[0]["mu"]) * (1.0 + 1e-6))
    assert workloads.equilibrium_problems(params, rows)


def test_checker_flags_a_wrong_band_pattern(anchors_pass):
    inputs, out = anchors_pass
    rows = _rows(out.values[("regime_one", "sweep")][1])
    assert workloads.sweep_problems(rows, 200, (1, 0, 1)) == []
    for row in rows:
        if row["count"] == "0":
            row["count"], row["cases"] = "1", "i"
    problems = workloads.sweep_problems(rows, 200, (1, 0, 1))
    assert any("band pattern" in p for p in problems)


def test_checker_flags_an_off_lattice_row(tmp_path):
    wl, inputs = _small_inputs("kinetic_limit", tmp_path)
    out = wl.run_pass(inputs)
    assert wl.check(inputs, out).failures == []
    traj = out.values[inputs.configs[0].n_agents][0][0]
    traj.states[3] += np.array([1e-3, -1e-3, 0.0, 0.0])
    failures = wl.check(inputs, out).failures
    assert len(failures) == 1 and "lattice" in failures[0]


def test_checker_flags_a_switch_that_keeps_its_case(tmp_path):
    wl, inputs = _small_inputs("myopic_feedback", tmp_path)
    out = wl.run_pass(inputs)
    assert wl.check(inputs, out).failures == []
    out.values["trajectory"].switches.append(SwitchEvent(0.25, "i", "i", 0.5))
    assert wl.check(inputs, out).failures


def test_checker_flags_a_failed_check_result(tmp_path):
    wl, inputs = _small_inputs("self_check", tmp_path)
    out = wl.run_pass(inputs)
    code, text = out.values["validate"]
    assert code == 0 and wl.check(inputs, out).failures == []
    lines = text.splitlines()
    name, passed, failed, detail = lines[1].split(",", 3)
    lines[1] = ",".join([name, str(int(passed) - 1), "1", detail])
    out.values["validate"] = (code, "\n".join(lines) + "\n")
    verdict = wl.check(inputs, out)
    assert verdict.attempted == 2 + sum(
        int(r["passed"]) + int(r["failed"]) for r in _rows(text))
    # the failed trial, and exit code 0 despite it
    assert len(verdict.failures) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_holdout_seed_has_no_failures(name):
    result, detail = bench.run(name, bench.HOLDOUT_SEED, 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert detail["fail_ratio"] == 0.0 and detail["passes"] == 2
    spec = {m["name"]: m["unit"] for m in bench.load_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not [p for p in os.listdir(bench.ROOT) if p.startswith(".perfbench-")]


def test_digest_file_is_keyed_by_workload_and_seed():
    digests = bench.load_digests()
    assert set(digests) <= set(workloads.WORKLOADS)
    for by_seed in digests.values():
        assert all(int(seed) >= 0 and len(d) == 64 for seed, d in by_seed.items())
