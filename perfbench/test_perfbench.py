"""Tests of the benchmark itself: tracing observes without perturbing,
every wrapped function is put back, and failures are counted."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from esnode import pipeline
from esnode.errors import NonFinite

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def harmonic_base():
    path = ROOT / "src" / "esnode" / "configs" / "harmonic.json"
    return json.loads(path.read_text(encoding="utf-8"))


def first_seed(name="harmonic", workload_seed=0):
    return next(workloads.reservoir_seeds(name, workload_seed))


def test_traced_fit_writes_the_same_artifacts(tmp_path):
    wl = workloads.WORKLOADS["harmonic"]
    seed = first_seed()
    plain = workloads.fit_cycle(wl, harmonic_base(), seed, str(tmp_path / "a"))
    tr = tracer.Tracer()
    with tracer.instrument(tr):
        traced = workloads.fit_cycle(wl, harmonic_base(), seed,
                                     str(tmp_path / "b"))
    assert plain.fit_s is not None and traced.fit_s is not None
    assert not plain.wrong and not traced.wrong
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    compared = [n for n in names if n != "timing.json"]
    assert len(compared) == 9
    for name in compared:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    layers = workloads.layer_metrics(tr, traced)
    assert layers["trial.euler_steps"] == 650 * 200
    assert layers["problems.rhs_calls"] > layers["trial.euler_steps"]
    assert layers["regression.gn_iters.stage1"] >= 1
    assert workloads.train_coverage(tr) >= 0.95


def test_instrument_restores_every_function():
    names = tracer.wrapped_names()
    before = [getattr(mod, attr) for mod, attr in names]
    with tracer.instrument(tracer.Tracer()):
        during = [getattr(mod, attr) for mod, attr in names]
    assert all(a is not b for a, b in zip(before, during))
    assert all(getattr(mod, attr) is orig
               for (mod, attr), orig in zip(names, before))
    with pytest.raises(RuntimeError):
        with tracer.instrument(tracer.Tracer()):
            raise RuntimeError("boom")
    assert all(getattr(mod, attr) is orig
               for (mod, attr), orig in zip(names, before))


def test_self_time_subtracts_covered_child_time():
    tr = tracer.Tracer()
    tr.spans += [tracer.Span("outer", 0.0, 10.0, -1, {}),
                 tracer.Span("a", 1.0, 4.0, 0, {}),
                 tracer.Span("b", 3.0, 6.0, 0, {}),
                 tracer.Span("c", 3.5, 4.5, 2, {})]
    assert tr.covered(0) == pytest.approx(5.0)
    st = tr.self_times()
    assert st["outer"] == pytest.approx(5.0)
    assert st["a"] == pytest.approx(3.0)
    assert st["b"] == pytest.approx(2.0)
    assert st["c"] == pytest.approx(1.0)


def test_gate_misses_and_freerun_errors_count_as_failures(tmp_path,
                                                          monkeypatch):
    wl = dataclasses.replace(workloads.WORKLOADS["harmonic"],
                             gate=lambda cfg, model, report: "forced miss")

    def diverge(model, y_start, n_steps):
        raise NonFinite("closed-loop generation diverged at step 1")

    monkeypatch.setattr(pipeline, "generate", diverge)
    res = workloads.fit_cycle(wl, harmonic_base(), first_seed(),
                              str(tmp_path / "fit"))
    assert res.failure == "forced miss"
    assert res.freerun_failures == workloads.FREERUNS_PER_FIT
    assert res.attempted == 1 + workloads.FREERUNS_PER_FIT
    assert res.failed == res.attempted


def test_reservoir_seeds_follow_the_workload_seed():
    def take(name, seed):
        stream = workloads.reservoir_seeds(name, seed)
        return [next(stream) for _ in range(5)]

    assert take("vdp", 3) == take("vdp", 3)
    assert take("vdp", 3) != take("vdp", 4)
    assert take("vdp", 3) != take("harmonic", 3)


def test_fit_count_follows_the_seconds_not_the_clock():
    wl = workloads.WORKLOADS["harmonic"]
    assert workloads.n_cycles(wl, 35, 1, 2) == round(35 / wl.cycle_s)
    assert workloads.n_cycles(wl, 35, 2, 1) == round(35 / (2 * wl.cycle_s))
    lorenz = workloads.WORKLOADS["lorenz"]
    assert workloads.n_cycles(lorenz, 1, 1, 2) == 2
    assert workloads.n_cycles(lorenz, 1, 2, 1) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "harmonic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
