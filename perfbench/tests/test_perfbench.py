"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import spec
from perfbench.common import OpenLoop
from perfbench.inputs import REPEAT_SHARE, QueryMix, ingest_plans
from perfbench.spans import Span, Tracer, self_time_by_name, self_times
from repro.dataset import build_australian_open
from repro.library.service import canonical_query_key

ROOT = Path(__file__).resolve().parents[2]


# -- workloads come from the seed alone --------------------------------------


def _workload(seed: int):
    dataset = build_australian_open(seed=seed, video_shots=4)
    rng = np.random.default_rng([seed, 1])
    plans = [(p.name, p.seed, p.n_shots) for p in ingest_plans(dataset.video_plans, rng, 5)]
    mix = QueryMix(dataset, np.random.default_rng([seed, 3]), qbe_share=0.05)
    requests = [
        (kind, canonical_query_key(item) if kind == "search" else item)
        for kind, item in mix.requests(300, n_examples=8)
    ]
    return plans, requests


def test_same_seed_same_workload():
    assert _workload(5) == _workload(5)


def test_other_seed_other_workload():
    plans_a, requests_a = _workload(5)
    plans_b, requests_b = _workload(6)
    assert plans_a != plans_b
    assert requests_a != requests_b


def test_query_mix_repeats_at_the_set_share():
    dataset = build_australian_open(seed=2, video_shots=4)
    mix = QueryMix(dataset, np.random.default_rng(2))
    keys = [canonical_query_key(mix.next_query()) for _ in range(4000)]
    repeated = 1 - len(set(keys)) / len(keys)
    assert abs(repeated - REPEAT_SHARE) < 0.03


def test_ingest_plans_keep_the_shot_mix():
    from repro.video.generator import BroadcastGenerator
    from repro.video.shots import CourtShotSpec

    dataset = build_australian_open(seed=3, video_shots=4)
    for plan in ingest_plans(dataset.video_plans, np.random.default_rng(3), 6):
        specs = BroadcastGenerator(plan.config, seed=plan.seed).sample_specs(plan.n_shots)
        court = [s.n_frames for s in specs if isinstance(s, CourtShotSpec)]
        assert len(court) == 2 and all(48 <= n <= 52 for n in court)
        assert 200 <= sum(s.n_frames for s in specs) <= 220


# -- metric names --------------------------------------------------------------


def test_manifest_file_is_generated_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.manifest()


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in spec.manifest()["end_to_end"] + spec.manifest()["per_layer"]]
    names += list(spec.WORKLOADS) + list(spec.EXTRA_WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_PATTERN.match(name), name
        assert set(name) <= set(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
        )


def test_every_layer_metric_names_what_it_should_move():
    e2e = {name for name, *_ in spec.END_TO_END}
    workloads = {**spec.WORKLOADS, **spec.EXTRA_WORKLOADS}
    for name, moves in spec.LAYER_MAP.items():
        if moves == "all":
            continue
        for target in moves.split(","):
            metric, workload = target.split("@")
            assert metric in e2e | {"failed"}, (name, metric)
            assert workload in workloads, (name, workload)


def test_every_layer_is_measured_on_a_manifest_workload():
    """A layer mapped to a hand-run workload is covered by a traced phase."""
    phases = {phase: (owner, prefixes) for owner, (phase, prefixes) in spec.TRACED_PHASES.items()}
    for name, moves in spec.LAYER_MAP.items():
        targets = [t.split("@")[1] for t in moves.split(",")] if moves != "all" else []
        if targets and all(w in spec.EXTRA_WORKLOADS for w in targets):
            owners = [owner for w in targets for owner, pre in [phases[w]] if name.startswith(pre)]
            assert owners and all(o in spec.WORKLOADS for o in owners), name


def test_workload_reasons_fit_the_manifest():
    for why in list(spec.WORKLOADS.values()) + list(spec.EXTRA_WORKLOADS.values()):
        assert len(why) <= 200 and "\n" not in why


def test_setup_metric_has_the_largest_bound():
    bounds = {name: bound for name, _u, _b, bound, _w in spec.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- self time -----------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(1, None, 7, "root", 0.0, 10.0),
        Span(2, 1, 7, "a", 1.0, 4.0),
        Span(3, 1, 7, "b", 3.0, 6.0),  # overlaps a: covered time is 1..6
        Span(4, 2, 7, "leaf", 2.0, 3.0),
        Span(5, None, 8, "a", 20.0, 21.5),  # another request, no children
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.5}
    assert self_time_by_name(spans) == {"root": 5.0, "a": 3.5, "b": 3.0, "leaf": 1.0}


def test_tracer_nests_spans_only_in_traced_requests():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.begin_request(1, traced=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.begin_request(2, traced=False)
    with tracer.span("outer"):
        pass
    assert [(s.name, s.request) for s in tracer.spans] == [("inner", 1), ("outer", 1)]
    inner, outer = tracer.spans
    assert inner.parent == outer.span_id
    assert self_times(tracer.spans) == {inner.span_id: 1.0, outer.span_id: 2.0}


# -- open-loop health ------------------------------------------------------------


def test_generator_lag_excludes_time_blocked_in_the_program():
    loop = OpenLoop("test", [0.0, 1.0, 2.0], lambda i: None)
    # The second call returned late (at 2.5): the third issue at 2.5 is
    # the program's backlog, not the generator's lag.
    loop.issued, loop.done = [0.0, 1.0, 2.5], [0.2, 2.5, 2.6]
    health = loop.health()
    assert health["lateness_max_ms"] == pytest.approx(500.0)
    assert health["generator_lag_max_ms"] == pytest.approx(0.0)
    assert loop.latencies() == pytest.approx([0.2, 1.5, 0.6])


# -- the command itself ------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
