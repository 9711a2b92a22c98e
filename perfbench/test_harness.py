"""Tests of the benchmark harness itself (no model is trained here).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from harness import (
    REFERENCE_PROBE_S,
    BenchError,
    HostSpeed,
    OpenLoop,
    Outcome,
    Request,
    percentile,
    pin_environment,
    reference_probe,
    summarise_stream,
)
from tracing import Span, Tracer, counting_memo_hits, self_times
from workloads import check_reads, same_top_k

HERE = Path(__file__).resolve().parent


# ------------------------------------------------------------------ self time
def test_self_time_subtracts_children_once():
    spans = [
        Span(1, "outer", 0.0, 10.0, None, "timed", 1),
        Span(2, "mid", 1.0, 6.0, 1, "timed", 1),
        Span(3, "leaf", 2.0, 3.0, 2, "timed", 1),
        Span(4, "leaf", 4.0, 5.5, 2, "timed", 1),
        Span(5, "mid", 7.0, 9.0, 1, "timed", 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(5.0 - 1.0 - 1.5)
    assert own[3] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_clips_overlapping_children():
    spans = [
        Span(1, "outer", 0.0, 4.0, None, "timed", 1),
        Span(2, "a", 1.0, 3.0, 1, "timed", 2),
        Span(3, "b", 2.0, 5.0, 1, "timed", 3),
    ]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_tracer_nests_per_thread_and_sums_by_name():
    tracer = Tracer()
    tracer.run = "timed"
    outer = tracer.begin("outer")
    tracer.end(tracer.begin("inner"))
    tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    seconds, calls = tracer.layer_seconds("timed")
    assert calls == {"inner": 2, "outer": 1}
    by_id = {s.id: s for s in tracer.spans}
    assert all(by_id[s.parent].name == "outer" for s in tracer.spans if s.name == "inner")
    total = max(s.end for s in tracer.spans) - min(s.start for s in tracer.spans)
    assert seconds["outer"] + seconds["inner"] == pytest.approx(total)


def test_wrapped_method_records_a_span_and_uninstalls():
    class Layer:
        def work(self, x):
            return x + 1

    tracer = Tracer()
    tracer.patch_method(Layer, "work", "layer.work")
    assert Layer().work(1) == 2
    assert [s.name for s in tracer.spans] == ["layer.work"]
    tracer.uninstall()
    Layer().work(1)
    assert len(tracer.spans) == 1


def test_memo_hits_are_calls_that_did_not_grow_the_memo():
    class Estimator:
        def __init__(self):
            self.memo = {}

        def power(self, key):
            return self.memo.setdefault(key, len(self.memo))

    tracer = Tracer()
    Estimator.power = counting_memo_hits(Estimator.power, "memo", tracer.count, "est.power")
    first = Estimator()
    for key in ("a", "b", "a", "a"):
        first.power(key)
    del first
    Estimator().power("a")  # a fresh memo misses, whatever id the instance gets
    assert tracer.counted("setup", "est.power_calls") == 5
    assert tracer.counted("setup", "est.power_hits") == 2


# ----------------------------------------------------------------- percentile
def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 0.99) == pytest.approx(989.01)
    with pytest.raises(BenchError):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    with pytest.raises(BenchError):
        percentile(list(range(19)), 0.5)


# ----------------------------------------------------------------- host speed
def test_host_speed_scales_each_interval_by_the_probes_around_it():
    fast, slow = REFERENCE_PROBE_S, 2.0 * REFERENCE_PROBE_S
    probes = iter([fast, fast, 9.0] + [slow, 0.0, slow] + [slow] * 3)  # bursts keep medians
    speed = HostSpeed(probe=lambda: next(probes), burst=3)
    for _ in range(3):
        speed.measure()
    # the host ran at the reference speed, then slowed to half of it
    factors = speed.factors(2)
    assert factors == pytest.approx([1.0 / 1.5, 0.5])
    # twice the time at half the speed reads as the same scaled time
    assert 2.0 * factors[1] == pytest.approx(1.0)
    assert speed.probe_ms() == pytest.approx(slow * 1e3)
    assert speed.factor() == pytest.approx(0.5)  # the median burst, for long intervals
    with pytest.raises(BenchError):
        speed.factors(3)


def test_reference_probe_takes_measurable_time():
    assert 0.0 < reference_probe() < 5.0


# ------------------------------------------------------------ due-time clock
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_late_generator_is_charged_to_the_requests_it_delays():
    clock = FakeClock()
    service_time = 0.001

    def submit(op, args):
        if args[0] == 0:
            clock.now += 0.050  # the generator stalls for 50 ms on the first submit
        return SimpleNamespace(ready=True, error=None, completed_at=clock.now + service_time)

    schedule = [Request(offset=0.010 * i, op="topk", args=(i,)) for i in range(10)]
    loop = OpenLoop(submit, schedule, clock=clock, sleep=clock.sleep)
    loop.start(t0=100.0)
    loop.join(timeout=5.0)
    late = loop.lateness()
    # requests 1..4 fell due during the stall and went out late, at 100.05
    assert late[0] == pytest.approx(0.0)
    assert late[1:5] == pytest.approx([0.04, 0.03, 0.02, 0.01])
    assert late[5:] == pytest.approx([0.0] * 5)
    latencies = [o.latency for o in loop.outcomes]
    assert latencies[1] == pytest.approx(0.040 + service_time)  # from due, not from send
    assert latencies[6] == pytest.approx(service_time)


def test_shed_and_unanswered_requests_miss_the_deadline():
    def outcome(latency, shed=False):
        ticket = None if shed else SimpleNamespace(ready=True, error=None, completed_at=latency)
        return Outcome(Request(0.0, "topk", ("u",)), due=0.0, ticket=ticket, shed=shed)

    outcomes = [outcome(0.010) for _ in range(985)] + [outcome(0.030) for _ in range(10)]
    outcomes += [outcome(0, shed=True) for _ in range(5)]
    stats = summarise_stream(outcomes, deadline_s=0.025, wrong={0})
    assert stats["sent"] == 1000 and stats["shed"] == 5
    assert stats["ok"] == 984  # one wrong, ten late, five shed
    assert stats["p50_ms"] == pytest.approx(10.0)
    assert stats["p99_ms"] == pytest.approx(30.0)
    more_shed = outcomes + [outcome(0, shed=True) for _ in range(10)]
    assert math.isinf(summarise_stream(more_shed, 0.025, set())["p99_ms"])


# ------------------------------------------------------------ environment
def test_refuses_repro_overrides():
    environ = {"REPRO_SERVING_WORKERS": "8", "PATH": "/bin"}
    with pytest.raises(BenchError, match="REPRO_SERVING_WORKERS"):
        pin_environment(environ)
    clean = {"PATH": "/bin"}
    pin_environment(clean)
    assert clean["OPENBLAS_NUM_THREADS"] == "1"


def test_command_refuses_repro_overrides_without_a_result():
    env = dict(os.environ, REPRO_SIMILARITY_BACKEND="ann")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve", "--seed", "1",
         "--seconds", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "REPRO_SIMILARITY_BACKEND" in done.stderr


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


# ----------------------------------------------------------------- checking
class FakeChecker:
    def __init__(self, answers: dict, scores: dict) -> None:
        self.answers, self.scores = answers, scores

    def top_k_alignments(self, uris, k):
        return [self.answers[u] for u in uris]

    def score_pairs(self, pairs):
        import numpy as np

        return np.array([self.scores[p] for p in pairs])


def served(op, args, value):
    ticket = SimpleNamespace(ready=True, error=None, completed_at=0.001, value=value)
    return Outcome(Request(0.0, op, args), due=0.0, ticket=ticket)


def test_wrong_top_k_answer_fails_the_run():
    right = [("b1", 0.9), ("b2", 0.5)]
    checker = FakeChecker({"a": right}, {("a", "b1"): 0.9})
    outcomes = [
        served("topk", ("a", 2), list(right)),
        served("topk", ("a", 2), [("b2", 0.9), ("b1", 0.5)]),  # names swapped
        served("topk", ("a", 2), [("b1", 0.9), ("b2", 0.4)]),  # score off
        served("score", ("a", "b1"), 0.9),
        served("score", ("a", "b1"), 0.8),
    ]
    wrong = check_reads(outcomes, range(len(outcomes)), checker)
    assert wrong == {1, 2, 4}
    stats = summarise_stream(outcomes * 200, deadline_s=0.025, wrong=wrong)
    assert stats["ok"] < stats["sent"]


def test_near_tie_order_noise_is_not_a_wrong_answer():
    expected = [("b1", 0.9), ("b2", 0.5), ("b3", 0.5)]
    true_score = {"b4": 0.5, "b5": 0.3}.__getitem__
    assert same_top_k([("b1", 0.9), ("b3", 0.5), ("b2", 0.5 + 1e-15)], expected, true_score)
    # a name outside the recomputed list passes only when it truly ties the k-th
    assert same_top_k([("b1", 0.9), ("b2", 0.5), ("b4", 0.5)], expected, true_score)
    assert not same_top_k([("b1", 0.9), ("b2", 0.5), ("b5", 0.5)], expected, true_score)
    assert not same_top_k([("b1", 0.9), ("b2", 0.5), ("b4", 0.6)], expected, true_score)
    assert not same_top_k([("b1", 0.9), ("b2", 0.5), ("b2", 0.5)], expected, true_score)
    assert not same_top_k(expected[:2], expected, true_score)


def test_misindexed_tail_entry_fails_the_run():
    right = [("b1", 0.9), ("b2", 0.5)]
    checker = FakeChecker({"a": right}, {("a", "b3"): 0.1})
    outcomes = [
        served("topk", ("a", 2), [("b1", 0.9), ("b3", 0.5)]),  # b3 truly scores 0.1
        served("topk", ("a", 2), [("b1", 0.9), ("b1", 0.9)]),  # repeated name
    ]
    assert check_reads(outcomes, range(len(outcomes)), checker) == {0, 1}
