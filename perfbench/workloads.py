"""The four workloads, each driven through the public ``repro`` API.

Sizes, rates, datasets and model seeds are constants of each workload.  The
command's ``--seed`` picks the load: request arrivals, request mix and URI
popularity in ``serve`` and ``drift``.  ``campaign`` and ``partition`` take
no load from it: a different entity split changes which pairs are selected
and so the work of every batch (20% apart between two seeds), which would
hide a regression rather than measure one.  ``campaign`` and ``partition``
run a fixed number of batches, sized to about 15 s on a 2-core host;
``serve`` and ``drift`` stream for ``--seconds``.  Every workload sets up
``SETUP_REPEATS`` times and keeps the last set-up, so ``setup_s`` is a median.

The first model fit of a process pays for lazy imports and first-touch
allocation.  Users of a long-lived process pay that once, so every set-up
includes a small warm-up fit and no timed fit is the first of its process.

``serve`` is not among the workloads ``BENCHMARK.json`` gates, and drift
gates no read latency: what the frontend's threads see on the shared 2-vCPU
host moves with the host's load, not with the program (within one set of
ten drift runs the p50 of reads under retrains went from 14 ms to 25 ms and
their in-deadline share from 0.79 to 0.50; serve's overload answers/s had a
quartile spread of 0.41 in one set), and the one-thread probe that steadies
the CPU-bound figures does not track it.  ``serve`` still runs by name, and
drift prints its read latencies and deadline share.

Reads pick entities in proportion to their degree plus one in the served
catalog: a lookup is as likely as a link to the entity, so read popularity
follows the same skew the world generator gave the links, and no popularity
exponent is chosen here.  The share of top-k reads among them is an
assumption (no traffic record exists for this service); the repository's
serving bench sends top-k reads only.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from harness import (
    BenchError,
    HostSpeed,
    OpenLoop,
    median,
    percentile,
    poisson_schedule,
    summarise_stream,
)

SETUP_REPEATS = 3
BATCH_SIZE = 50
TOP_K = 10
TOP_K_SHARE = 0.8  # assumed; the rest of the reads are pair scores
DEADLINE_S = 0.025  # FrontendConfig's default deadline
CHECK_EVERY = 8  # every 8th top-k answer is recomputed and compared
SCORE_ATOL = 1e-9

# campaign / partition: D-W at full scale, the benchmark harness's TransE config
DW_SCALE = 1.0
CAMPAIGN_BATCHES = 5
PARTITION_BATCHES = 3
PARTITION_MAX_GROUPS = 12

# serve: a catalog larger than the service's 4096-entry result cache.  The
# nominal rate leaves each flush one or two cache misses, so p50 is the
# half-deadline flush.  The overload rate is above what the frontend answers
# (about 14k/s on 2 cores, with 10-15% shed), so that phase measures its
# capacity.  Goodput within the deadline is printed but not gated: past the
# knee the full admission queue makes most answers late, and it swings from
# 10k/s to 100/s between runs.
SERVE_ENTITIES = 4300
NOMINAL_RPS = 200.0
OVERLOAD_RPS = 16000.0
H1_SAMPLE = 600

# drift: the layout of the incremental-update bench
DRIFT_ENTITIES = 600
DRIFT_PIECES = 4
DRIFT_UPDATES = 12  # three whole cycles over the pieces
DRIFT_FOLDS = 3  # single-entity folds after each update
DRIFT_READ_RPS = 200.0
DRIFT_WRITE_SHARE = 0.8  # updates fall due evenly over the first 4/5 of the phase
ENTITIES_PER_UPDATE = 3


@dataclass
class Setup:
    """Seconds of each set-up, and the scale of the probes around them."""

    raw: list[float]
    factor: float

    @property
    def scaled_median(self) -> float:
        return median(self.raw) * self.factor


@dataclass
class Result:
    """One run's measurements, before they are named for the output.

    What each end-to-end figure measures, per workload.  "Scaled" figures
    are CPU-bound times put on the reference host's speed by
    :class:`harness.HostSpeed`; their raw values are printed beside them.

    ``setup``          every set-up, raw; ``setup_s`` is their median,
                       scaled by the median of the probes between them
    ``entity_h1``      test H@1 of the model the phase ends with (serve: on a
                       600-match sample through the service)
    ``wait_ms``        campaign, partition: mean labelled-batch wait;
                       drift: mean update wait (apply_update to hot_swap);
                       all scaled.  serve: nominal read p50, raw
    ``ok_frac``        campaign, partition: batches that pass their checks;
                       drift: reads answered correctly over reads sent;
                       serve: nominal reads correct within the deadline
                       over reads sent
    ``work_per_s``     campaign: labels per second of fit plus batches;
                       partition: labels per second; drift: updates per
                       second; all scaled.  serve: answers per second at
                       overload, raw
    """

    setup: Setup
    entity_h1: float
    wait_ms: float
    ok_frac: float
    work_per_s: float
    attempted: int
    failed: int
    phase: tuple[float, float]
    #: intervals of the main thread's own work; the trace's cover is taken here
    busy: list[tuple[float, float]] = field(default_factory=list)
    #: one line per failed check, printed before the result
    problems: list[str] = field(default_factory=list)
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def repeat_setup(build):
    """Run ``build`` ``SETUP_REPEATS`` times, with probe bursts between; keep the last state."""
    speed, seconds, state = HostSpeed(), [], None
    speed.measure()
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(state, "close"):
            state.close()
        state = None  # free the previous set-up before building the next
        start = time.perf_counter()
        state = build()
        seconds.append(time.perf_counter() - start)
        speed.measure()
    return state, Setup(seconds, speed.factor())


def start_timed(tracer) -> float:
    """Collect set-up garbage, then open the timed phase.

    Earlier set-ups and the pre-built request schedules would otherwise make
    the first full collection of the timed phase traverse objects a user's
    process never holds.  The collector stays on inside the phase.
    """
    gc.collect()
    tracer.run = "timed"
    return time.perf_counter()


def warm_up() -> None:
    """A small fit, so that no timed fit is the first of its process."""
    from repro import DAAKG, make_benchmark

    pair = make_benchmark("D-W", scale=0.1, seed=0)
    DAAKG(pair, dw_config(pretrain_epochs=1, rounds=1)).fit()


# ------------------------------------------------------------------ configs
def dw_config(pretrain_epochs: int = 6, rounds: int = 3):
    from repro import DAAKGConfig
    from repro.active.pool import PoolConfig
    from repro.alignment.trainer import AlignmentTrainingConfig
    from repro.embedding.trainer import EmbeddingTrainingConfig
    from repro.inference.power import InferencePowerConfig

    return DAAKGConfig(
        base_model="transe",
        pretrain=EmbeddingTrainingConfig(epochs=pretrain_epochs),
        alignment=AlignmentTrainingConfig(
            rounds=rounds, epochs_per_round=15, num_negatives=8,
            embedding_batches_per_round=3, embedding_batch_size=512,
        ),
        pool=PoolConfig(top_n=50),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        seed=0,
    )


def dw_pair():
    from repro import make_benchmark

    return make_benchmark("D-W", scale=DW_SCALE, seed=0)


def loop_config(config, batches: int):
    from repro.active.loop import ActiveLearningConfig

    return ActiveLearningConfig(
        batch_size=BATCH_SIZE, num_batches=batches, pool=config.pool,
        inference=config.inference, calibration=config.calibration,
    )


# ------------------------------------------------------------------- checks
def wrong_batches(records, seeds: set, batch_size: int) -> list[str]:
    """Batches that do not hold ``batch_size`` distinct pairs nobody labelled before."""
    labelled = set(seeds)
    wrong = []
    for record in records:
        keys = [(p.kind, p.left, p.right) for p in record.selected]
        again = labelled.intersection(keys)
        if len(keys) != batch_size or len(set(keys)) != batch_size or again:
            wrong.append(
                f"batch {record.batch_index}: {len(set(keys))} distinct of {len(keys)} "
                f"pairs, {len(again)} labelled before, expected {batch_size} new"
            )
        labelled.update(keys)
    return wrong


def seed_keys(pipeline) -> set:
    from repro.kg.elements import ElementKind

    ids = pipeline.pair.entity_match_ids(pipeline.pair.train_entity_pairs)
    return {(ElementKind.ENTITY, int(a), int(b)) for a, b in ids}


def same_top_k(got, expected, true_score) -> bool:
    """Whether a served top-k answer matches the recomputed one.

    The sharded view's scores depend on which rows share a micro-batch (BLAS
    blocking follows the slab shape): the same query differs by up to a few
    1e-15 between batches, and names whose scores tie within that noise may
    swap.  So the served names must be distinct, every score must match the
    recomputed one at its rank to ``SCORE_ATOL``, and every name must carry
    its true score to that tolerance: the recomputed score when the name is
    in the recomputed list, else ``true_score(name)``, and then it must tie
    with the k-th score.
    """
    names = [name for name, _ in got]
    if len(got) != len(expected) or len(set(names)) != len(names):
        return False
    expected_score = dict(expected)
    kth = expected[-1][1]
    for (name, score), (_, want) in zip(got, expected):
        if abs(score - want) > SCORE_ATOL:
            return False
        if name in expected_score:
            true = expected_score[name]
        elif abs(score - kth) > SCORE_ATOL:
            return False
        else:
            true = true_score(name)
        if abs(true - score) > SCORE_ATOL:
            return False
    return True


def check_reads(outcomes, indexes, checker) -> set[int]:
    """Recompute the answers at ``indexes`` on ``checker``; return the wrong ones.

    ``checker`` serves the same snapshot with its cache off.  Top-k answers
    must pass :func:`same_top_k`; pair scores are elementwise gathers and
    must match exactly.
    """
    wrong: set[int] = set()
    topk = [i for i in indexes if outcomes[i].request.op == "topk" and outcomes[i].answered]
    score = [i for i in indexes if outcomes[i].request.op == "score" and outcomes[i].answered]
    if topk:
        uris = sorted({outcomes[i].request.args[0] for i in topk})
        expected = dict(zip(uris, checker.top_k_alignments(uris, TOP_K)))
        for i in topk:
            uri = outcomes[i].request.args[0]

            def true_score(name, uri=uri):
                return float(checker.score_pairs([(uri, name)])[0])

            if not same_top_k(outcomes[i].ticket.value, expected[uri], true_score):
                wrong.add(i)
    if score:
        values = checker.score_pairs([outcomes[i].request.args for i in score])
        for i, value in zip(score, values.tolist()):
            if outcomes[i].ticket.value != value:
                wrong.add(i)
    return wrong


def degree_picker(rng, kg):
    """Draw entity names of ``kg`` with probability degree plus one."""
    names = list(kg.entities)
    weights = np.array([kg.entity_degree(i) + 1 for i in range(len(names))], dtype=float)
    cumulative = np.cumsum(weights / weights.sum())

    def pick() -> str:
        return names[min(int(np.searchsorted(cumulative, rng.random())), len(names) - 1)]

    return pick


def read_mix(rng, pair):
    pick_1, pick_2 = degree_picker(rng, pair.kg1), degree_picker(rng, pair.kg2)

    def make() -> tuple[str, tuple]:
        if rng.random() < TOP_K_SHARE:
            return "topk", (pick_1(), TOP_K)
        return "score", (pick_1(), pick_2())

    return make


def frontend_submit(frontend):
    def submit(op: str, args: tuple):
        if op == "topk":
            return frontend.submit_top_k(*args)
        return frontend.submit_score(*args)

    return submit


def frontend_layers(frontend, service, shed: int) -> dict[str, float]:
    stats = frontend.stats()
    flushes = stats["flush_reasons"]
    total = max(sum(flushes.values()), 1)
    return {
        "serving.cache_hit_frac": service.metrics()["cache_hit_ratio"],
        "serving.deadline_flush_frac": flushes["deadline"] / total,
        "serving.batch_mean": stats["resolved_total"] / max(stats["dispatched_batches"], 1),
        "serving.shed": float(shed),
    }


# ------------------------------------------------------- campaign, partition
def timed(busy: list, work):
    """Run ``work()``, appending its wall interval to ``busy``."""
    began = time.perf_counter()
    value = work()
    busy.append((began, time.perf_counter()))
    return value


def label_batches(pipeline, strategy, batches: int, fit: bool, setup, tracer) -> Result:
    """Time an optional fit plus ``batches`` labelled batches of ``strategy``.

    The loop runs one batch per call so that a probe burst separates the
    batches.  ``wait_ms`` is the mean batch: batch indexes differ in work,
    so the median jumps between indexes from run to run while the mean does
    not.
    """
    speed, busy, extras = HostSpeed(), [], {}
    start = start_timed(tracer)
    speed.measure()
    if fit:
        timed(busy, pipeline.fit)
        speed.measure()
        extras["fit_s"] = (busy[0][1] - busy[0][0], "s")
    loop = None

    def next_batch() -> None:
        nonlocal loop
        if loop is None:  # building the loop is part of the first wait
            loop = pipeline.active_learning(strategy, loop_config(pipeline.config, batches))
        loop.run(max_batches=1)

    for _ in range(batches):
        timed(busy, next_batch)
        speed.measure()
    end = time.perf_counter()
    tracer.run = "check"
    records = loop.records
    wrong = wrong_batches(records, seed_keys(pipeline), BATCH_SIZE)
    if len(records) != batches:
        wrong.append(f"{len(records)} batches ran, expected {batches}")
    factors = speed.factors(len(busy))
    raw_s = [hi - lo for lo, hi in busy]
    batch_factors = factors[len(factors) - batches:]
    batch_ms = [r.seconds * 1e3 for r in records]
    last = records[-1]
    extras.update(
        batch_s=(median(batch_ms) / 1e3, "s"),
        entity_h1=(last.entity_scores.hits_at_1, "ratio"),
        relation_h1=(last.relation_scores.hits_at_1, "ratio"),
        raw_wait_ms=(statistics.fmean(batch_ms), "ms"),
        raw_work_per_s=(BATCH_SIZE * len(records) / sum(raw_s), "1/s"),
        probe_ms=(speed.probe_ms(), "ms"),
    )
    return Result(
        setup=setup,
        entity_h1=last.entity_scores.hits_at_1,
        wait_ms=statistics.fmean(ms * f for ms, f in zip(batch_ms, batch_factors)),
        ok_frac=max(1.0 - len(wrong) / batches, 0.0),
        work_per_s=BATCH_SIZE * len(records) / sum(s * f for s, f in zip(raw_s, factors)),
        attempted=batches,
        failed=len(wrong),
        phase=(start, end),
        busy=busy,
        extras=extras,
        problems=wrong,
    )


def run_campaign(seed: int, seconds: float, tracer) -> Result:
    from repro import DAAKG

    def build():
        warm_up()
        return DAAKG(dw_pair(), dw_config())

    pipeline, setup = repeat_setup(build)
    return label_batches(pipeline, "daakg", CAMPAIGN_BATCHES, True, setup, tracer)


def run_partition(seed: int, seconds: float, tracer) -> Result:
    from repro import DAAKG
    from repro.active.partition import PartitionSelectionConfig
    from repro.active.strategies import DAAKGStrategy

    def build():
        warm_up()
        return DAAKG(dw_pair(), dw_config()).fit()

    pipeline, setup = repeat_setup(build)
    strategy = DAAKGStrategy(
        algorithm="partition",
        partition_config=PartitionSelectionConfig(max_partitions=PARTITION_MAX_GROUPS),
    )
    return label_batches(pipeline, strategy, PARTITION_BATCHES, False, setup, tracer)


# ------------------------------------------------------------------- serve
def serve_config():
    from repro import DAAKGConfig
    from repro.active.pool import PoolConfig
    from repro.alignment.trainer import AlignmentTrainingConfig
    from repro.embedding.trainer import EmbeddingTrainingConfig

    return DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=1),
        alignment=AlignmentTrainingConfig(
            rounds=1, epochs_per_round=2, num_negatives=4,
            embedding_batches_per_round=1, embedding_batch_size=512,
        ),
        pool=PoolConfig(top_n=10),
        similarity_backend="sharded",
        use_semi_supervision=False,
        seed=0,
    )


class Served:
    """A pipeline frozen into a snapshot, served through the default frontend."""

    def __init__(self, pair, snapshot, campaign=None) -> None:
        from repro import serve
        from repro.serving import AlignmentService, FrontendConfig, ServingFrontend

        self.pair = pair
        self.campaign = campaign
        self.service = serve(snapshot)
        self.frontend = ServingFrontend(self.service, FrontendConfig(), resolve_env=False).start()
        self.checker = AlignmentService(snapshot, cache_size=0)

    def close(self) -> None:
        self.frontend.stop()


def stream(frontend, schedule, seconds: float) -> OpenLoop:
    from repro.serving import BackpressureError

    loop = OpenLoop(frontend_submit(frontend), schedule, shed_errors=(BackpressureError,))
    loop.start()
    loop.join(timeout=seconds + 60.0)
    if not frontend.drain(timeout=60.0):
        raise BenchError("frontend did not drain")
    return loop


def run_serve(seed: int, seconds: float, tracer) -> Result:
    from repro import DAAKG
    from repro.datasets import make_large_world_pair
    from repro.kg.pair import SplitRatios
    from repro.serving import ServingSnapshot

    def build():
        warm_up()
        pair = make_large_world_pair(
            SERVE_ENTITIES, num_relations=10, mean_out_degree=4.0, seed=0, shared_topology=True
        )
        pair.split_entity_matches(SplitRatios(train=0.3, valid=0.1, test=0.6), seed=0)
        pipeline = DAAKG(pair, serve_config()).fit()
        return Served(pair, ServingSnapshot.from_pipeline(pipeline))

    served, setup = repeat_setup(build)
    rng = np.random.default_rng(seed)
    make = read_mix(rng, served.pair)
    half = seconds / 2.0
    nominal_schedule = poisson_schedule(rng, NOMINAL_RPS, half, make)
    overload_schedule = poisson_schedule(rng, OVERLOAD_RPS, half, make)
    start = start_timed(tracer)
    try:
        nominal = stream(served.frontend, nominal_schedule, half)
        overload = stream(served.frontend, overload_schedule, half)
        end = time.perf_counter()
        shed = sum(o.shed for o in nominal.outcomes + overload.outcomes)
        layers = frontend_layers(served.frontend, served.service, shed)
    finally:
        served.close()
    tracer.run = "check"
    results = {}
    for name, loop in (("nominal", nominal), ("overload", overload)):
        outcomes = loop.outcomes
        sample = [i for i, o in enumerate(outcomes)
                  if o.request.op == "score" or i % CHECK_EVERY == 0]
        wrong = check_reads(outcomes, sample, served.checker)
        results[name] = summarise_stream(outcomes, DEADLINE_S, wrong)
        results[name]["late_ms"] = max(loop.lateness()) * 1e3
        answered = [o for i, o in enumerate(outcomes) if o.answered and i not in wrong]
        last = max(o.ticket.completed_at for o in answered)
        results[name]["served_per_s"] = len(answered) / (last - outcomes[0].due)
        results[name]["late_p99_ms"] = percentile(loop.lateness(), 0.99) * 1e3
    test = served.pair.test_entity_pairs[:H1_SAMPLE]
    top = served.checker.top_k_alignments([a for a, _ in test], 1)
    entity_h1 = sum(1 for (a, b), best in zip(test, top) if best[0][0] == b) / len(test)
    n, o = results["nominal"], results["overload"]
    layers["load.late_ms"] = max(n["late_p99_ms"], o["late_p99_ms"])
    return Result(
        setup=setup,
        entity_h1=entity_h1,
        wait_ms=n["p50_ms"],
        ok_frac=n["ok"] / n["sent"],
        work_per_s=o["served_per_s"],
        attempted=n["sent"] + o["sent"],
        failed=n["errors"] + o["errors"] + n["wrong"] + o["wrong"],
        phase=(start, end),
        extras={
            "p50_ms": (n["p50_ms"], "ms"),
            "p99_ms": (n["p99_ms"], "ms"),
            "ok_frac": (n["ok"] / n["sent"], "ratio"),
            "goodput_rps": (o["ok"] / half, "req/s"),
            "overload_p50_ms": (o["p50_ms"], "ms"),
            "overload_shed_frac": (o["shed"] / o["sent"], "ratio"),
            "cache_hit_frac": (layers["serving.cache_hit_frac"], "ratio"),
            "late_max_ms": (max(n["late_ms"], o["late_ms"]), "ms"),
            "sampled_entity_h1": (entity_h1, "ratio"),
        },
        layers=layers,
    )


# ------------------------------------------------------------------- drift
def drift_config():
    from repro import DAAKGConfig
    from repro.active.pool import PoolConfig
    from repro.alignment.trainer import AlignmentTrainingConfig
    from repro.embedding.trainer import EmbeddingTrainingConfig
    from repro.inference.power import InferencePowerConfig

    return DAAKGConfig(
        base_model="transe",
        entity_dim=24,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=3),
        alignment=AlignmentTrainingConfig(
            rounds=2, epochs_per_round=8, num_negatives=6,
            embedding_batches_per_round=2, embedding_batch_size=512,
        ),
        pool=PoolConfig(top_n=15),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        similarity_backend="sharded",
        seed=0,
    )


def drift_delta(campaign, step: int):
    """New gold-linked entities anchored inside piece ``step % pieces``."""
    from repro import KGDelta

    piece = campaign.partition.pieces[step % DRIFT_PIECES]
    anchors_1 = [n for n in piece.pair.kg1.entities if ":inc" not in n]
    anchors_2 = [n for n in piece.pair.kg2.entities if ":inc" not in n]
    relations_1 = campaign.dataset.kg1.relations
    relations_2 = campaign.dataset.kg2.relations
    new_1, new_2, triples_1, triples_2, links = [], [], [], [], []
    for j in range(ENTITIES_PER_UPDATE):
        a, b = f"lw1:inc{step}_{j}", f"lw2:inc{step}_{j}"
        new_1.append(a)
        new_2.append(b)
        at = 7 * step + 3 * j
        triples_1.append((a, relations_1[j % len(relations_1)], anchors_1[at % len(anchors_1)]))
        triples_1.append((anchors_1[(at + 1) % len(anchors_1)],
                          relations_1[(j + 1) % len(relations_1)], a))
        triples_2.append((b, relations_2[j % len(relations_2)], anchors_2[at % len(anchors_2)]))
        links.append((a, b))
    return KGDelta(
        added_entities_1=tuple(new_1), added_entities_2=tuple(new_2),
        added_triples_1=tuple(triples_1), added_triples_2=tuple(triples_2),
        added_gold_links=tuple(links),
    )


def fold_delta(campaign, step: int, fold: int):
    """One new KG1 entity whose triples stay inside a single piece."""
    from repro import KGDelta

    piece = campaign.partition.pieces[(step + fold) % DRIFT_PIECES]
    anchors = [n for n in piece.pair.kg1.entities if ":inc" not in n]
    relations = campaign.dataset.kg1.relations
    name = f"lw1:fold{step}_{fold}"
    at = 11 * step + 5 * fold
    triples = [
        (name, relations[fold % len(relations)], anchors[at % len(anchors)]),
        (anchors[(at + 2) % len(anchors)], relations[(fold + 1) % len(relations)], name),
    ]
    return KGDelta.single_entity(name, triples, side=1)


def run_drift(seed: int, seconds: float, tracer) -> Result:
    from repro import PartitionConfig, PartitionedCampaign
    from repro.active.loop import ActiveLearningConfig
    from repro.datasets import make_large_world_pair
    from repro.kg.pair import SplitRatios
    from repro.serving import AlignmentService, BackpressureError, ServingSnapshot

    def build():
        warm_up()
        pair = make_large_world_pair(
            DRIFT_ENTITIES, num_relations=10, mean_out_degree=5.0, seed=0,
            shared_topology=True, num_communities=DRIFT_PIECES, inter_community_fraction=0.05,
        )
        pair.split_entity_matches(SplitRatios(train=0.3, valid=0.1, test=0.6), seed=0)
        campaign = PartitionedCampaign(
            pair,
            drift_config(),
            strategy="uncertainty",
            active_config=ActiveLearningConfig(batch_size=20, num_batches=1, fine_tune_epochs=4),
            partition=PartitionConfig(
                num_partitions=DRIFT_PIECES, workers=1, executor="serial",
                max_refine_passes=30, balance_slack=0.6,
            ),
            resolve_env=False,
        )
        campaign.run()
        return Served(pair, ServingSnapshot.from_campaign(campaign), campaign)

    served, setup = repeat_setup(build)
    campaign, service = served.campaign, served.service
    rng = np.random.default_rng(seed)
    make = read_mix(rng, served.pair)
    schedule = poisson_schedule(rng, DRIFT_READ_RPS, seconds, make)
    reads = OpenLoop(frontend_submit(served.frontend), schedule, shed_errors=(BackpressureError,))
    # snapshot i answers reads sent after swap i returned and done before swap i+1 began
    windows = [(-np.inf, None, served.checker)]
    update_s, fold_ms, pieces_touched, busy, problems = [], [], [], [], []
    speed = HostSpeed()  # a probe burst before each update and after the last
    token = service.state_token
    start = start_timed(tracer)
    reads.start(start)
    try:
        for step in range(DRIFT_UPDATES):
            due = start + step * seconds * DRIFT_WRITE_SHARE / DRIFT_UPDATES
            if time.perf_counter() < due:
                time.sleep(due - time.perf_counter())
            speed.measure()
            delta = drift_delta(campaign, step)
            began = time.perf_counter()
            report = campaign.apply_update(delta)
            snapshot = ServingSnapshot.from_campaign(campaign)
            swap_start = time.perf_counter()
            new_token = service.hot_swap(snapshot)
            returned = time.perf_counter()
            update_s.append(returned - began)
            busy.append((began, returned))
            windows[-1] = (windows[-1][0], swap_start, windows[-1][2])
            windows.append((returned, None, AlignmentService(snapshot, cache_size=0)))
            if report.touched != (step % DRIFT_PIECES,):
                problems.append(f"update {step} touched pieces {report.touched}")
            if new_token == token:
                problems.append(f"update {step} left the state token unchanged")
            token = new_token
            pieces_touched.append(
                sum(r.status == "completed" for r in report.result.partition_results)
            )
            for fold in range(DRIFT_FOLDS):
                delta = fold_delta(campaign, step, fold)
                began = time.perf_counter()
                service.apply_delta(delta)
                fold_ms.append((time.perf_counter() - began) * 1e3)
                busy.append((began, time.perf_counter()))
                if service.state_token == token:
                    problems.append(f"fold {step}.{fold} left the state token unchanged")
                token = service.state_token
        speed.measure()
        writes_end = time.perf_counter()
        reads.join(timeout=seconds + 60.0)
        if not served.frontend.drain(timeout=60.0):
            raise BenchError("frontend did not drain")
        end = time.perf_counter()
        shed = sum(o.shed for o in reads.outcomes)
        layers = frontend_layers(served.frontend, service, shed)
    finally:
        served.close()
    tracer.run = "check"
    outcomes = reads.outcomes
    wrong: set[int] = set()
    checked = 0
    for opened, closed, checker in windows:
        inside = [
            i for i, o in enumerate(outcomes)
            if o.answered and o.sent > opened
            and (closed is None or o.ticket.completed_at < closed)
        ]
        checked += len(inside)
        wrong |= check_reads(outcomes, inside, checker)
    stats = summarise_stream(outcomes, DEADLINE_S, wrong)
    answered_right = sum(1 for i, o in enumerate(outcomes) if o.answered and i not in wrong)
    entity_h1 = campaign.evaluate()["entity"].hits_at_1
    mean_update = statistics.fmean(update_s)
    scaled_update = statistics.fmean(
        s * f for s, f in zip(update_s, speed.factors(len(update_s)))
    )
    layers["load.late_ms"] = percentile(reads.lateness(), 0.99) * 1e3
    layers["runtime.pieces_per_update"] = statistics.fmean(pieces_touched)
    return Result(
        setup=setup,
        entity_h1=entity_h1,
        wait_ms=scaled_update * 1e3,
        ok_frac=answered_right / stats["sent"],
        work_per_s=1.0 / scaled_update,
        attempted=stats["sent"] + len(update_s) + len(fold_ms),
        failed=stats["errors"] + stats["wrong"] + len(problems),
        phase=(start, end),
        busy=busy,
        problems=problems,
        extras={
            "update_s": (mean_update, "s"),
            "fold_ms": (median(fold_ms), "ms"),
            "p50_ms": (stats["p50_ms"], "ms"),
            "p99_ms": (stats["p99_ms"], "ms"),
            "ok_frac": (stats["ok"] / stats["sent"], "ratio"),
            "entity_h1": (entity_h1, "ratio"),
            "reads_checked": (float(checked), "count"),
            "writes_s": (writes_end - start, "s"),
            "late_max_ms": (max(reads.lateness()) * 1e3, "ms"),
            "raw_work_per_s": (1.0 / mean_update, "1/s"),
            "probe_ms": (speed.probe_ms(), "ms"),
        },
        layers=layers,
    )


WORKLOADS = {
    "campaign": run_campaign,
    "partition": run_partition,
    "serve": run_serve,
    "drift": run_drift,
}
