"""serve-poisson: one-worker QAServer under open-loop Poisson arrivals.

Questions are due on a seeded schedule at a fixed absolute rate (80 q/s,
about half of one worker's capacity) whatever the server does: an open
loop, as independent users make.  The schedule is a Poisson process
conditioned on the round's question count, so every round offers exactly
the same rate.  Between due times the generator keeps polling the server,
so a finished answer is collected when it finishes, not at the next
arrival.  Each question is timed from its due time to the moment its
response is collected, which charges a late generator or a stalled server
to the questions that waited; how late the generator ran is reported.

Admission limits are set so nothing can be shed: the queue holds a whole
round and the deadline is an hour.  Micro-batching stays off (the server
default).  A run is whole rounds; each round starts a server on an empty
artifact cache (timed as ``setup_s``), streams the same questions on its
own arrival schedule, drains and stops it.
"""

from __future__ import annotations

import gc
import time
import typing as t
from dataclasses import dataclass, field

import numpy as np

import checks
import qa_workloads
from common import CORPUS_SEED, CacheSandbox, HostSpeed, Report, median, peak_rss_mb, percentile
from tracing import LayerTimer, patched

import repro.experiments.context as context
from repro.corpus import CorpusConfig, generate_corpus
from repro.qa import QAPipeline
from repro.serving import AdmissionConfig, QAServer, ServerConfig

#: Longest sleep between polls while nothing is due.
POLL_IDLE_S = 0.0005

#: Rounds a run may take at most, whatever ``--seconds`` asks.
MAX_ROUNDS = 12

#: Seconds a round may wait for its last answers before giving up.
SETTLE_TIMEOUT_S = 60.0

#: Host-speed kernel timings before and after each round; none run while
#: questions stream, where they would hold the generator.
SPEED_SAMPLES = 20


@dataclass(frozen=True)
class ServeParams:
    rate_qps: float = 80.0
    #: Questions per round (10 s of arrivals at 80 q/s).
    per_round: int = 800
    zipf_unique: int = 60
    min_rounds: int = 3
    mrr_floor: float = 0.9
    corpus: dict[str, t.Any] = field(default_factory=dict)


PARAMS = ServeParams()
SMALL = ServeParams(
    per_round=24, zipf_unique=12, min_rounds=2, mrr_floor=0.3,
    corpus={"n_collections": 2, "docs_per_collection": 20},
)


def schedule(n: int, rate_qps: float, seed: int, round_no: int) -> list[float]:
    """Due times (s from stream start) of ``n`` Poisson arrivals at ``rate_qps``.

    A Poisson process conditioned on ``n`` arrivals in ``[0, n / rate)``
    places them as sorted uniform points, so the offered rate is exact.
    Each round gets its own draw: one draw's bursts would otherwise set
    the tail latency of the whole run.
    """
    rng = np.random.default_rng([seed, 1, round_no])
    return sorted(rng.uniform(0.0, n / rate_qps, size=n).tolist())


@dataclass
class _Round:
    setup_s: float
    raw_latency_p50_s: float
    stream_s: float
    failed: int
    latencies: list[float]
    services: list[float]
    answers: dict[int, tuple[tuple[str, float], ...]]
    lag_max_s: float
    ledger_problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)


def _one_round(
    params: ServeParams,
    stream: t.Sequence[tuple[int, str]],
    due: t.Sequence[float],
    trace: bool,
) -> _Round:
    n = len(stream)
    config = ServerConfig(
        corpus=CorpusConfig(seed=CORPUS_SEED, **params.corpus),
        workers=1,
        admission=AdmissionConfig(max_queue_depth=n, deadline_s=3600.0),
    )
    timer = LayerTimer()
    clock = time.perf_counter
    speed = HostSpeed()
    speed.sample(SPEED_SAMPLES)
    server = QAServer(config)
    t0 = clock()
    if trace:
        # The parent builds the shared artifact before the worker attaches.
        with patched(context, "load_or_generate_corpus",
                     timer.wrapper(context.load_or_generate_corpus, "corpus.generate")), \
             patched(context, "load_or_build_indexes",
                     timer.wrapper(context.load_or_build_indexes, "retrieval.index_build")):
            server.start()
    else:
        server.start()
    setup_s = clock() - t0
    try:
        if trace:
            timer.wrap(server, "submit", "serving.submit")
            timer.wrap(server, "poll", "serving.poll")
        base = clock() + 0.01
        due_at = [base + d for d in due]
        collected: dict[int, float] = {}
        responses = server.responses
        seen = 0
        lag_max = 0.0
        i = 0
        give_up = due_at[-1] + SETTLE_TIMEOUT_S
        while True:
            now = clock()
            while i < n and now >= due_at[i]:
                lag_max = max(lag_max, now - due_at[i])
                qid, text = stream[i]
                server.submit(text, qid=qid, arrival_s=due[i])
                i += 1
                now = clock()
            if server.poll():
                now = clock()
                for resp in responses[seen:]:
                    collected[resp.seq] = now
                seen = len(responses)
            elif i >= n and server.in_flight == 0:
                break
            elif now > give_up:
                break
            else:
                wait = due_at[i] - now if i < n else POLL_IDLE_S
                time.sleep(min(POLL_IDLE_S, max(0.0, wait)))
        stream_s = max(collected.values(), default=due_at[-1]) - base
        ledger = server.drain(timeout_s=10.0)
    finally:
        server.stop()
    speed.sample(SPEED_SAMPLES)
    # Every time below is at the reference speed (see HostSpeed).
    scale = speed.scale()
    # A question succeeded when its answers were collected in the loop.
    # The server reports a worker's exception as ANSWERED with no answers,
    # and a question still open at the timeout is answered, if at all, only
    # inside drain(); both count as failed.
    answered = [
        r for r in server.responses if r.answered and r.answers and r.seq in collected
    ]
    latencies = [scale * (collected[r.seq] - due_at[r.seq]) for r in answered]
    services = [scale * r.service_s for r in answered]
    rnd = _Round(
        setup_s=setup_s * scale,
        raw_latency_p50_s=percentile(latencies, 0.50) / scale,
        stream_s=stream_s,
        failed=n - len(answered),
        latencies=latencies,
        services=services,
        answers={r.seq: r.answers for r in answered},
        lag_max_s=lag_max * scale,
        ledger_problems=checks.ledger_balanced(ledger, n),
    )
    if trace:
        parent_build = timer.busy_s["corpus.generate"] + timer.busy_s["retrieval.index_build"]
        transits = [lat - s for lat, s in zip(latencies, services)]
        rnd.layers = {
            "serving.submit_ms_per_q": 1e3 * scale * timer.busy_s["serving.submit"] / n,
            "serving.poll_ms_per_q": 1e3 * scale * timer.busy_s["serving.poll"] / n,
            "serving.service_ms_p50": 1e3 * percentile(services, 0.50),
            "serving.service_ms_p99": 1e3 * percentile(services, 0.99),
            "serving.transit_ms_p50": 1e3 * percentile(transits, 0.50),
            "serving.transit_ms_p99": 1e3 * percentile(transits, 0.99),
            "serving.worker_busy_share": sum(services) / scale / stream_s,
            "serving.worker_ready_s": rnd.setup_s - scale * parent_build,
            "corpus.generate_s": scale * timer.busy_s["corpus.generate"],
            "retrieval.index_build_s": scale * timer.busy_s["retrieval.index_build"],
        }
    return rnd


def run(
    seed: int, seconds: float, trace: bool, small: bool, sandbox: CacheSandbox
) -> Report:
    params = SMALL if small else PARAMS
    report = Report("serve-poisson")
    corpus = generate_corpus(CorpusConfig(seed=CORPUS_SEED, **params.corpus))
    stream, expected = qa_workloads.make_stream(corpus, params.zipf_unique, params.per_round, seed)
    del corpus

    rounds: list[_Round] = []
    streamed_s = 0.0
    while len(rounds) < params.min_rounds or (streamed_s < seconds and len(rounds) < MAX_ROUNDS):
        sandbox.fresh()
        gc.collect()
        due = schedule(len(stream), params.rate_qps, seed, len(rounds))
        rnd = _one_round(params, stream, due, trace)
        rounds.append(rnd)
        streamed_s += rnd.stream_s
        report.attempted += len(stream)
        report.failed += rnd.failed
        report.check(rnd.ledger_problems)
    # Read before the reference build below adds to this process.
    rss_mb = peak_rss_mb() + peak_rss_mb(children=True)

    # Reference answers, computed in this process on the re-tokenize path.
    built = qa_workloads.build(1, params.corpus)
    ref_pipeline = QAPipeline(
        built.indexed.reconfigured(conjunction_cache=0, galloping=False),
        built.recognizer,
        use_term_index=False,
    )
    reference: dict[str, t.Any] = {}
    for qid, text in stream:
        if text not in reference:
            reference[text] = ref_pipeline.answer(text, qid=qid)
    report.check(checks.answers_in_paragraphs(
        reference.values(), checks.paragraph_texts(built.corpus)))
    reciprocal = []
    pairs = []
    for rnd in rounds:
        for seq, served in rnd.answers.items():
            text = stream[seq][1]
            pairs.append((text, served, reference[text]))
            reciprocal.append(checks.reciprocal_rank([a for a, _ in served], expected[text]))
    report.check(checks.served_as_reference(pairs))
    mrr = float(np.mean(reciprocal)) if reciprocal else 0.0
    report.check(checks.mrr_floor(mrr, params.mrr_floor))

    lag_max_ms = 1e3 * max(rnd.lag_max_s for rnd in rounds)
    report.info.update({
        "rounds": len(rounds),
        "questions_per_round": len(stream),
        "rate_qps": params.rate_qps,
        "answer_mrr": mrr,
        "generator_lag_ms_max": lag_max_ms,
        "round_raw_latency_p50_ms": [round(1e3 * r.raw_latency_p50_s, 4) for r in rounds],
    })
    if not trace:
        report.metrics.update({
            "setup_s": median([r.setup_s for r in rounds]),
            "throughput_qps": median([len(r.latencies) / r.stream_s for r in rounds]),
            # Per-round percentiles, median over rounds: a host stall
            # congests the queue of one round and would otherwise set the
            # tail of the whole run.
            "latency_p50_ms": median([1e3 * percentile(r.latencies, 0.50) for r in rounds]),
            "latency_p99_ms": median([1e3 * percentile(r.latencies, 0.99) for r in rounds]),
            "peak_rss_mb": rss_mb,
            "host_ms_per_q": median([1e3 * float(np.mean(r.services)) for r in rounds]),
        })
        return report
    for key in rounds[0].layers:
        report.metrics[key] = median([r.layers[key] for r in rounds])
    report.metrics.update({
        "serving.generator_lag_ms_max": lag_max_ms,
        "qa.question_repeat_share": qa_workloads.repeat_share(stream),
        "qa.answer_mrr": mrr,
        "trace.host_ms_per_q": median([1e3 * float(np.mean(r.services)) for r in rounds]),
    })
    return report
