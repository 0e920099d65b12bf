"""qa-zipf and qa-distinct: the serial in-process pipeline.

Both answer questions one at a time through ``QAPipeline.answer`` on the
default corpus.  They differ in how much the questions repeat:

* qa-zipf draws a stream from the 60 most-generated question texts with
  Zipf popularity (s = 1.1), so most questions repeat and repeat-driven
  caches (the conjunction cache, any future memo) carry the run;
* qa-distinct enlarges the knowledge base threefold and asks every
  distinct question text exactly once, so a gain that needs repeated
  questions has nothing to work on there.

A run is whole rounds.  Each round sets the system up from scratch
(corpus, index, recognizer; timed as ``setup_s``) and answers the same
seeded stream, so caches start cold in every round and the run's cache
behaviour does not depend on how many rounds fit in the time.
"""

from __future__ import annotations

import gc
import time
import typing as t
from dataclasses import dataclass, field

import numpy as np

import checks
from common import CORPUS_SEED, HostSpeed, Report, median, peak_rss_mb, percentile
from tracing import LayerTimer

from repro.corpus import (
    CorpusConfig,
    build_knowledge_base,
    generate_corpus,
    generate_questions,
)
from repro.nlp.entities import EntityRecognizer
from repro.nlp.stemming import SHARED_STEM_CACHE
from repro.observability.names import POSTINGS_SCANNED
from repro.qa import QAPipeline
from repro.retrieval import IndexedCorpus

#: ``build_knowledge_base``'s default sizes (the default corpus's KB).
_KB_SIZES = {
    "n_persons": 60,
    "n_places": 50,
    "n_orgs": 25,
    "n_diseases": 15,
    "n_products": 25,
}

#: Rounds a run may take at most, whatever ``--seconds`` asks.
MAX_ROUNDS = 12

#: Zipf exponent of the question mix.
ZIPF_S = 1.1

#: Questions answered between two timings of the host-speed kernel.
SPEED_EVERY = 25


@dataclass(frozen=True)
class QAParams:
    #: Multiplier on the knowledge base's default sizes.
    kb_scale: int
    #: Distinct texts the Zipf stream draws from; 0 = ask every distinct
    #: text once instead.
    zipf_unique: int
    #: Zipf: questions per round.  Distinct: cap on distinct texts (0 = all).
    stream_len: int
    #: Lowest acceptable MRR against the generator's planted facts.
    mrr_floor: float
    min_rounds: int = 3
    #: Questions per round re-answered on the reference path.
    reference_samples: int = 24
    #: ``CorpusConfig`` overrides (the self-test's smaller corpus).
    corpus: dict[str, t.Any] = field(default_factory=dict)


PARAMS = {
    "qa-zipf": QAParams(kb_scale=1, zipf_unique=60, stream_len=600, mrr_floor=0.9, min_rounds=4),
    "qa-distinct": QAParams(kb_scale=3, zipf_unique=0, stream_len=0, mrr_floor=0.85),
}

SMALL = {
    "qa-zipf": QAParams(
        kb_scale=1, zipf_unique=12, stream_len=30, mrr_floor=0.3, min_rounds=2,
        reference_samples=6, corpus={"n_collections": 2, "docs_per_collection": 20},
    ),
    "qa-distinct": QAParams(
        kb_scale=1, zipf_unique=0, stream_len=30, mrr_floor=0.3, min_rounds=2,
        reference_samples=6, corpus={"n_collections": 2, "docs_per_collection": 20},
    ),
}


@dataclass
class Built:
    corpus: t.Any
    indexed: IndexedCorpus
    recognizer: EntityRecognizer
    pipeline: QAPipeline
    generate_s: float
    index_s: float
    setup_s: float


def build(kb_scale: int, corpus_overrides: dict[str, t.Any]) -> Built:
    """Start to ready: knowledge base, corpus, index, recognizer, pipeline."""
    # A fresh process starts with an empty stem cache; so does every round.
    SHARED_STEM_CACHE.clear()
    t0 = time.perf_counter()
    kb = build_knowledge_base(
        **{k: v * kb_scale for k, v in _KB_SIZES.items()}, seed=CORPUS_SEED + 1
    )
    corpus = generate_corpus(CorpusConfig(seed=CORPUS_SEED, **corpus_overrides), knowledge=kb)
    t1 = time.perf_counter()
    indexed = IndexedCorpus(corpus)
    t2 = time.perf_counter()
    recognizer = EntityRecognizer(
        corpus.knowledge.gazetteer(), extra_nationalities=corpus.knowledge.nationalities
    )
    pipeline = QAPipeline(indexed, recognizer)
    t3 = time.perf_counter()
    return Built(corpus, indexed, recognizer, pipeline, t1 - t0, t2 - t1, t3 - t0)


def make_stream(
    corpus: t.Any, zipf_unique: int, length: int, seed: int
) -> tuple[list[tuple[int, str]], dict[str, set[str]]]:
    """The seeded question stream and each text's planted answers.

    ``zipf_unique > 0`` asks ``length`` questions over that many distinct
    texts in exact Zipf proportions (text of rank ``r`` gets its share
    ``∝ 1/r^s`` of the stream, rounded by largest remainder), in seeded
    order.  Exact counts keep the mix, and so the work per question, the
    same for every seed; a seeded draw would move it by more than the
    benchmark's bounds.  ``zipf_unique == 0`` asks every distinct text
    once in seeded order (the first ``length`` of them, 0 = all).
    """
    expected: dict[str, set[str]] = {}
    first_qid: dict[str, int] = {}
    for q in generate_questions(corpus):
        expected.setdefault(q.text, set()).add(q.expected_answer)
        first_qid.setdefault(q.text, q.qid)
    texts = list(first_qid)
    rng = np.random.default_rng(seed)
    if zipf_unique:
        unique = texts[:zipf_unique]
        weights = 1.0 / np.arange(1, len(unique) + 1) ** ZIPF_S
        shares = length * weights / weights.sum()
        counts = np.floor(shares).astype(int)
        leftover = length - int(counts.sum())
        counts[np.argsort(-(shares - counts), kind="stable")[:leftover]] += 1
        chosen = [unique[i] for i in rng.permutation(np.repeat(np.arange(len(unique)), counts))]
    else:
        order = rng.permutation(len(texts))
        if length:
            order = order[:length]
        chosen = [texts[i] for i in order]
    return [(first_qid[text], text) for text in chosen], expected


def repeat_share(stream: t.Sequence[tuple[int, str]]) -> float:
    """Share of questions whose text was already asked earlier in the stream."""
    return 1.0 - len({text for _, text in stream}) / len(stream)


class _Probes:
    """The traced run's wrappers around one round's pipeline."""

    def __init__(self, built: Built) -> None:
        self.timer = LayerTimer()
        self.seen: set[str] = set()
        self.ner_repeats = 0
        p = built.pipeline
        for module, method in (("qp", "process"), ("pr", "retrieve"), ("ps", "score"),
                               ("po", "order"), ("ap", "extract")):
            self.timer.wrap(getattr(p, module), method, f"qa.{module}")
        self.timer.wrap(built.recognizer, "recognize", "nlp.ner", before=self._saw)

    def _saw(self, text: str, *_: t.Any, **__: t.Any) -> None:
        if text in self.seen:
            self.ner_repeats += 1
        else:
            self.seen.add(text)


def _spread_sample(n: int, k: int) -> list[int]:
    """``k`` indices spread evenly over ``range(n)``."""
    return sorted({int(i) for i in np.linspace(0, n - 1, num=min(n, k))})


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> Report:
    params = (SMALL if small else PARAMS)[workload]
    report = Report(workload)
    rounds: list[dict[str, float]] = []
    #: Per round, each stream position's answer time (NaN where it failed).
    times: list[np.ndarray] = []
    reciprocal: list[float] = []
    reference: dict[str, t.Any] = {}
    stream: list[tuple[int, str]] = []
    expected: dict[str, set[str]] = {}
    paragraphs: dict[tuple[int, int], str] = {}
    answering_s = 0.0
    while len(rounds) < params.min_rounds or (answering_s < seconds and len(rounds) < MAX_ROUNDS):
        built = build(params.kb_scale, params.corpus)
        if not stream:
            stream, expected = make_stream(built.corpus, params.zipf_unique, params.stream_len, seed)
            paragraphs = checks.paragraph_texts(built.corpus)
        probes = _Probes(built) if trace else None
        stem0 = (SHARED_STEM_CACHE.hits, SHARED_STEM_CACHE.misses)
        answered: list[tuple[str, t.Any]] = []
        row_times = np.full(len(stream), np.nan)
        speed = HostSpeed()
        speed.sample(10)
        speed.paused = 0.0
        t_start = time.perf_counter()
        for i, (qid, text) in enumerate(stream):
            if i % SPEED_EVERY == 0:
                speed.sample()
            t0 = time.perf_counter()
            try:
                result = built.pipeline.answer(text, qid=qid)
            except Exception as exc:  # counted, and the run goes on
                report.failed += 1
                report.info.setdefault("first_error", f"{type(exc).__name__}: {exc}")
                continue
            row_times[i] = time.perf_counter() - t0
            answered.append((text, result))
        wall = time.perf_counter() - t_start - speed.paused
        answering_s += wall
        report.attempted += len(stream)
        # Every time below is at the reference speed (see HostSpeed).
        scale = speed.scale()
        times.append(row_times * scale)

        row = {
            "setup_s": built.setup_s * scale,
            "generate_s": built.generate_s * scale,
            "index_s": built.index_s * scale,
            "ms_per_q": 1e3 * wall * scale / len(stream),
            "raw_ms_per_q": 1e3 * wall / len(stream),
            "scale": scale,
        }
        if probes is not None:
            hits = sum(r.cache_stats["hits"] for r in built.indexed.retrievers)
            misses = sum(r.cache_stats["misses"] for r in built.indexed.retrievers)
            stem_hits = SHARED_STEM_CACHE.hits - stem0[0]
            stem_misses = SHARED_STEM_CACHE.misses - stem0[1]
            n = len(stream)
            row.update({
                f"{layer}.ms_per_q": 1e3 * busy * scale / n
                for layer, busy in probes.timer.busy_s.items()
            })
            row.update({
                "nlp.ner.calls_per_q": probes.timer.calls["nlp.ner"] / n,
                "nlp.ner.paragraph_repeat_share":
                    probes.ner_repeats / max(1, probes.timer.calls["nlp.ner"]),
                "nlp.stem_cache.hit_ratio": stem_hits / max(1, stem_hits + stem_misses),
                "retrieval.conj_cache.hit_ratio": hits / max(1, hits + misses),
                "retrieval.index_mb":
                    sum(ix.stats.memory_bytes for ix in built.indexed.indexes) / 2**20,
            })

        # Checks, outside the timed pass.
        report.check(checks.answers_in_paragraphs((r for _, r in answered), paragraphs))
        ref_pipeline = QAPipeline(
            built.indexed.reconfigured(conjunction_cache=0, galloping=False),
            built.recognizer,
            use_term_index=False,
        )
        pairs = []
        for i in _spread_sample(len(answered), params.reference_samples):
            text, got = answered[i]
            if text not in reference:
                reference[text] = ref_pipeline.answer(text, qid=got.processed.question.qid)
            pairs.append((text, got, reference[text]))
        report.check(checks.same_as_reference(pairs))
        reciprocal.extend(
            checks.reciprocal_rank([a.text for a in r.answers], expected[text])
            for text, r in answered
        )
        row["postings_per_q"] = float(np.mean([r.work[POSTINGS_SCANNED] for _, r in answered]))
        row["retrieved_per_q"] = float(np.mean([r.n_retrieved for _, r in answered]))
        row["accepted_per_q"] = float(np.mean([r.n_accepted for _, r in answered]))
        rounds.append(row)
        del built, ref_pipeline, answered, probes
        gc.collect()

    mrr = float(np.mean(reciprocal)) if reciprocal else 0.0
    report.check(checks.mrr_floor(mrr, params.mrr_floor))
    report.info.update({
        "rounds": len(rounds),
        "round_ms_per_q": [round(r["ms_per_q"], 4) for r in rounds],
        "round_raw_ms_per_q": [round(r["raw_ms_per_q"], 4) for r in rounds],
        "round_speed_scale": [round(r["scale"], 4) for r in rounds],
        "questions_per_round": len(stream),
        "distinct_texts": len({text for _, text in stream}),
        "answer_mrr": mrr,
    })

    def med(key: str) -> float:
        return median([r[key] for r in rounds])

    # Every round answers the same stream from the same cold start, so a
    # question's time in one round is a sample of the same quantity as in
    # the others.  Its median over rounds drops a stall of the host that
    # hit it in a minority of rounds; the mean of those medians is the
    # run's time per question.  Throughput is the round's wall rate,
    # questions over its answering wall, median over rounds.
    grid = np.vstack(times)
    grid = grid[:, ~np.all(np.isnan(grid), axis=0)]
    ms_per_q = 1e3 * float(np.mean(np.nanmedian(grid, axis=0)))
    latencies = grid[~np.isnan(grid)]
    if not trace:
        report.metrics.update({
            "setup_s": med("setup_s"),
            "throughput_qps": median([1e3 / r["ms_per_q"] for r in rounds]),
            "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
            "latency_p99_ms": 1e3 * percentile(latencies, 0.99),
            "peak_rss_mb": peak_rss_mb(),
            "host_ms_per_q": ms_per_q,
        })
        return report
    layer_keys = [k for k in rounds[0] if k.startswith(("qa.", "nlp.", "retrieval."))]
    report.metrics.update({k: med(k) for k in layer_keys})
    report.metrics.update({
        "qa.paragraphs_accepted_per_q": med("accepted_per_q"),
        "qa.question_repeat_share": repeat_share(stream),
        "qa.answer_mrr": mrr,
        "retrieval.postings_scanned_per_q": med("postings_per_q"),
        "retrieval.paragraphs_retrieved_per_q": med("retrieved_per_q"),
        "retrieval.index_build_s": med("index_s"),
        "corpus.generate_s": med("generate_s"),
        "trace.host_ms_per_q": ms_per_q,
    })
    return report
