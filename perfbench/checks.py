"""Correctness checks of the benchmark's outputs.

Each check is a pure function returning a list of problems (empty when
the outputs are right), so the self-test can feed each one a known-bad
input.  Reference values are computed here, outside the program: answer
matching, paragraph text and the cluster's capacity bound do not reuse
the program's own evaluation code.
"""

from __future__ import annotations

import typing as t

#: Problems listed per check before the rest are summarised.
_MAX_LISTED = 3


def _capped(problems: list[str], what: str) -> list[str]:
    if len(problems) <= _MAX_LISTED:
        return problems
    return problems[:_MAX_LISTED] + [f"... {len(problems) - _MAX_LISTED} more {what}"]


# -- answer quality --------------------------------------------------------------
def answer_matches(answer: str, expected: str) -> bool:
    """TREC's lenient match: either string contains the other, any case."""
    a = answer.lower().strip()
    e = expected.lower().strip()
    return bool(a) and (e in a or a in e)


def reciprocal_rank(answers: t.Sequence[str], expected: t.Collection[str]) -> float:
    """1/rank of the first answer matching any planted fact, else 0."""
    for rank, text in enumerate(answers, start=1):
        if any(answer_matches(text, e) for e in expected):
            return 1.0 / rank
    return 0.0


def mrr_floor(mrr: float, floor: float) -> list[str]:
    if mrr < floor:
        return [f"MRR {mrr:.3f} below the floor {floor:.3f}"]
    return []


# -- answers come from their paragraphs ------------------------------------------
def paragraph_texts(corpus: t.Any) -> dict[tuple[int, int], str]:
    """(doc_id, position) -> paragraph text, split from the documents here.

    Documents separate paragraphs with blank lines; a paragraph's key is
    its position among the blank-line chunks.
    """
    out: dict[tuple[int, int], str] = {}
    for coll in corpus.collections:
        for doc in coll.documents:
            for i, chunk in enumerate(doc.text.split("\n\n")):
                chunk = chunk.strip()
                if chunk:
                    out[(doc.doc_id, i)] = chunk
    return out


def answers_in_paragraphs(
    results: t.Iterable[t.Any], paragraphs: t.Mapping[tuple[int, int], str]
) -> list[str]:
    """Every answer's text occurs in the paragraph it names as its source."""
    problems = []
    for r in results:
        for a in r.answers:
            text = paragraphs.get(tuple(a.paragraph_key))
            if text is None:
                problems.append(f"q{r.processed.question.qid}: no paragraph {a.paragraph_key}")
            elif a.text not in text:
                problems.append(
                    f"q{r.processed.question.qid}: {a.text!r} not in paragraph {a.paragraph_key}"
                )
    return _capped(problems, "answers outside their paragraph")


# -- optimized path == re-tokenize reference path --------------------------------
def result_fingerprint(result: t.Any) -> tuple[t.Any, ...]:
    """Answers and paragraph ranks: what must not depend on the path taken."""
    return (
        tuple(
            (a.text, a.short, a.long, a.score, a.paragraph_key, a.entity_type.value)
            for a in result.answers
        ),
        tuple(result.paragraph_ranks),
    )


def same_as_reference(
    pairs: t.Iterable[tuple[str, t.Any, t.Any]],
) -> list[str]:
    """``(text, measured, reference)`` pairs must have equal fingerprints."""
    problems = [
        f"{text!r}: answers or paragraph ranks differ from the reference path"
        for text, got, ref in pairs
        if result_fingerprint(got) != result_fingerprint(ref)
    ]
    return _capped(problems, "reference mismatches")


def served_as_reference(
    pairs: t.Iterable[tuple[str, t.Sequence[tuple[str, float]], t.Any]],
    top: int = 3,
) -> list[str]:
    """Served (text, score) answers must be the reference result's ``top``.

    The server sends its three best answers over the wire.
    """
    problems = [
        f"{text!r}: served answers differ from the reference path"
        for text, served, ref in pairs
        if tuple(served) != tuple((a.text, float(a.score)) for a in ref.answers[:top])
    ]
    return _capped(problems, "served mismatches")


# -- serving conservation --------------------------------------------------------
def ledger_balanced(ledger: t.Any, submitted: int) -> list[str]:
    """answered + shed + drained == submitted, with nothing shed or drained."""
    problems = []
    if ledger.submitted != submitted:
        problems.append(f"ledger counts {ledger.submitted} submitted, sent {submitted}")
    if ledger.answered + ledger.shed + ledger.drained != ledger.submitted:
        problems.append(f"ledger does not balance: {ledger}")
    if ledger.shed or ledger.drained:
        problems.append(f"{ledger.shed} shed and {ledger.drained} drained, expected none")
    return problems


# -- simulated cluster -----------------------------------------------------------
def cpu_demand_s(profile: t.Any) -> float:
    """CPU seconds one question needs on the reference node, summed here."""
    return (
        profile.qp_cpu_s
        + sum(c.cost.cpu_s + c.ps_cpu_s for c in profile.collections)
        + profile.po_cpu_s
        + sum(p.ap_cpu_s for p in profile.paragraphs)
    )


def capacity_bound_qps(profiles: t.Sequence[t.Any], n_nodes: int, cpu_speed: float) -> float:
    """Questions per second the cluster's CPUs could finish at most."""
    mean_demand = sum(cpu_demand_s(p) for p in profiles) / len(profiles)
    return n_nodes * cpu_speed / mean_demand


def cpu_within_capacity(
    nodes: t.Sequence[tuple[float, float]], cpu_speed: float, demand_s: float
) -> list[str]:
    """The CPUs did the profiles' work, and no faster than their speed.

    ``nodes`` holds each node's (CPU seconds completed, seconds busy).  A
    node cannot complete more than ``cpu_speed`` CPU seconds per busy
    second, and the nodes together must have completed at least the CPU
    seconds the profiles demand (dispatch and sorting add more).  This is
    the capacity bound of the throughput, checked where it can fail: a
    simulator that charged less CPU, or ran a CPU faster than its speed,
    breaks it whatever the offered rate.
    """
    problems = [
        f"node {i} completed {done:.6g} CPU s in {busy:.6g} busy s at speed {cpu_speed}"
        for i, (done, busy) in enumerate(nodes)
        if done > cpu_speed * busy * (1 + 1e-9) + 1e-9
    ]
    total = sum(done for done, _ in nodes)
    if total < demand_s * (1 - 1e-9):
        problems.append(f"nodes completed {total:.6g} CPU s, the profiles demand {demand_s:.6g}")
    return _capped(problems, "nodes over capacity")


def critical_path_s(profile: t.Any, cpu_speed: float, disk_bandwidth: float) -> float:
    """Shortest time one question can take, on idle nodes, summed here.

    QP and PO run in turn on the host; one collection's PR (disk, then
    CPU) and PS, and one paragraph's AP, are each done by one node, so the
    slowest of them lies on the path however the work is partitioned.
    """
    pr_ps = max(
        (c.cost.disk_bytes / disk_bandwidth + (c.cost.cpu_s + c.ps_cpu_s) / cpu_speed
         for c in profile.collections),
        default=0.0,
    )
    ap = max((p.ap_cpu_s for p in profile.paragraphs), default=0.0) / cpu_speed
    return (profile.qp_cpu_s + profile.po_cpu_s) / cpu_speed + pr_ps + ap


def over_critical_path(
    results: t.Iterable[t.Any], profiles: t.Sequence[t.Any],
    cpu_speed: float, disk_bandwidth: float,
) -> list[str]:
    """Every question's response time is at least its critical path."""
    by_qid = {p.qid: p for p in profiles}
    problems = []
    for r in results:
        floor = critical_path_s(by_qid[r.qid], cpu_speed, disk_bandwidth)
        if r.response_time < floor * (1 - 1e-9):
            problems.append(
                f"q{r.qid}: response {r.response_time:.6g} s under its critical path {floor:.6g} s"
            )
    return _capped(problems, "questions faster than their critical path")


def all_completed(report: t.Any, admitted: int) -> list[str]:
    problems = []
    if report.n_admitted != admitted or report.n_questions != admitted:
        problems.append(f"{report.n_questions} results for {admitted} admitted questions")
    if report.n_completed != admitted or report.n_lost or not report.accounted:
        problems.append(
            f"{report.n_completed} of {admitted} completed, {report.n_lost} lost"
        )
    return problems


def identical(first: t.Any, again: t.Any, what: str) -> list[str]:
    if first != again:
        return [f"{what} differ between two runs with the same seed"]
    return []
