"""Shared plumbing of the benchmark: paths, cache isolation, statistics,
the environment stamp and the result line.

Every workload module returns a :class:`Report`; :func:`emit` turns it
into the one JSON line the benchmark's contract asks for, with the metric
names and units taken from ``BENCHMARK.json`` so the two cannot drift.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import secrets
import shutil
import signal
import statistics
import sys
import time
import typing as t
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
CACHE_ROOT = ROOT / ".perfbench-cache"

#: The corpus every workload answers from: ``CorpusConfig()``'s seed.
CORPUS_SEED = 42


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the package.

    Raises ImportError when the program is not there (a directory holding
    only the benchmark), which the entry point turns into a failed exit.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    # An installed copy elsewhere is not the program under test.
    if SRC not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")


def load_spec() -> dict[str, t.Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


# -- cache isolation -------------------------------------------------------------
class CacheSandbox:
    """A private, initially empty ``REPRO_CACHE_DIR`` per run.

    ``build_context`` and ``ProcessWorkerPool.start`` both read the
    artifact cache; a warm attach in one run and a cold build in another
    would split ``setup_s`` into two modes.  :meth:`fresh` hands out a new
    empty directory, so every set-up the benchmark times starts cold.
    The whole tree is removed on exit.
    """

    def __init__(self) -> None:
        self.root = CACHE_ROOT / f"{os.getpid()}-{secrets.token_hex(4)}"
        self._n = 0
        self._saved: str | None = None

    def __enter__(self) -> "CacheSandbox":
        self.root.mkdir(parents=True, exist_ok=True)
        self._saved = os.environ.get("REPRO_CACHE_DIR")
        self.fresh()
        return self

    def fresh(self) -> Path:
        self._n += 1
        path = self.root / str(self._n)
        path.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    def __exit__(self, *exc: object) -> None:
        if self._saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = self._saved
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            CACHE_ROOT.rmdir()  # only succeeds when no other run uses it
        except OSError:
            pass


# -- host speed ------------------------------------------------------------------
_WORDS = (
    "the index of a paragraph holds every stem of its words and the "
    "positions where each one occurs in its collection"
).split()


def _kernel() -> int:
    """Fixed pure-Python work (dict counting, string building, a sort),
    the kind of work the pipeline and the simulator spend their time on."""
    counts: dict[str, int] = {}
    for i in range(1500):
        key = _WORDS[i % len(_WORDS)] + str(i % 23)
        counts[key] = counts.get(key, 0) + len(key)
    return len(sorted(counts, key=counts.get))


class HostSpeed:
    """The host's speed while a round ran, from a fixed kernel timed in it.

    The VMs this benchmark runs on change speed by tens of percent from one
    minute to the next, whole runs at a time, with no steal time reported:
    the same code measured 3.1 ms per question in one set of runs and 4.4
    ms twenty minutes later.  A time measured in a round is multiplied by
    :meth:`scale`, the kernel's reference time over its mean time in the
    round, which reports it at the reference speed.  The kernel is timed
    between operations, or from a timer signal while one long operation
    runs, and the seconds that takes (``paused``) are taken out of the
    wall time measured around it.  The mean time is used because one
    timing can be nearly twice the next (quartiles 0.63 and 1.10 ms over
    300 timings in a row), so the mean, not the median, follows how much
    of the round the host spent slow.
    Raw times stay in the detail line.
    """

    #: The kernel's time at the reference speed (its median on a 2-vCPU VM).
    REFERENCE_S = 0.001

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0

    def sample(self, n: int = 1) -> None:
        """Time the kernel ``n`` times."""
        clock = time.perf_counter
        start = clock()
        for _ in range(n):
            t0 = clock()
            _kernel()
            self.samples.append(clock() - t0)
        self.paused += clock() - start

    @contextlib.contextmanager
    def sampling(self, every_s: float) -> t.Iterator["HostSpeed"]:
        """Time the kernel on entry and every ``every_s`` seconds while the
        block runs.

        A SIGALRM handler does it, so it runs in the main thread between
        two bytecodes of the block.
        """
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.fmean(self.samples)


# -- statistics ------------------------------------------------------------------
def median(values: t.Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: t.Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1); NaN when empty."""
    import numpy as np

    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q * 100.0))


def quartiles(values: t.Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or its largest reaped child), MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    kib = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        kib /= 1024.0
    return kib / 1024.0


# -- environment stamp -----------------------------------------------------------
def _git_sha() -> str:
    """HEAD's sha read from ``.git`` directly; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> dict[str, t.Any]:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


# -- the report ------------------------------------------------------------------
@dataclass
class Report:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: Metric name -> value; units come from ``BENCHMARK.json``.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Correctness violations; any entry makes ``correct`` false.
    problems: list[str] = field(default_factory=list)
    #: Free-form detail printed on the line before the result.
    info: dict[str, t.Any] = field(default_factory=dict)

    def check(self, problems: t.Iterable[str]) -> None:
        self.problems.extend(problems)


def result_line(report: Report, trace: bool, spec: dict[str, t.Any]) -> str:
    """The contract's last stdout line for ``report``.

    Untraced runs carry every ``end_to_end`` metric; a missing one is a
    benchmark bug and raises.  Traced runs carry every ``per_layer``
    metric; a layer the workload does not run reads 0.
    """
    section = "per_layer" if trace else "end_to_end"
    metrics: dict[str, dict[str, t.Any]] = {}
    for m in spec[section]:
        name = m["name"]
        if name in report.metrics:
            value = float(report.metrics[name])
        elif trace:
            value = 0.0
        else:
            raise KeyError(f"{report.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return json.dumps(
        {
            "correct": not report.problems,
            "attempted": int(report.attempted),
            "failed": int(report.failed),
            "metrics": metrics,
        }
    )
