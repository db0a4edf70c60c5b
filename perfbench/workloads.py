"""The four workloads and the harness they report into.

Every workload drives the engine through the two supported public paths only
(``ExecutionPlan`` + ``UDFExecutionEngine.compute_with_plan``, and
``Session.submit``), derives its accuracy budget from
``AccuracyRequirement(epsilon, delta=0.05)`` and never passes ``n_samples``,
so the (epsilon, delta) contract holds for every output it measures.

Each workload alternates two kinds of operation, ``a`` and ``b``; the
end-to-end metrics ``op_a_ms`` / ``op_b_ms`` are the time per operation of
each kind.  An operation is one input tuple on the three
batch workloads and one query on ``serve_open_loop``.  Sizes are the ones
``BENCHMARK.json`` states; ``tiny`` exists for the seconds-long smoke test.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.core.accuracy import AccuracyRequirement
from repro.engine import (
    Attribute,
    AttributeKind,
    ExecutionPlan,
    Query,
    Relation,
    Schema,
    Session,
    UDFExecutionEngine,
    UncertainTuple,
)
from repro.engine.result import VERDICT_CERTAIN, VERDICT_DEGRADED
from repro.udf.synthetic import async_service_udf, reference_function
from repro.workloads.generators import (
    input_distribution,
    input_stream,
    selectivity_predicate,
    workload_for_udf,
)

DELTA = 0.05
#: Certain outputs kept per kind for the ground-truth audit (64 per workload).
AUDIT_PER_KIND = 32


@dataclass
class OpRecord:
    """One timed unit: a repetition, a served query, or a burst."""

    kind: str  # "a" or "b"
    index: int
    ops: int  # operations attempted: tuples, or queries of a burst
    failed: int
    wall: float  # seconds; latency from the due time for a steady query
    udf_calls: int = 0
    charged_calls: int = 0  # calls the engine charged to tuples (issued - speculative waste)
    verdicts: dict[str, int] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    #: Hash of the outputs, or "" when the trajectory is timing-dependent and
    #: the traced pass is not expected to reproduce it bit for bit.
    digest: str = ""

    @property
    def ms_per_op(self) -> float:
        return 1000.0 * self.wall / self.ops

    def absorb(self, other: "OpRecord") -> None:
        """Fold a concurrent operation in: counts add up, wall is the last to end."""
        self.ops += other.ops
        self.failed += other.failed
        self.wall = max(self.wall, other.wall)
        self.udf_calls += other.udf_calls
        self.charged_calls += other.charged_calls
        for mapping, theirs in ((self.verdicts, other.verdicts), (self.timings, other.timings)):
            for key, value in theirs.items():
                mapping[key] = mapping.get(key, 0) + value
        self.digest = _digest([self.digest.encode(), other.digest.encode()])


@dataclass
class AuditItem:
    """One ``certain`` output with what is needed to recompute its truth."""

    function: str
    input_distribution: Any
    output: Any
    epsilon: float


class Harness:
    """Collects what the workloads measure; owns no clock of its own."""

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.records: list[OpRecord] = []
        self.audit: dict[str, list[AuditItem]] = {"a": [], "b": []}
        self.udf = {"real_s": 0.0, "charged_s": 0.0, "retries": 0, "max_in_flight": 0}
        #: Workload-specific measurements (serving counters, generator lateness).
        self.extra: dict[str, Any] = {}
        #: Whether kind ``a`` is a stream of single requests (reported as a
        #: latency) and not repetitions of a batch (reported as a throughput).
        self.latency = False
        self.timed_wall = 0.0

    def begin(self, trace_id: str, tagged: Any = None) -> None:
        """Name the trace the next operation's spans belong to."""
        if self.tracer is not None:
            if tagged is None:
                self.tracer.trace_id = trace_id
            else:
                self.tracer.tag(tagged, trace_id)

    def add_udf(self, udf: Any, since: tuple[float, float, int] = (0.0, 0.0, 0)) -> None:
        """Add a UDF's counters; ``since`` is their reading before a reused UDF's operation."""
        self.udf["real_s"] += udf.real_time - since[0]
        self.udf["charged_s"] += udf.charged_time - since[1]
        self.udf["retries"] += udf.retries_used - since[2]
        self.udf["max_in_flight"] = max(self.udf["max_in_flight"], udf.max_in_flight)

    def keep_for_audit(self, kind: str, item: AuditItem) -> None:
        if len(self.audit[kind]) < AUDIT_PER_KIND:
            self.audit[kind].append(item)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _engine_seed(*slot: int) -> int:
    """``random_state`` of the engine in one slot (workload, kind, repetition).

    The program's configuration -- plans, predicate, engine seeds -- is the
    same in every run; ``--seed`` draws the data.  An engine's own seed (its
    initial design) moved a cold query's UDF calls more than the data did
    (cv 0.16 against 0.10), which is noise between runs, not signal.
    """
    return int(_rng(*slot).integers(2**31))


def _output_parts(verdict: str, bound: float, distribution: Any) -> list[bytes]:
    """What of one output must repeat bit for bit between the two passes."""
    parts = [verdict.encode(), np.float64(bound).tobytes()]
    if distribution is not None:
        parts.append(distribution.samples.tobytes())
    return parts


def _digest(parts: list[bytes]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.hexdigest()


def batch_op(
    harness: Harness,
    kind: str,
    index: int,
    function: str,
    engine: UDFExecutionEngine,
    udf: Any,
    distributions: list,
    plan: ExecutionPlan,
    predicate: Any = None,
    deterministic: bool = True,
) -> None:
    """One timed ``compute_with_plan`` call, recorded into ``harness``."""
    harness.begin(f"{kind}{index}")
    calls0, since = udf.call_count, (udf.real_time, udf.charged_time, udf.retries_used)
    started = time.perf_counter()
    try:
        result = engine.compute_with_plan(udf, distributions, plan, predicate=predicate)
    except Exception:  # a failed operation is counted, not fatal to the run
        traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - started
        harness.records.append(OpRecord(kind, index, len(distributions), len(distributions), wall))
        return
    wall = time.perf_counter() - started
    harness.add_udf(udf, since)
    verdicts = Counter(v.verdict for v in result.verdicts)
    parts: list[bytes] = []
    epsilon = engine.requirement.epsilon
    for dist, output, verdict in zip(distributions, result.outputs, result.verdicts):
        if deterministic:
            parts += _output_parts(verdict.verdict, output.error_bound, output.distribution)
        if verdict.verdict == VERDICT_CERTAIN:
            harness.keep_for_audit(kind, AuditItem(function, dist, output.distribution, epsilon))
    harness.records.append(OpRecord(
        kind, index, len(distributions), verdicts.get(VERDICT_DEGRADED, 0), wall,
        udf_calls=udf.call_count - calls0,
        charged_calls=sum(o.udf_calls for o in result.outputs),
        verdicts=dict(verdicts),
        timings=dict(result.timings.seconds),
        digest=_digest(parts) if deterministic else "",
    ))


def alternate(seconds: float, pair: Callable[[int], None]) -> None:
    """Run ``pair(i)`` for i = 0, 1, ... while the next one still fits.

    A pair is one ``a`` and one ``b`` operation, so both kinds always have
    the same number of repetitions and shares over the run are not skewed by
    where the time ran out.  The first pair always runs.
    """
    started = time.perf_counter()
    longest = 0.0
    i = 0
    while i == 0 or (time.perf_counter() - started) + longest <= seconds:
        before = time.perf_counter()
        pair(i)
        longest = max(longest, time.perf_counter() - before)
        i += 1


class Workload:
    """Set-up, a timed section, and tear-down."""

    name = ""
    wid = 0  # mixed into every random stream so workloads do not share inputs
    kinds = {"a": "", "b": ""}
    sizes: dict[str, dict[str, Any]] = {}  # per scale ("full", "tiny")

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.size = self.sizes[scale]

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, harness: Harness) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever set-up started."""


class WarmScan(Workload):
    """Steady-state reads of a warm model: vectorised apply vs per-tuple select."""

    name = "warm_scan"
    wid = 1
    kinds = {"a": "apply", "b": "select"}
    sizes = {
        "full": {"warm": 96, "apply": 512, "select": 128, "warmup": 32},
        "tiny": {"warm": 24, "apply": 16, "select": 8, "warmup": 4},
    }
    function, epsilon = "F1", 0.12

    def setup(self) -> None:
        # 1 ms per call on the accounting clock only: nothing sleeps here.
        self.udf = reference_function(self.function, simulated_eval_time=1e-3)
        self.spec = workload_for_udf(self.udf)
        self.engine = UDFExecutionEngine(
            "gp", requirement=AccuracyRequirement(self.epsilon, DELTA),
            random_state=_engine_seed(self.wid),
        )
        self.plan = ExecutionPlan(batch_size=32)
        # The query is part of the workload, the data is what the seed draws:
        # a per-seed predicate moved the select path's cost by +-10 %.
        self.predicate = selectivity_predicate(self.udf, self.spec, 0.5, random_state=0)
        warm = list(input_stream(self.spec, self.size["warm"], _rng(self.seed, self.wid, 2)))
        self.engine.compute_with_plan(self.udf, warm, self.plan)
        warmup = list(input_stream(self.spec, 2 * self.size["warmup"], _rng(self.seed, self.wid, 3)))
        half = self.size["warmup"]
        self.engine.compute_with_plan(self.udf, warmup[:half], self.plan)
        self.engine.compute_with_plan(self.udf, warmup[half:], self.plan, predicate=self.predicate)

    def run(self, seconds: float, harness: Harness) -> None:
        def pair(i: int) -> None:
            for kind, key, predicate in (("a", "apply", None), ("b", "select", self.predicate)):
                stream = _rng(self.seed, self.wid, 10 + (kind == "b"), i)
                dists = list(input_stream(self.spec, self.size[key], stream))
                batch_op(harness, kind, i, self.function, self.engine, self.udf, dists,
                         self.plan, predicate=predicate)

        alternate(seconds, pair)


class FreshEngineWorkload(Workload):
    """Every operation is a query on a fresh engine and a fresh UDF (cold model)."""

    def query_spec(self, kind: str) -> tuple[str, int, float, ExecutionPlan, bool]:
        """``function, tuples, epsilon, plan, deterministic`` of one kind."""
        raise NotImplementedError

    def _query(self, harness: Optional[Harness], kind: str, i: int,
               n_tuples: Optional[int] = None) -> None:
        function, n, epsilon, plan, deterministic = self.query_spec(kind)
        udf = reference_function(function, real_eval_time=self.size["latency"])
        engine = UDFExecutionEngine(
            "gp", requirement=AccuracyRequirement(epsilon, DELTA),
            random_state=_engine_seed(self.wid, kind == "b", i + 1),
        )
        stream = _rng(self.seed, self.wid, 10 + (kind == "b"), i + 1)
        dists = list(input_stream(workload_for_udf(udf), n_tuples or n, stream))
        if harness is None:
            engine.compute_with_plan(udf, dists, plan)
        else:
            batch_op(harness, kind, i, function, engine, udf, dists, plan,
                     deterministic=deterministic)

    def setup(self) -> None:
        self._query(None, "a", -1, n_tuples=self.size["warmup"])

    def run(self, seconds: float, harness: Harness) -> None:
        def pair(i: int) -> None:
            self._query(harness, "a", i)
            self._query(harness, "b", i)

        alternate(seconds, pair)


class ColdSlowUdf(FreshEngineWorkload):
    """Cold models behind a blocking 20 ms UDF: refinement, updates, speculation."""

    name = "cold_slow_udf"
    wid = 2
    kinds = {"a": "F3 query", "b": "F4 query"}
    sizes = {
        "full": {"a": ("F3", 32, 0.15), "b": ("F4", 4, 0.2), "warmup": 8, "latency": 0.02},
        "tiny": {"a": ("F3", 4, 0.15), "b": ("F4", 1, 0.2), "warmup": 2, "latency": 0.001},
    }

    def query_spec(self, kind: str) -> tuple[str, int, float, ExecutionPlan, bool]:
        function, n, epsilon = self.size[kind]
        plan = ExecutionPlan(
            batch_size=16, async_inflight=4, pipeline_lookahead=4, transport="threads"
        )
        # Which prefetched calls land before a commit depends on thread timing,
        # so only F3 (which converges before that matters) is expected to
        # repeat bit for bit.
        return function, n, epsilon, plan, function == "F3"


class Sharded(FreshEngineWorkload):
    """Two process shards: a live shared model against discard-after-use."""

    name = "sharded"
    wid = 3
    kinds = {"a": "shared", "b": "discard"}
    sizes = {
        "full": {"tuples": 64, "warmup": 16, "latency": 0.002},
        "tiny": {"tuples": 8, "warmup": 8, "latency": 0.0005},
    }

    def query_spec(self, kind: str) -> tuple[str, int, float, ExecutionPlan, bool]:
        merge = self.kinds[kind]
        plan = ExecutionPlan(batch_size=8, workers=2, parallel_seed=42, merge=merge)
        # What a shared shard has absorbed when it reaches a tuple depends on
        # its sibling's progress; discard shards never talk.
        return "F3", self.size["tuples"], 0.15, plan, merge == "discard"


class OpenLoopSchedule:
    """Fixed-rate due times; latency is timed from them, not from the send.

    A stalled generator would otherwise hide the wait it imposes on the
    queries behind the stall.  ``clock`` and ``sleep`` are injectable so the
    arithmetic can be tested without waiting.
    """

    def __init__(self, rate: float, count: int, clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.rate, self.count = rate, count
        self.clock, self.sleep = clock, sleep
        self.due: list[float] = []
        self.late: list[float] = []

    def run(self, send: Callable[[int], None]) -> None:
        started = self.clock()
        for i in range(self.count):
            due = started + i / self.rate
            wait = due - self.clock()
            if wait > 0:
                self.sleep(wait)
            self.due.append(due)
            self.late.append(max(0.0, self.clock() - due))
            send(i)

    def latency(self, i: int, done_at: float) -> float:
        return done_at - self.due[i]


@dataclass
class ServedQuery:
    """One submitted query as the load generator sees it."""

    kind: str
    index: int
    udf: Any
    relation: Relation
    submitted_at: float
    handle: Any = None  # None when admission refused it
    done_at: Optional[float] = None

    @property
    def trace_id(self) -> str:
        return f"{self.kind}{self.index}"

    @property
    def outstanding(self) -> bool:
        return self.handle is not None and self.done_at is None


class ServeOpenLoop(Workload):
    """Independent clients of one Session: a steady arrival stream, then a burst."""

    name = "serve_open_loop"
    wid = 4
    kinds = {"a": "steady query", "b": "burst query"}
    sizes = {
        "full": {"tuples": 4, "relations": 16, "latency": 0.01, "rate": 2.0},
        "tiny": {"tuples": 2, "relations": 4, "latency": 0.001, "rate": 4.0},
    }
    function, epsilon = "F3", 0.15
    #: Share of the run given to the steady phase; the burst is sized to
    #: drain in about the rest at the measured ~3.5 queries/s capacity.
    steady_share, burst_per_second = 0.5, 1.5

    def setup(self) -> None:
        spec = workload_for_udf(async_service_udf(self.function))
        schema = Schema.of([
            Attribute("id"),
            Attribute("x0", AttributeKind.UNCERTAIN),
            Attribute("x1", AttributeKind.UNCERTAIN),
        ])
        stream = _rng(self.seed, self.wid, 0)
        self.relations = []
        for r in range(self.size["relations"]):
            relation = Relation(name=f"r{r}", schema=schema)
            for t in range(self.size["tuples"]):
                x0, x1 = input_distribution(spec, stream).components
                relation.insert(UncertainTuple(values={"id": t, "x0": x0, "x1": x1}))
            self.relations.append(relation)
        self.requirement = AccuracyRequirement(self.epsilon, DELTA)
        self._engine_seeds = _rng(self.wid)  # the k-th query's engine seed, every run
        self._submitted = 0
        #: Called with each fresh engine; the timed section uses it to tag the
        #: engine with its query's trace id.
        self._on_engine: Callable[[UDFExecutionEngine], None] = lambda engine: None
        self.session = Session(
            self._make_engine, plan=ExecutionPlan(batch_size=self.size["tuples"]),
            worker_budget=8, queue_limit=64,
        )
        self._submit("warmup", 0).handle.result()

    def teardown(self) -> None:
        self.session.close()

    def _make_engine(self) -> UDFExecutionEngine:
        engine = UDFExecutionEngine(
            "gp", requirement=self.requirement,
            random_state=int(self._engine_seeds.integers(2**31)),
        )
        self._on_engine(engine)
        return engine

    def _submit(self, kind: str, index: int) -> ServedQuery:
        """Submit the next query round-robin over the relations."""
        udf = async_service_udf(self.function, latency=self.size["latency"])
        relation = self.relations[self._submitted % len(self.relations)]
        self._submitted += 1
        query = Query(relation).apply_udf(udf, ["x0", "x1"], alias="f")
        served = ServedQuery(kind, index, udf, relation, time.perf_counter())
        try:
            served.handle = self.session.submit(query)
        except Exception:  # refused at admission: counted as failed
            traceback.print_exc(file=sys.stderr)
        return served

    def run(self, seconds: float, harness: Harness) -> None:
        harness.latency = True
        steady = max(2, int(self.size["rate"] * self.steady_share * seconds))
        burst = max(4, round(self.burst_per_second * seconds))
        queries: list[ServedQuery] = []
        stop = threading.Event()
        peak_active = 0

        def collect() -> None:
            # Polls every 2 ms; the only work between polls is a timestamp.
            nonlocal peak_active
            while True:
                waiting = [q for q in list(queries) if q.outstanding]
                for q in waiting:
                    if q.handle.done():
                        q.done_at = time.perf_counter()
                peak_active = max(peak_active, self.session.service.active_count())
                if stop.is_set() and not waiting:
                    return
                time.sleep(0.002)

        def send(kind: str, i: int) -> None:
            self._on_engine = lambda engine: harness.begin(f"{kind}{i}", tagged=engine)
            queries.append(self._submit(kind, i))

        collector = threading.Thread(target=collect, name="perfbench-collector")
        collector.start()
        try:
            schedule = OpenLoopSchedule(self.size["rate"], steady)
            schedule.run(lambda i: send("a", i))
            while any(q.outstanding for q in queries):
                time.sleep(0.005)
            burst_started = time.perf_counter()
            for i in range(burst):
                send("b", i)
        finally:
            stop.set()
            collector.join()

        drained = OpRecord("b", 0, 0, 0, 0.0)  # the whole burst as one operation record
        for q in queries:
            record = self._record(harness, q)
            if q.kind == "a":
                record.wall = schedule.latency(q.index, q.done_at or time.perf_counter())
                harness.records.append(record)
            else:
                record.wall = (q.done_at or time.perf_counter()) - burst_started
                drained.absorb(record)
        harness.records.append(drained)
        harness.extra.update(
            generator_late_max_ms=1000.0 * max(schedule.late),
            peak_active=peak_active,
            stats=dict(self.session.service.stats),
            submitted_at={q.trace_id: q.submitted_at for q in queries},
            done_at={q.trace_id: q.done_at for q in queries},
        )

    def _record(self, harness: Harness, q: ServedQuery) -> OpRecord:
        """One served query's record; ``wall`` is filled in by the caller."""
        record = OpRecord(q.kind, q.index, 1, 1, 0.0)
        if q.handle is None:
            return record
        try:
            result = q.handle.result(timeout=60.0)
        except Exception:  # failed, timed out or cancelled: counted as failed
            traceback.print_exc(file=sys.stderr)
            return record
        harness.add_udf(q.udf)
        rows = list(result.relation)
        parts = []
        for source, row, verdict in zip(q.relation, rows, result.verdicts):
            parts += _output_parts(verdict.verdict, row.annotations["f_error_bound"], row["f"])
            if verdict.verdict == VERDICT_CERTAIN:
                harness.keep_for_audit(q.kind, AuditItem(
                    self.function, source.input_distribution(["x0", "x1"]), row["f"],
                    self.epsilon,
                ))
        record.verdicts = dict(Counter(v.verdict for v in result.verdicts))
        record.failed = int(VERDICT_DEGRADED in record.verdicts or len(rows) != len(q.relation))
        record.udf_calls = q.udf.call_count
        record.charged_calls = sum(int(row.annotations["f_udf_calls"]) for row in rows)
        record.timings = dict(result.timings.seconds)
        record.digest = _digest(parts)
        return record


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WarmScan, ColdSlowUdf, Sharded, ServeOpenLoop)
}
