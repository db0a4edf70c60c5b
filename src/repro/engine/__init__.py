"""Probabilistic query-engine substrate (S13, S14).

Public surface: uncertain schemas, tuples and relations; the synthetic
SDSS-like Galaxy generator; the UDF execution engine with MC / GP / hybrid
strategies; iterator-style physical operators; and the fluent query builder.
"""

from repro.engine.async_exec import DEFAULT_ASYNC_INFLIGHT, AsyncEvaluationDriver
from repro.engine.batch import DEFAULT_BATCH_SIZE, BatchExecutor, iter_batches
from repro.engine.executor import ComputedOutput, Strategy, UDFExecutionEngine
from repro.engine.operators import (
    ApplyUDF,
    CrossJoin,
    Operator,
    Project,
    Scan,
    SelectUDF,
    SelectWhere,
    materialize,
)
from repro.engine.parallel import (
    MERGE_POLICIES,
    MergePolicy,
    ParallelExecutor,
    default_worker_count,
)
from repro.engine.pipeline import SpeculationStage, SpeculativeValuePool
from repro.engine.plan import (
    AUTO_PLAN,
    PRECEDENCE,
    ExecutionPlan,
    is_auto_plan,
)
from repro.engine.query import Query
from repro.engine.result import (
    VERDICT_CERTAIN,
    VERDICT_DEGRADED,
    VERDICT_EXCLUDED,
    VERDICT_POSSIBLE,
    QueryResult,
    TupleVerdict,
    classify_outputs,
    classify_rows,
)
from repro.engine.schema import Attribute, AttributeKind, Schema
from repro.engine.sdss import galaxy_schema, generate_galaxy_relation
from repro.engine.service import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKER_BUDGET,
    QueryEvent,
    QueryHandle,
    QueryService,
)
from repro.engine.session import Session
from repro.engine.transport import (
    DEFAULT_TRANSPORT,
    TRANSPORTS,
    AsyncioTransport,
    EvaluationTransport,
    ThreadPoolTransport,
)
from repro.engine.tuples import Relation, UncertainTuple

__all__ = [
    "Attribute",
    "AttributeKind",
    "Schema",
    "UncertainTuple",
    "Relation",
    "galaxy_schema",
    "generate_galaxy_relation",
    "UDFExecutionEngine",
    "ComputedOutput",
    "Strategy",
    "ExecutionPlan",
    "AUTO_PLAN",
    "PRECEDENCE",
    "is_auto_plan",
    "EvaluationTransport",
    "ThreadPoolTransport",
    "AsyncioTransport",
    "TRANSPORTS",
    "DEFAULT_TRANSPORT",
    "BatchExecutor",
    "DEFAULT_BATCH_SIZE",
    "iter_batches",
    "AsyncEvaluationDriver",
    "DEFAULT_ASYNC_INFLIGHT",
    "ParallelExecutor",
    "MergePolicy",
    "MERGE_POLICIES",
    "SpeculationStage",
    "SpeculativeValuePool",
    "Operator",
    "Scan",
    "Project",
    "SelectWhere",
    "CrossJoin",
    "ApplyUDF",
    "SelectUDF",
    "materialize",
    "Query",
    "QueryResult",
    "TupleVerdict",
    "VERDICT_CERTAIN",
    "VERDICT_POSSIBLE",
    "VERDICT_EXCLUDED",
    "VERDICT_DEGRADED",
    "classify_outputs",
    "classify_rows",
    "default_worker_count",
    "QueryService",
    "QueryHandle",
    "QueryEvent",
    "DEFAULT_WORKER_BUDGET",
    "DEFAULT_QUEUE_LIMIT",
    "Session",
]
