"""Engine configuration — the Python mirror of pg_search's GUC surface
(`pg_search/src/postgres/gucs.rs:253-670`, ~35 ``paradedb.*`` knobs).

One dataclass, one place: pipelines and the streaming engine read their
defaults from here, so a deployment tunes a single object instead of
scattered constants.  Reference default for each knob cited inline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineConfig:
    # -- partitioning / parallelism ----------------------------------------
    #: BM25 state-store partitions (hash(conv_id) % P); the reference's
    #: analogue is segment count targeting (`build_parallel.rs:274`)
    num_partitions: int = 8
    #: salting sub-partitions for hot conversations (SURVEY §7 hard part 6)
    salt_k: int = 4
    #: turns seen before a conversation is considered hot
    hot_threshold: int = 5000

    # -- ingest / LSM ------------------------------------------------------
    #: mutable-segment rows before freeze (default 1000, max 10k —
    #: `postgres/options.rs:73-74`)
    mutable_rows: int = 1000
    #: sealed segments per partition before the count-cap backstop merge
    merge_max_segments: int = 24
    #: size-tiered merge ladder; None = the reference default 100KB..10GB
    #: (`options.rs:64-71`, `index/merge_policy.rs:103-330`)
    layer_sizes: tuple = None

    # -- streaming semantics ----------------------------------------------
    #: session gap: close a conversation idle this long (µs)
    session_gap_us: int = 1_800_000_000
    #: allowed lateness behind the watermark before a turn is dropped (µs)
    lateness_us: int = 3_600_000_000

    # -- query execution ---------------------------------------------------
    #: terms-agg bucket cap (`max_term_agg_buckets`, `gucs.rs`)
    bucket_limit: int = 65_000
    #: aggregation-state byte budget (`pdb.agg` memory_limit,
    #: `api/aggregate.rs:143` default 500MB): abort with an error instead
    #: of letting runaway bucket state grow unbounded
    memory_limit: int = 500_000_000


#: process-wide default; mutate fields or replace wholesale before building
#: engines/pipelines
DEFAULT = EngineConfig()
