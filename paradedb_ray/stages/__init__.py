from paradedb_ray.stages.search_stages import (  # noqa: F401
    StatsCollector,
    SegmentScorer,
    collect_stat_requests,
    compute_global_stats,
)
