"""Analyses that regenerate every table and figure in the paper.

Every stream-consuming analysis has one entry point, a
``*_from_batches`` function that reduces columnar
:class:`~repro.engine.batch.EventBatch` streams in one vectorized pass
(see :mod:`repro.analysis.accumulators`).  An ASCII trace file reaches
them through :func:`repro.trace.store.batches_from_records`.
"""

from repro.analysis import accumulators
from repro.analysis.compare import Comparison, ComparisonRow
from repro.analysis.filestore import (
    FilestoreStatistics,
    filestore_statistics,
    referenced_share,
)
from repro.analysis.intervals import (
    IntervalAnalysis,
    file_interreference_from_batches,
    system_interarrivals_from_batches,
)
from repro.analysis.latency import (
    LatencyDistributions,
    decomposition_comparison,
    from_metrics,
    latency_distributions_from_batches,
)
from repro.analysis.overall import (
    OverallStatistics,
    overall_statistics_from_batches,
)
from repro.analysis.periodicity import (
    PeriodicityReport,
    analyze_direction_from_batches,
    periodicity_comparison_from_batches,
    rate_series_from_batches,
)
from repro.analysis.tenants import (
    TenantBreakdown,
    tenant_breakdown_from_batches,
)
from repro.analysis.rates import (
    RateProfile,
    holiday_read_dip,
    hourly_profile_from_batches,
    read_growth_factor,
    secular_series_from_batches,
    weekend_read_dip,
    weekly_profile_from_batches,
    working_hours_lift,
    write_flatness,
)
from repro.analysis.refcounts import (
    ReferenceCounts,
    reference_counts_from_batches,
)
from repro.analysis.render import TextTable, render_cdf, render_series
from repro.analysis.sizes import (
    DirectorySizeDistribution,
    DynamicSizeDistribution,
    StaticSizeDistribution,
    directory_distribution,
    dynamic_distribution_from_batches,
    static_distribution,
)
from repro.analysis.tables import (
    PyramidLevel,
    crossover_size,
    measured_media_behaviour,
    media_comparison_table,
    pyramid_is_consistent,
    pyramid_table,
    storage_pyramid,
    time_to_last_byte,
    trace_format_table,
    verbose_log_sample,
)

__all__ = [
    "Comparison",
    "ComparisonRow",
    "accumulators",
    "DirectorySizeDistribution",
    "DynamicSizeDistribution",
    "FilestoreStatistics",
    "IntervalAnalysis",
    "LatencyDistributions",
    "OverallStatistics",
    "PeriodicityReport",
    "PyramidLevel",
    "RateProfile",
    "ReferenceCounts",
    "StaticSizeDistribution",
    "TextTable",
    "analyze_direction_from_batches",
    "crossover_size",
    "decomposition_comparison",
    "directory_distribution",
    "dynamic_distribution_from_batches",
    "file_interreference_from_batches",
    "filestore_statistics",
    "from_metrics",
    "holiday_read_dip",
    "hourly_profile_from_batches",
    "latency_distributions_from_batches",
    "measured_media_behaviour",
    "media_comparison_table",
    "overall_statistics_from_batches",
    "periodicity_comparison_from_batches",
    "pyramid_is_consistent",
    "pyramid_table",
    "rate_series_from_batches",
    "read_growth_factor",
    "reference_counts_from_batches",
    "referenced_share",
    "render_cdf",
    "render_series",
    "secular_series_from_batches",
    "static_distribution",
    "storage_pyramid",
    "system_interarrivals_from_batches",
    "TenantBreakdown",
    "tenant_breakdown_from_batches",
    "time_to_last_byte",
    "trace_format_table",
    "verbose_log_sample",
    "weekend_read_dip",
    "weekly_profile_from_batches",
    "working_hours_lift",
    "write_flatness",
]
