"""Analysis toolkit: summary statistics, table and figure rendering."""

from repro.analysis.figures import Figure, Series
from repro.analysis.stats import SummaryStats, confidence_interval, summarize
from repro.analysis.tables import Table

__all__ = [
    "SummaryStats",
    "summarize",
    "confidence_interval",
    "Table",
    "Series",
    "Figure",
]
