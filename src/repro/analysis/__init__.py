"""Presentation helpers: text tables and ASCII line charts.

The paper's figures are line charts; on a terminal we render the same
series as aligned tables (exact numbers) and coarse ASCII charts (shape
at a glance).  Nothing here affects measurement.
"""

from repro.analysis.tables import format_series_table, format_table
from repro.analysis.plots import ascii_chart

__all__ = ["ascii_chart", "format_series_table", "format_table"]
