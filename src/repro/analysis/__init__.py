"""Analysis and reporting: scaling laws, table printers, ASCII figures."""

from .scaling import (amdahl_time, fit_amdahl, speedup, efficiency,
                      imbalance, max_threads_at_efficiency, ScalingSeries)
from .report import (format_table, print_table, format_si, format_seconds,
                     campaign_table)
from .ascii_fig import line_plot, bar_chart

__all__ = [
    "amdahl_time", "fit_amdahl", "speedup", "efficiency", "imbalance",
    "max_threads_at_efficiency", "ScalingSeries",
    "format_table", "print_table", "format_si", "format_seconds",
    "campaign_table",
    "line_plot", "bar_chart",
]
