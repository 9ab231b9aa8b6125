"""Plain-text visualisation: tables, series plots, Gantt charts."""

from .._lazy import lazy_exports

__all__ = [
    "render_table",
    "format_cell",
    "render_bars",
    "render_series",
    "render_gantt",
    "render_speed_profile",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".gantt": ("render_gantt",),
        ".series": ("render_bars", "render_series"),
        ".speedplot": ("render_speed_profile",),
        ".tables": ("format_cell", "render_table"),
    },
)
