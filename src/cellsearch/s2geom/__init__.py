"""Hierarchical sphere grid: cell ids, projections, and rect coverings."""

from .cellid import (
    MAX_LEVEL,
    CellId,
    LatLng,
    all_cells_at_level,
    cell_centers_vec,
    cell_from_latlng,
    cell_from_raw_ij,
    cells_from_latlng_vec,
    check_level,
    is_valid_raw,
    num_cells_at_level,
    valid_at_level,
)
from .region import GeoRect, cover_rect_raw, cover_rects_raw, rect_intersects_cells

__all__ = [
    "MAX_LEVEL",
    "CellId",
    "LatLng",
    "GeoRect",
    "all_cells_at_level",
    "cell_centers_vec",
    "cell_from_latlng",
    "cell_from_raw_ij",
    "cells_from_latlng_vec",
    "check_level",
    "cover_rect_raw",
    "cover_rects_raw",
    "is_valid_raw",
    "num_cells_at_level",
    "rect_intersects_cells",
    "valid_at_level",
]
