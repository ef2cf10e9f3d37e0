"""Integer box calculus, patch sets, owner maps and rasterization."""

from .box import Box, bounding_box
from .boxlist import BoxList, coalesce_boxes, intersection_volume
from .ownermap import (
    OwnerMap,
    box_corners,
    cell_boxes,
    corner_volumes,
    face_contacts,
    matched_volume,
    overlap_volume,
    overlay_corners,
    overlay_pairs,
    pair_intersections,
    prefix_corners,
    split_in_scan_order,
    suffix_corners,
)
from .pairindex import candidate_pairs
from .raster import (
    NO_OWNER,
    block_overlaps,
    paint_box,
    rasterize_mask,
)

__all__ = [
    "Box",
    "BoxList",
    "bounding_box",
    "coalesce_boxes",
    "intersection_volume",
    "OwnerMap",
    "box_corners",
    "cell_boxes",
    "corner_volumes",
    "face_contacts",
    "matched_volume",
    "overlap_volume",
    "overlay_corners",
    "overlay_pairs",
    "pair_intersections",
    "prefix_corners",
    "split_in_scan_order",
    "suffix_corners",
    "candidate_pairs",
    "NO_OWNER",
    "block_overlaps",
    "paint_box",
    "rasterize_mask",
]
