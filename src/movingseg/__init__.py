"""Toolkit to evaluate and link spatio-temporal segmentations of moving objects."""

from .assign import Matching, brute_force_assignment, solve_max_assignment
from .mask import (DimensionMismatchError, MalformedMaskError, Mask, MaskError,
                   area, bbox, intersection_area, iou, iou_matrix, mask_from_cuts,
                   rle_decode, rle_encode, union_merge)
from .metrics import (GroundTruthSequence, MetricReport, Region, average_precision,
                      binarize_detections, boundary_f, davis_j, delta_obj,
                      evaluate_dataset, official_measure, pairwise_prf,
                      proposed_measure)
from .synth import (NoiseConfig, OcclusionEvent, PlacementError, SynthConfig,
                    corrupt, generate)
from .tracker import (Detection, Track, TrackerConfig, bidirectional_track, gate,
                      merge_moving_static, step, track_sequence)

__version__ = "0.1.0"

__all__ = [
    "Matching", "brute_force_assignment", "solve_max_assignment",
    "DimensionMismatchError", "MalformedMaskError", "Mask", "MaskError",
    "area", "bbox", "intersection_area", "iou", "iou_matrix", "mask_from_cuts",
    "rle_decode", "rle_encode", "union_merge",
    "GroundTruthSequence", "MetricReport", "Region", "average_precision",
    "binarize_detections", "boundary_f", "davis_j", "delta_obj",
    "evaluate_dataset", "official_measure", "pairwise_prf", "proposed_measure",
    "NoiseConfig", "OcclusionEvent", "PlacementError", "SynthConfig",
    "corrupt", "generate",
    "Detection", "Track", "TrackerConfig", "bidirectional_track", "gate",
    "merge_moving_static", "step", "track_sequence",
    "__version__",
]
