"""Toolkit to evaluate and link spatio-temporal segmentations of moving objects."""

from .assign import Matching, solve_max_assignment
from .mask import (DimensionMismatchError, MalformedMaskError, Mask, MaskError, area, iou,
                   iou_matrix, mask_from_cuts, rle_decode, rle_encode)
from .metrics import (GroundTruthSequence, MetricReport, average_precision,
                      binarize_detections, boundary_f, davis_j, evaluate)
from .synth import (NoiseConfig, OcclusionEvent, PlacementError, SynthConfig,
                    corrupt, generate)
from .tracker import (Detection, Track, TrackerConfig, bidirectional_track, gate,
                      merge_moving_static, step, track_sequence)

__version__ = "0.1.0"

__all__ = [
    "Matching", "solve_max_assignment",
    "DimensionMismatchError", "MalformedMaskError", "Mask", "MaskError",
    "area", "iou", "iou_matrix", "mask_from_cuts",
    "rle_decode", "rle_encode",
    "GroundTruthSequence", "MetricReport", "average_precision",
    "binarize_detections", "boundary_f", "davis_j", "evaluate",
    "NoiseConfig", "OcclusionEvent", "PlacementError", "SynthConfig",
    "corrupt", "generate",
    "Detection", "Track", "TrackerConfig", "bidirectional_track", "gate",
    "merge_moving_static", "step", "track_sequence",
    "__version__",
]
