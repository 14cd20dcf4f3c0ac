"""arfex: local-feature extraction and object recognition for AR-style lookup.

Pipeline: image ingestion -> grayscale/integral image -> fast-Hessian
interest points with Haar-wavelet descriptors -> sign-filtered ratio-test
matching -> RANSAC homography verification -> associated-info retrieval
from an indexed object database.  Scanline blob detection is provided as a
companion region detector.
"""

from .blobs import Blob, binarize, detect_blobs, merge_lineblobs, scan_lineblobs
from .errors import (
    ArfexError,
    DegenerateConfiguration,
    DuplicateId,
    ImageTooSmall,
    InsufficientMatches,
    NoFeatures,
    ParseError,
    PointAtInfinity,
    SingularSystem,
    VersionMismatch,
)
from .features import (
    Descriptor,
    ExtractionConfig,
    Features,
    InterestPoint,
    ResponseMap,
    assign_orientation,
    build_response_maps,
    detect_interest_points,
    extract_descriptor,
    extract_features,
    filter_sizes,
)
from .geometry import (
    Homography,
    VerificationResult,
    estimate_homography,
    project_point,
    ransac_verify,
    reprojection_errors,
)
from .image import (
    GrayImage,
    IntegralImage,
    RasterImage,
    box_level_sums,
    box_sums,
    build_integral,
    to_grayscale,
)
from .image_io import read_image, write_ppm
from .store import (
    Database,
    ObjectRecord,
    QueryResult,
    RankedCandidate,
    UNRECOGNIZED,
    index_image,
    load_db,
    query_image,
    save_db,
)

__version__ = "0.1.0"

__all__ = [
    "ArfexError",
    "Blob",
    "Database",
    "DegenerateConfiguration",
    "Descriptor",
    "DuplicateId",
    "ExtractionConfig",
    "Features",
    "GrayImage",
    "Homography",
    "ImageTooSmall",
    "InsufficientMatches",
    "IntegralImage",
    "InterestPoint",
    "NoFeatures",
    "ObjectRecord",
    "ParseError",
    "PointAtInfinity",
    "QueryResult",
    "RankedCandidate",
    "RasterImage",
    "ResponseMap",
    "SingularSystem",
    "UNRECOGNIZED",
    "VerificationResult",
    "VersionMismatch",
    "assign_orientation",
    "binarize",
    "box_level_sums",
    "box_sums",
    "build_integral",
    "build_response_maps",
    "detect_blobs",
    "detect_interest_points",
    "estimate_homography",
    "extract_descriptor",
    "extract_features",
    "filter_sizes",
    "index_image",
    "load_db",
    "merge_lineblobs",
    "project_point",
    "query_image",
    "ransac_verify",
    "read_image",
    "reprojection_errors",
    "save_db",
    "scan_lineblobs",
    "to_grayscale",
    "write_ppm",
]
