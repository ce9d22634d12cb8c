"""Pure-NumPy image processing primitives.

This package replaces the external C/C++ vision routines the paper's
"segment detector" and "tennis detector" relied on.  Every operator the
pipeline needs is implemented here on ``numpy.ndarray`` images:

- colour space conversion (:mod:`repro.vision.color`),
- colour histograms and the histogram difference (:mod:`repro.vision.histogram`),
- frame statistics: entropy, mean, variance (:mod:`repro.vision.stats`),
- a parametric skin-colour model (:mod:`repro.vision.skin`),
- dominant-colour estimation (:mod:`repro.vision.dominant`),
- connected-component labelling (:mod:`repro.vision.regions`),
- binary opening and closing (:mod:`repro.vision.morphology`),
- geometric moments and shape features (:mod:`repro.vision.moments`).

Images are ``uint8`` arrays of shape ``(H, W, 3)`` (RGB) or ``(H, W)``
(greyscale / binary masks).  All operators are vectorised and allocate
rather than mutate their inputs.  Every per-frame operator on the
pipeline's hot path also has a *batched* form (``color_histograms``,
``frame_statistics_batch``, ``SkinColorModel.masks`` …) that takes a
clip, a stacked ``(N, H, W, 3)`` array or a :class:`FrameBlock` and
produces exactly the per-frame values.  The colour kernels read one
per-frame state (planes, 16-level colour counts, grey); a
:class:`FrameBlock` shares it between them.
"""

from repro.vision.color import (
    FrameBlock,
    rgb_to_grey,
    rgb_to_hsv,
    hsv_to_rgb,
    ensure_frames,
)
from repro.vision.histogram import (
    color_histogram,
    color_histograms,
    grey_histogram,
    hsv_histograms,
    histogram_difference,
)
from repro.vision.stats import (
    frame_entropy,
    frame_mean,
    frame_variance,
    frame_statistics_batch,
)
from repro.vision.skin import SkinColorModel, skin_ratio
from repro.vision.dominant import (
    dominant_color,
    dominant_colors,
    color_coverage,
    color_coverages,
)
from repro.vision.regions import label_regions
from repro.vision.morphology import opening, closing
from repro.vision.moments import ShapeFeatures, shape_features

__all__ = [
    "FrameBlock",
    "rgb_to_grey",
    "rgb_to_hsv",
    "hsv_to_rgb",
    "ensure_frames",
    "color_histogram",
    "color_histograms",
    "grey_histogram",
    "hsv_histograms",
    "histogram_difference",
    "frame_entropy",
    "frame_mean",
    "frame_variance",
    "frame_statistics_batch",
    "SkinColorModel",
    "skin_ratio",
    "dominant_color",
    "dominant_colors",
    "color_coverage",
    "color_coverages",
    "label_regions",
    "opening",
    "closing",
    "ShapeFeatures",
    "shape_features",
]
