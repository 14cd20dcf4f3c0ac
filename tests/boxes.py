"""Box sums read from the padded integral table, for tests.

The pipeline takes its box sums from the table inside `features`, by
strips and clamped corners.  These clip each rectangle to the image and
take its four corners: a second reading of the same table, to check
`build_integral` and the stages against.  `oracles` sums pixels directly
instead, without the table.
"""

import numpy as np


def box_level_sums(table: np.ndarray, x0, y0, x1, y1) -> np.ndarray:
    """Vectorized clipped rectangle sums over integer levels (exact int64),
    from the padded table of `build_integral`.

    Linear combinations of boxes (Hessian/Haar filters) are formed on these
    integer sums and divided by 255 once, so flat regions cancel to exactly
    zero.
    """
    height, width = table.shape[0] - 1, table.shape[1] - 1
    x0 = np.maximum(np.asarray(x0, dtype=np.int64), 0)
    y0 = np.maximum(np.asarray(y0, dtype=np.int64), 0)
    x1 = np.minimum(np.asarray(x1, dtype=np.int64), width - 1)
    y1 = np.minimum(np.asarray(y1, dtype=np.int64), height - 1)
    x0, y0, x1, y1 = np.broadcast_arrays(x0, y0, x1, y1)
    empty = (x0 > x1) | (y0 > y1)
    # Clamp empty rectangles to a valid cell so the gather stays in bounds.
    cx0 = np.where(empty, 0, x0)
    cy0 = np.where(empty, 0, y0)
    cx1 = np.where(empty, 0, x1)
    cy1 = np.where(empty, 0, y1)
    s = (
        table[cy1 + 1, cx1 + 1]
        - table[cy0, cx1 + 1]
        - table[cy1 + 1, cx0]
        + table[cy0, cx0]
    )
    return np.where(empty, 0, s)


def box_sums(table: np.ndarray, x0, y0, x1, y1) -> np.ndarray:
    """Sums of unit luminance over inclusive rectangles [x0..x1] x [y0..y1].

    Coordinate arrays (or scalars) in, float64 sums out.  Each rectangle is
    clipped to the image first; one that is empty after clipping sums to 0.
    """
    return box_level_sums(table, x0, y0, x1, y1) / 255.0
