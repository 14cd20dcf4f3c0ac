"""Independent reference computations the test suite checks against.

Everything here recomputes results from first principles (direct pixel
summation, explicit filter layout, flood fill, exhaustive search) without
touching the integral-image or scanline machinery under test.
"""

import numpy as np


def naive_box_sum(unit: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> float:
    """Direct summation over the clipped inclusive rectangle."""
    h, w = unit.shape
    x0 = max(x0, 0)
    y0 = max(y0, 0)
    x1 = min(x1, w - 1)
    y1 = min(y1, h - 1)
    if x0 > x1 or y0 > y1:
        return 0.0
    total = 0.0
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            total += unit[y, x]
    return total


def slice_box_sum(unit: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> float:
    """Clipped rectangle sum via a single array slice (no prefix table)."""
    h, w = unit.shape
    x0 = max(x0, 0)
    y0 = max(y0, 0)
    x1 = min(x1, w - 1)
    y1 = min(y1, h - 1)
    if x0 > x1 or y0 > y1:
        return 0.0
    return float(unit[y0 : y1 + 1, x0 : x1 + 1].sum())


def hessian_response_at(levels: np.ndarray, x: int, y: int, size: int, dxy_weight: float = 0.9):
    """(response, laplacian_sign) at one pixel by direct box-filter summation.

    `levels` holds 8-bit integer levels (e.g. from `image.to_grayscale`), not the
    [0, 1] unit view; a float array raises TypeError rather than being
    truncated to zeros.  Rectangle layout restated independently; cells
    whose support (reach (size-1)/2) leaves the image are (0.0, +1).  Sums
    run over integer levels so the trace sign has no float noise on
    exact-zero ties.
    """
    if not np.issubdtype(levels.dtype, np.integer):
        raise TypeError(f"levels must be 8-bit integer levels, got dtype {levels.dtype}")
    h, w = levels.shape
    ilevels = levels.astype(np.int64)
    lobe = size // 3
    border = (size - 1) // 2
    half = (lobe - 1) // 2
    if x < border or x > w - 1 - border or y < border or y > h - 1 - border:
        return 0.0, 1
    bs = lambda a, b, c, d: int(slice_box_sum(ilevels, a, b, c, d))
    dxx = bs(x - border, y - lobe + 1, x + border, y + lobe - 1) - 3 * bs(
        x - half, y - lobe + 1, x + half, y + lobe - 1
    )
    dyy = bs(x - lobe + 1, y - border, x + lobe - 1, y + border) - 3 * bs(
        x - lobe + 1, y - half, x + lobe - 1, y + half
    )
    dxy = (
        bs(x + 1, y - lobe, x + lobe, y - 1)
        + bs(x - lobe, y + 1, x - 1, y + lobe)
        - bs(x - lobe, y - lobe, x - 1, y - 1)
        - bs(x + 1, y + 1, x + lobe, y + lobe)
    )
    sign = -1 if dxx + dyy < 0 else 1
    inv = 1.0 / (255.0 * size * size)
    response = (dxx * inv) * (dyy * inv) - (dxy_weight * dxy * inv) ** 2
    return response, sign


def flood_fill_labels(mask: np.ndarray) -> np.ndarray:
    """4-connected component labels (stack-based flood fill), 0 = background."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    next_label = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or labels[sy, sx]:
                continue
            next_label += 1
            stack = [(sx, sy)]
            labels[sy, sx] = next_label
            while stack:
                x, y = stack.pop()
                for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                    if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = next_label
                        stack.append((nx, ny))
    return labels


def partition_from_labels(labels: np.ndarray) -> set[frozenset]:
    """Set-of-pixel-sets view of a labeling (label values don't matter)."""
    groups: dict[int, set] = {}
    for y, x in np.argwhere(labels > 0):
        groups.setdefault(int(labels[y, x]), set()).add((int(x), int(y)))
    return {frozenset(g) for g in groups.values()}


def brute_force_matches(query, target, ratio: float = 0.7, sign_filter: bool = True,
                        single_max: float = 0.5):
    """Exhaustive NN + ratio test via scipy distance matrix and sorting.

    Returns (query_index, target_index, distance) triples in the canonical
    order (distance, query_index, target_index).
    """
    from scipy.spatial.distance import cdist

    if not query or not target:
        return []
    qmat = np.stack([d.components for d in query])
    tmat = np.stack([d.components for d in target])
    qsign = np.array([d.laplacian_sign for d in query])
    tsign = np.array([d.laplacian_sign for d in target])
    dist = cdist(qmat, tmat)
    out = []
    for qi in range(len(query)):
        cand = np.flatnonzero(tsign == qsign[qi]) if sign_filter else np.arange(len(target))
        if cand.size == 0:
            continue
        row = dist[qi, cand]
        order = np.argsort(row, kind="stable")
        if cand.size == 1:
            if row[0] < single_max:
                out.append((qi, int(cand[0]), float(row[0])))
            continue
        d1, d2 = float(row[order[0]]), float(row[order[1]])
        if d1 < ratio * d2:
            out.append((qi, int(cand[order[0]]), d1))
    out.sort(key=lambda t: (t[2], t[0], t[1]))
    return out
