"""Plain-text (P2) PGM writer for grid snapshots.

Images are written north-up: array row ``h-1`` (largest y) becomes the top
image row. Output is deterministic: fixed header, one image row per line.
"""

from __future__ import annotations

import numpy as np


def write_pgm(path, values: np.ndarray) -> None:
    """Write a (h, w) uint8 array as plain PGM."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("PGM values must fit in 0..255")
        arr = arr.astype(np.uint8)
    h, w = arr.shape
    lines = [f"P2", f"{w} {h}", "255"]
    for row in arr[::-1]:  # north-up
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
