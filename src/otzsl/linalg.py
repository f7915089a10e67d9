"""Small dense-matrix helpers shared by the solvers and networks.

Matrices and vectors are plain float64 numpy arrays throughout the package;
these helpers add the validation the rest of the code relies on (finiteness,
nonzero norms) with errors that name the offending entry.
"""

from __future__ import annotations

import numpy as np


def as_float_matrix(values, what: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {arr.shape}")
    ensure_finite(arr, what)
    return arr


def ensure_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(np.ravel(arr)))[0])
        raise ValueError(f"{what} contains a non-finite value at flat index {bad}")


def unit_rows(m: np.ndarray, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """(unit rows, row norms), the norms np.linalg.norm's; a zero or overflowing row raises."""
    with np.errstate(over="ignore"):  # an overflowing row raises below
        norms = np.sqrt(np.add.reduce(m * m, axis=1))
    bad = (norms == 0.0) | (norms == np.inf)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{what} row {i} " + ("has zero norm; cosine distance is undefined"
                         if norms[i] == 0.0 else "is too large: its sum of squares overflows"))
    return m / norms[:, None], norms


def log_softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax; stable for arbitrarily large magnitudes."""
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
