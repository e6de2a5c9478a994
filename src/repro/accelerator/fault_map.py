"""Fault maps of the systolic computational array.

A :class:`FaultMap` records which processing elements (PEs) of an ``R x C``
systolic array suffer a permanent fault.  Following the fault model of
Zhang et al. (VTS 2018) — the model the paper builds on — a faulty PE is
assumed to have a fault in its MAC unit that is mitigated by *bypassing* the
multiplier (Fault-Aware Pruning), which is equivalent to forcing every weight
mapped onto that PE to zero.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng


def _coordinate_pairs(rows: int, cols: int, indices: Iterable[Tuple[int, int]]) -> np.ndarray:
    """``(K, 2)`` int64 array of in-range ``(row, col)`` coordinates.

    Well-formed input converts and range-checks in one vectorized pass.
    Anything else (coordinates come from stores and socket frames) is checked
    pair by pair, so the first bad pair raises what a per-pair ``r, c = pair``
    unpack and range check would: ``TypeError`` for an entry that is not
    iterable or a coordinate that is not a number, ``ValueError`` for an entry
    that is not a pair, and ``IndexError`` for a non-integer or out-of-range
    coordinate.
    """
    pairs = indices if isinstance(indices, np.ndarray) else list(indices)
    if len(pairs) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    try:
        coords = np.asarray(pairs)
    except ValueError:  # ragged: some entry is not a pair
        coords = None
    if coords is not None and coords.shape[1:] == (2,) and coords.dtype.kind in "iu":
        if ((coords >= 0) & (coords < (rows, cols))).all():
            return coords.astype(np.int64, copy=False)
    for r, c in pairs:
        for value in (r, c):
            if isinstance(value, (float, np.floating)):
                raise IndexError(f"PE coordinate ({r}, {c}) is not an integer pair")
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"PE coordinate ({r}, {c}) is not an integer pair")
        if not (0 <= r < rows and 0 <= c < cols):
            raise IndexError(f"PE coordinate ({r}, {c}) outside a {rows}x{cols} array")
    return np.asarray(pairs, dtype=np.int64)


class FaultMap:
    """Boolean map of permanently faulty PEs in an ``R x C`` systolic array."""

    def __init__(self, faulty: np.ndarray) -> None:
        array = np.asarray(faulty)
        if array.ndim != 2:
            raise ValueError(f"a fault map must be 2-D, got shape {array.shape}")
        if array.size == 0:
            raise ValueError("a fault map must have at least one PE")
        self._faulty = array.astype(bool).copy()
        self._faulty.setflags(write=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def none(cls, rows: int, cols: int) -> "FaultMap":
        """A fully functional (fault-free) array."""
        return cls(np.zeros((rows, cols), dtype=bool))

    @classmethod
    def from_indices(cls, rows: int, cols: int, indices: Iterable[Tuple[int, int]]) -> "FaultMap":
        """Build a map from explicit ``(row, col)`` faulty-PE coordinates."""
        faulty = np.zeros((rows, cols), dtype=bool)
        coords = _coordinate_pairs(rows, cols, indices)
        faulty[coords[:, 0], coords[:, 1]] = True
        return cls(faulty)

    @classmethod
    def random(
        cls,
        rows: int,
        cols: int,
        fault_rate: float,
        seed: SeedLike = None,
        exact: bool = True,
    ) -> "FaultMap":
        """Random permanent-fault map (the paper's fault-injection model).

        With ``exact=True`` exactly ``round(fault_rate * rows * cols)`` PEs are
        marked faulty (uniformly without replacement), which makes the
        realised fault rate deterministic; with ``exact=False`` each PE fails
        independently with probability ``fault_rate``.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        rng = new_rng(seed)
        total = rows * cols
        faulty = np.zeros(total, dtype=bool)
        if exact:
            count = int(round(fault_rate * total))
            if count > 0:
                chosen = rng.choice(total, size=count, replace=False)
                faulty[chosen] = True
        else:
            faulty = rng.random(total) < fault_rate
        return cls(faulty.reshape(rows, cols))

    @classmethod
    def clustered(
        cls,
        rows: int,
        cols: int,
        fault_rate: float,
        cluster_size: int = 4,
        seed: SeedLike = None,
    ) -> "FaultMap":
        """Spatially clustered faults (e.g. from localized manufacturing defects).

        Faults are added as square clusters of roughly ``cluster_size`` PEs
        until the target fault count is reached; the final cluster is truncated
        so the realised count matches ``round(fault_rate * rows * cols)``.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        if cluster_size <= 0:
            raise ValueError("cluster_size must be positive")
        rng = new_rng(seed)
        target = int(round(fault_rate * rows * cols))
        faulty = np.zeros((rows, cols), dtype=bool)
        side = max(1, int(round(np.sqrt(cluster_size))))
        guard = 0
        while faulty.sum() < target and guard < 100 * rows * cols:
            guard += 1
            top = int(rng.integers(0, rows))
            left = int(rng.integers(0, cols))
            block = faulty[top:top + side, left:left + side]
            needed = target - int(faulty.sum())
            flat = block.reshape(-1)
            healthy = np.flatnonzero(~flat)
            to_fail = healthy[:needed]
            flat[to_fail] = True
            faulty[top:top + side, left:left + side] = flat.reshape(block.shape)
        return cls(faulty)

    @classmethod
    def faulty_columns(cls, rows: int, cols: int, col_indices: Iterable[int]) -> "FaultMap":
        """Whole columns dead (e.g. broken weight-load buses)."""
        faulty = np.zeros((rows, cols), dtype=bool)
        for index in col_indices:
            faulty[:, index] = True
        return cls(faulty)

    # -- properties -----------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """Read-only boolean array, ``True`` where the PE is faulty."""
        return self._faulty

    @property
    def rows(self) -> int:
        return self._faulty.shape[0]

    @property
    def cols(self) -> int:
        return self._faulty.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self._faulty.shape

    @property
    def num_pes(self) -> int:
        return self._faulty.size

    @property
    def num_faulty(self) -> int:
        return int(self._faulty.sum())

    @property
    def fault_rate(self) -> float:
        """Fraction of faulty PEs — the statistic Reduce keys its lookup on."""
        return self.num_faulty / self.num_pes

    def faulty_indices(self) -> np.ndarray:
        """``(K, 2)`` array of the (row, col) coordinates of faulty PEs."""
        return np.argwhere(self._faulty)

    def row_fault_counts(self) -> np.ndarray:
        """Number of faulty PEs in each row."""
        return self._faulty.sum(axis=1)

    def column_fault_counts(self) -> np.ndarray:
        """Number of faulty PEs in each column."""
        return self._faulty.sum(axis=0)

    def rows_with_faults(self) -> np.ndarray:
        return np.flatnonzero(self.row_fault_counts() > 0)

    def columns_with_faults(self) -> np.ndarray:
        return np.flatnonzero(self.column_fault_counts() > 0)

    # -- transformations -------------------------------------------------------

    def permuted_columns(self, permutation: Sequence[int]) -> "FaultMap":
        """Return a new map with columns reordered by ``permutation``.

        Used by fault-aware mapping (FAM): logically re-mapping which weight
        column lands on which physical column is equivalent to permuting the
        columns of the fault map seen by the weights.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.cols,) or sorted(perm.tolist()) != list(range(self.cols)):
            raise ValueError("permutation must be a permutation of range(cols)")
        return FaultMap(self._faulty[:, perm])

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "faulty_indices": self.faulty_indices().tolist(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultMap":
        return cls.from_indices(int(data["rows"]), int(data["cols"]), data["faulty_indices"])

    # -- dunder ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._faulty, other.array))

    def __hash__(self) -> int:
        return hash((self.shape, self._faulty.tobytes()))

    def __repr__(self) -> str:
        return (
            f"FaultMap({self.rows}x{self.cols}, faulty={self.num_faulty}, "
            f"rate={self.fault_rate:.4f})"
        )
