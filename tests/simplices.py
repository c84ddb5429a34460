"""One simplex at a time, for tests.

The library holds a simplex only as a row of ``Filtration.values``, ``dims``
and ``verts``, and a boundary column only as a slice of ``col_rows``. Tests
that state small cases by hand, or compare with a brute-force oracle, read
and build them through these helpers.
"""

from typing import NamedTuple

import numpy as np

from grasstri import persistence
from grasstri.complexes import Filtration


class Simplex(NamedTuple):
    vertices: tuple[int, ...]
    value: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


def from_simplices(items, vertex_count: int) -> Filtration:
    """Filtration of Simplex items given in any order, validated."""
    items = sorted(items, key=lambda s: (s.value, len(s.vertices), s.vertices))
    width = max([len(s.vertices) for s in items], default=1)
    verts = [[*s.vertices, *[-1] * (width - len(s.vertices))] for s in items]
    filtration = Filtration([s.value for s in items], [len(s.vertices) - 1 for s in items],
                            np.reshape(verts, (-1, width)), vertex_count)
    filtration.validate()
    return filtration


def simplex(filtration: Filtration, i: int) -> Simplex:
    d = int(filtration.dims[i])
    return Simplex(tuple(int(v) for v in filtration.verts[i, :d + 1]),
                   float(filtration.values[i]))


def simplices(filtration: Filtration) -> list[Simplex]:
    return [simplex(filtration, i) for i in range(len(filtration))]


def betti_at(barcode: persistence.Barcode, r: float, top_dim: int | None = None) -> tuple:
    """Betti numbers at parameter r: intervals with birth <= r < death."""
    top = int(barcode.dims.max(initial=0)) if top_dim is None else top_dim
    return tuple(persistence.betti_profile(barcode, [r], top)[0].tolist())


def column(matrix: persistence.BoundaryMatrix, j: int) -> np.ndarray:
    return matrix.col_rows[matrix.col_ptr[j]:matrix.col_ptr[j + 1]]
