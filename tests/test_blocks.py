"""Results do not depend on the block sizes, and no thread is started: the
facet lookups of build_boundary and the clique expansion run in blocks on the
calling thread. Filtrations, boundary matrices, pairings and errors come out
the same."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import grasstri
from grasstri import complexes, linalg, persistence
from grasstri.complexes import Filtration
from simplices import column


def inputs():
    rng = np.random.default_rng(7)
    points, cloud = rng.standard_normal((12, 3)), rng.standard_normal((60, 3))
    landmarks = complexes.maxmin_landmarks(cloud, 10, np.random.default_rng(8))
    return {"rips": lambda: complexes.vietoris_rips(points, 1.6, 3),
            "witness": lambda: complexes.witness_filtration(landmarks, 1.0, 3)}


def results(build):
    f = build()
    matrix = persistence.build_boundary(f)
    pairing = persistence.reduce_boundary(matrix)
    return f, matrix, pairing


def tiny_blocks(mp):
    """Facet lookups of at most 2 columns a block, and expansion blocks of at
    most 7 rows."""
    mp.setattr(linalg, "BLOCK_BYTES", 600)  # also coboundary blocks of 2-4 columns


@pytest.mark.parametrize("kind", ["rips", "witness"])
def test_results_do_not_depend_on_block_sizes(kind):
    f, matrix, pairing = results(inputs()[kind])
    assert f.max_dim == 3 and len(pairing.pairs)
    with pytest.MonkeyPatch.context() as mp:
        tiny_blocks(mp)
        got_f, got_matrix, got_pairing = results(inputs()[kind])
        got_f.validate()
    assert got_f == f
    assert np.array_equal(got_matrix.col_ptr, matrix.col_ptr)
    assert np.array_equal(got_matrix.col_rows, matrix.col_rows)
    assert np.array_equal(got_pairing.pairs, pairing.pairs)
    assert np.array_equal(got_pairing.essential, pairing.essential)


def broken(f):
    """``f`` without the youngest facet of its last tetrahedron, and with that
    facet listed after all its cofaces: the faults lie in late blocks."""
    face = int(column(persistence.build_boundary(f), np.flatnonzero(f.dims == 3)[-1])[-1])
    keep = np.arange(len(f)) != face
    gone = Filtration(f.values[keep], f.dims[keep], f.verts[keep], f.vertex_count)
    values = f.values.copy()
    values[face] = f.values.max() + 1.0
    order = np.lexsort((*f.verts.T[::-1], f.dims, values))
    late = Filtration(values[order], f.dims[order], f.verts[order], f.vertex_count)
    return gone, late


@pytest.mark.parametrize("kind", ["rips", "witness"])
def test_missing_face_message_does_not_depend_on_block_sizes(kind):
    f = inputs()[kind]()
    messages = {}
    for tiny in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if tiny:
                tiny_blocks(mp)
            for name, bad in zip(("gone", "late"), broken(f)):
                with pytest.raises(ValueError, match=r"^face \(.+\) of \(.+\) is ") as err:
                    persistence.build_boundary(bad)
                messages.setdefault(name, set()).add(str(err.value))
    assert len(messages["gone"]) == 1 and "missing from" in messages["gone"].pop()
    assert len(messages["late"]) == 1 and "listed at or after" in messages["late"].pop()


def test_resource_limit_does_not_depend_on_block_sizes():
    rng = np.random.default_rng(3)
    dist = complexes.pairwise_distances(rng.standard_normal((12, 3)))
    np.fill_diagonal(dist, 0.0)
    total = len(complexes._flag_expand(dist, dist < 1.6, 3, complexes.DEFAULT_MAX_SIMPLICES))
    with pytest.MonkeyPatch.context() as mp:
        tiny_blocks(mp)
        for cap in (12, total // 2, total - 1):
            with pytest.raises(complexes.ResourceLimit, match=f"exceeds cap {cap}$"):
                complexes._flag_expand(dist, dist < 1.6, 3, cap)
        assert len(complexes._flag_expand(dist, dist < 1.6, 3, total)) == total


def test_barcodes_starts_no_thread():
    f = inputs()["rips"]()
    with pytest.MonkeyPatch.context() as mp:
        tiny_blocks(mp)
        # every facet dimension takes several blocks of at most 2 columns
        assert all(np.count_nonzero(f.dims == d) > 2 for d in range(1, f.max_dim + 1))
        persistence.barcodes(f)
    assert [t.name for t in threading.enumerate() if t.name.startswith("grasstri")] == []


def test_cli_import_leaves_out_the_thread_pool():
    code = "import sys, grasstri.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(grasstri.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"
