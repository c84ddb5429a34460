"""Results do not depend on the number of workers or the block sizes: the
facet lookups of build_boundary run as linalg.in_order jobs, and the clique
expansion runs in blocks on the calling thread. Filtrations, boundary
matrices, pairings and errors come out the same."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import grasstri
from grasstri import complexes, linalg, persistence
from grasstri.complexes import Filtration


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


def tiny_jobs(mp, workers):
    """Jobs of at most 2 facet lookups on ``workers`` workers, and expansion
    blocks of at most 7 rows."""
    mp.setattr(linalg, "WORKERS", workers)
    mp.setattr(linalg, "BLOCK_BYTES", 600)  # also coboundary blocks of 2-4 columns


@pytest.mark.parametrize("kind", ["rips", "witness"])
def test_results_do_not_depend_on_workers(kind):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "WORKERS", 1)
        f, matrix, pairing = results(inputs()[kind])
    assert f.max_dim == 3 and len(pairing.pairs)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap often, so a lost write would show
    try:
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                tiny_jobs(mp, workers)
                got_f, got_matrix, got_pairing = results(inputs()[kind])
                got_f.validate()
            assert got_f == f, workers
            assert np.array_equal(got_matrix.col_ptr, matrix.col_ptr), workers
            assert np.array_equal(got_matrix.col_rows, matrix.col_rows), workers
            assert np.array_equal(got_pairing.pairs, pairing.pairs), workers
            assert np.array_equal(got_pairing.essential, pairing.essential), workers
    finally:
        sys.setswitchinterval(switch)


def broken(f):
    """``f`` without the youngest facet of its last tetrahedron, and with that
    facet listed after all its cofaces: the faults lie in late jobs."""
    face = int(persistence.build_boundary(f).column(np.flatnonzero(f.dims == 3)[-1])[-1])
    keep = np.arange(len(f)) != face
    gone = Filtration(f.values[keep], f.dims[keep], f.verts[keep], f.vertex_count)
    values = f.values.copy()
    values[face] = f.values.max() + 1.0
    order = np.lexsort((*f.verts.T[::-1], f.dims, values))
    late = Filtration(values[order], f.dims[order], f.verts[order], f.vertex_count)
    return gone, late


@pytest.mark.parametrize("kind", ["rips", "witness"])
def test_missing_face_message_does_not_depend_on_workers(kind):
    f = inputs()[kind]()
    messages = {}
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            tiny_jobs(mp, workers)
            for name, bad in zip(("gone", "late"), broken(f)):
                with pytest.raises(ValueError, match=r"^face \(.+\) of \(.+\) is ") as err:
                    persistence.build_boundary(bad)
                messages.setdefault(name, set()).add(str(err.value))
    assert len(messages["gone"]) == 1 and "missing from" in messages["gone"].pop()
    assert len(messages["late"]) == 1 and "listed at or after" in messages["late"].pop()


def test_resource_limit_does_not_depend_on_workers():
    rng = np.random.default_rng(3)
    dist = complexes.pairwise_distances(rng.standard_normal((12, 3)))
    np.fill_diagonal(dist, 0.0)
    total = len(complexes._flag_expand(dist, dist < 1.6, 3, complexes.DEFAULT_MAX_SIMPLICES))
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            tiny_jobs(mp, workers)
            for cap in (12, total // 2, total - 1):
                with pytest.raises(complexes.ResourceLimit, match=f"exceeds cap {cap}$"):
                    complexes._flag_expand(dist, dist < 1.6, 3, cap)
            assert len(complexes._flag_expand(dist, dist < 1.6, 3, total)) == total


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_in_order_keeps_order_bounds_jobs_and_raises_the_first_failure(monkeypatch, workers):
    monkeypatch.setattr(linalg, "WORKERS", workers)
    lock, running, most = threading.Lock(), [0], [0]

    def job(k, pause, fail):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        try:
            time.sleep(pause)
            if fail:
                raise ValueError(f"job {k}")
            return k
        finally:
            with lock:
                running[0] -= 1

    # later jobs often end first
    jobs = ((k, 0.002 * (k % 3 == 1), False) for k in range(20))
    assert list(linalg.in_order(job, jobs)) == list(range(20))
    assert most[0] <= workers and (workers == 1 or most[0] > 1)
    # job 6 fails at once, while the slow jobs 7 and 8 of its batch still run
    jobs = ((k, 0.02 * (k in (7, 8)), k in (6, 7)) for k in range(20))
    done = []
    with pytest.raises(ValueError, match="^job 6$"):
        for k in linalg.in_order(job, jobs):
            done.append(k)
    assert done == list(range(6)) and running[0] == 0


def test_cli_import_leaves_out_the_thread_pool():
    code = "import sys, grasstri.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(grasstri.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"
