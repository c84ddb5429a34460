"""Fixtures the test modules share."""

import itertools

import pytest


@pytest.fixture(scope="module")
def _module_dirs(tmp_path_factory, request):
    """The module's working directory, the one its tests' files move to, and
    a counter that names them there."""
    work, kept = (tmp_path_factory.mktemp(request.module.__name__ + s) for s in ("", "-kept"))
    return work, kept, itertools.count()


@pytest.fixture
def shared_dir(_module_dirs):
    """The test module's one working directory, for a test that writes only
    files: empty when the test starts. When the test ends, its files move to
    the module's second directory under new names, where pytest deletes them
    with the rest of the run. Unlinking them here would wait for their
    write-back, and a ``tmp_path`` for each test would be one more directory
    to delete."""
    work, kept, count = _module_dirs
    yield work
    for path in work.iterdir():
        path.rename(kept / f"{next(count)}-{path.name}")
