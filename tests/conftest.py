"""Shared test configuration.

Point the default result cache (`repro.session.resolve_cache_dir`, used
by `default_session()` and therefore by bare `run_workload` /
`compare_mechanisms` calls and CLI invocations without `--cache-dir`) at
a per-run scratch directory. Tests still exercise real caching — points
memoise across a pytest run — but never read a stale `.repro-cache/`
from a previous run or litter the repository root. The env var is
inherited by `repro` subprocesses (queue workers, daemons), so the
off-process paths stay isolated too.
"""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_default_cache(tmp_path_factory):
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
