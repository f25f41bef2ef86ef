import os

import pytest

from tests.unit.analyzer_kit import REPO_ROOT, run_cli, run_cli_json


@pytest.fixture(scope="session")
def src_check():
    """One ``repro check src --format json`` run from the repo root
    (so the committed baseline applies): ``(exit code, payload)``.

    Shared by every test that asserts on the source tree, which is
    what keeps the analyzer tests to one whole-tree parse.
    """
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return run_cli_json("check", "src")
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="session")
def trace_check():
    """One ``repro check --trace`` text run over the shipped goldens:
    ``(exit code, stdout)``. Each run replays every golden and the
    sanitizer probe, so the per-family cross-check tests share it."""
    code, out, _ = run_cli("check", "--trace")
    return code, out
