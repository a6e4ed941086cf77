"""The harness self-tests need no content streams: replace the parent
directory's session-wide parallel prewarm (every paper workload at the
bench size, through a process pool) with a no-op."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def prewarm_content_streams():
    yield
