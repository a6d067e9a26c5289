"""Shared serving fixtures: one fast LeNet/ODQ session for the module.

Session builds skip training (``train_epochs=0``) — serving tests verify
plumbing (batching, threading, HTTP), not accuracy, so
random-init weights keep the whole tree in seconds.
"""

from __future__ import annotations

import pytest

from repro.serve.config import ServeConfig
from repro.serve.session import ModelSession


@pytest.fixture(scope="session")
def serve_config() -> ServeConfig:
    return ServeConfig(
        model="lenet",
        scheme="odq",
        dataset="mnist",
        train_epochs=0,
        calib_images=32,
        max_batch_size=8,
        workers=2,
        port=0,
    )


@pytest.fixture(scope="session")
def session(serve_config) -> ModelSession:
    return ModelSession(serve_config)
