"""ServeConfig validation: actionable errors, oversubscription warning."""

from __future__ import annotations

import io

import pytest

from repro.obs import log
from repro.serve.config import ServeConfig


@pytest.fixture(autouse=True)
def _reset_logging():
    log.reset()
    yield
    log.reset()


class TestValueErrors:
    """Every rejection names the field, the constraint, and the value."""

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"max_batch_size": 0}, "max_batch_size"),
            ({"drift_band": 0.0}, "drift_band"),
            ({"workers": 0}, "workers"),
            ({"drift_band": -0.5}, "drift_band"),
            ({"gemm_threads": 0}, "gemm_threads"),
            ({"train_epochs": -1}, "train_epochs"),
            ({"calib_images": 0}, "calib_images"),
            ({"exec_path": "vectorized"}, "exec_path"),
            ({"gemm_threads": 2}, "gemm_threads"),
        ],
    )
    def test_rejects_and_names_field_and_value(self, kwargs, needle):
        with pytest.raises(ValueError) as exc:
            ServeConfig(**kwargs)
        message = str(exc.value)
        assert needle in message
        # The offending value itself appears in the message.
        bad = repr(list(kwargs.values())[0])
        assert bad.strip("'") in message

    def test_replicas_is_not_a_field(self):
        # Worker threads are the only serving lane.
        with pytest.raises(TypeError):
            ServeConfig(replicas=2)

    def test_gemm_threads_none_is_valid(self):
        assert ServeConfig(gemm_threads=None).gemm_threads is None


class TestOversubscriptionWarning:
    def _build(self, **kwargs) -> str:
        stream = io.StringIO()
        log.configure(stream=stream)
        ServeConfig(port=0, **kwargs)
        return stream.getvalue()

    def test_warns_when_lanes_exceed_affinity(self, monkeypatch):
        from repro.serve import config

        monkeypatch.setattr(config, "usable_cores", lambda: 2)
        out = self._build(workers=3)
        assert "compute_lanes_oversubscribed" in out
        assert "lanes=3" in out
        assert "usable_cores=2" in out

    def test_thread_path_uses_workers_for_lane_count(self):
        # 64 worker threads exceed any box this test will ever run on.
        out = self._build(workers=64)
        assert "compute_lanes_oversubscribed" in out
        assert "lanes=64" in out

    def test_default_config_is_silent(self, monkeypatch):
        # The serve default (2 workers) fits the 2-core bench host; pin
        # the mask to that size so a 1-core runner does not flip it.
        from repro.serve import config

        monkeypatch.setattr(config, "usable_cores", lambda: 2)
        assert "compute_lanes_oversubscribed" not in self._build()

    def test_silent_when_within_budget(self):
        out = self._build(workers=1, gemm_threads=1)
        assert "compute_lanes_oversubscribed" not in out
