import pytest

from ite_bench import model


@pytest.fixture
def zero_init(monkeypatch):
    """Make train start from all-zero parameters."""
    build = model.build_model

    def build_zeros(*args, **kwargs):
        built = build(*args, **kwargs)
        built.theta[:] = 0.0
        return built

    monkeypatch.setattr(model, "build_model", build_zeros)
