import functools

import pytest

from ite_bench import model


@pytest.fixture
def zero_init(monkeypatch):
    """Make train start from all-zero parameters, build_model's "zeros" scheme."""
    monkeypatch.setattr(
        model, "build_model", functools.partial(model.build_model, scheme="zeros")
    )
