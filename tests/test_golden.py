"""The golden store itself: a missing golden fails instead of freezing."""

import json

import pytest

from . import _golden


def test_missing_golden_fails_with_the_value_to_commit(tmp_path, monkeypatch):
    monkeypatch.setattr(_golden, "GOLDEN_DIR", tmp_path)
    with pytest.raises(AssertionError) as exc:
        _golden.check_golden("not_frozen", [1.5, 2.0])
    assert "not_frozen.json is missing" in str(exc.value)
    assert json.dumps({"value": [1.5, 2.0]}, indent=2) in str(exc.value)
    assert list(tmp_path.iterdir()) == []

