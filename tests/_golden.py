"""Golden store: committed values that later runs regress against.

Each check compares the computed value with the frozen number in
``golden/<name>.json`` within a multiplicative band (default x1.5,
matching the regression tolerances used throughout). A missing golden
file fails the check; the failure message carries the computed value as
the JSON to commit, so a golden is only ever frozen on purpose.
"""

import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent / "golden"


def _as_plain(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return [float(v) for v in np.asarray(value).ravel()]
    return float(value)


def _band(stored, got, factor, name):
    assert math.isfinite(got), f"golden {name}: value is not finite"
    if stored == 0.0:
        assert abs(got) < 1e-12, f"golden {name}: expected ~0, got {got}"
        return
    assert stored * got > 0.0, f"golden {name}: sign flip {stored} -> {got}"
    ratio = got / stored
    assert 1.0 / factor <= ratio <= factor, \
        f"golden {name}: {got} outside x{factor} band around {stored}"


def check_golden(name, value, factor=1.5):
    path = GOLDEN_DIR / f"{name}.json"
    plain = _as_plain(value)
    assert path.exists(), (
        f"golden {name}: {path.name} is missing; to freeze the computed "
        f"value, commit tests/golden/{path.name} containing\n"
        + json.dumps({"value": plain}, indent=2))
    stored = json.loads(path.read_text())["value"]
    if isinstance(stored, list):
        assert isinstance(plain, list) and len(plain) == len(stored), \
            f"golden {name}: shape changed"
        for s, g in zip(stored, plain):
            _band(s, g, factor, name)
    else:
        _band(stored, plain, factor, name)
