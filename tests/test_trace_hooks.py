"""The benchmark's traced run (perfbench/spans.py) replaces library functions
by the module or class attribute their callers look up.  A hooked name that
is renamed or removed must fail here, in tier-1, and not only in the slow
``pytest perfbench`` run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in spans.WRAPS if attr not in owner.__dict__
    ]
    assert missing == []
