"""The benchmark's wrap points still name functions of the program.

``perfbench/spans.py`` replaces each traced function at the module attribute
where its caller looks it up. A wrap point whose attribute is gone is
skipped, and the metrics it feeds then read 0, so the list of missing
points is pinned here: a rename of a traced attribute fails this test.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_only_the_known_wrap_point_is_missing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == ["textdetkit.evaluate.polygon_intersection"]
    finally:
        tracer.uninstall()
