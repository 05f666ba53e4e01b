"""The benchmark tracer's wrap sites still name callables in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, sites in spans.SPAN_SITES.items():
        for module_name, attr in sites:
            if module_name == "shapes":  # the benchmark's own module, not the package
                continue
            if not callable(getattr(importlib.import_module(module_name), attr, None)):
                missing.append(f"{module_name}.{attr} (span {name})")
    assert not missing
