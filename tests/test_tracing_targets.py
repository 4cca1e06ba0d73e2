"""The benchmark tracer's targets still exist on the package.

``perfbench/tracing.py`` wraps planalg functions and methods by name
and reads ``cache_info()`` of its listed lru_caches.  A method that is
renamed, deleted or only inherited would break a traced benchmark run,
so every target is resolved here exactly as the tracer resolves it.
"""

import importlib.util
from pathlib import Path

import planalg  # noqa: F401 - the tracer looks the modules up in sys.modules

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_trace_target_resolves():
    for name, (modname, dotted) in tracing.TARGETS.items():
        assert callable(tracing._resolve(modname, dotted)), name


def test_every_listed_lru_cache_reports():
    caches = tracing.lru_caches()
    assert set(caches) == set(tracing.LRU_CACHES)
    for info in caches.values():
        assert {"hits", "misses", "currsize"} <= set(info)
