"""The span tracer of `bench/` wraps names looked up in `src/risbeam`.

`bench/tracer.py` replaces each entry of its TARGETS with
`owner.__dict__[attr]`, so a name dropped from a module namespace (an
import that only the tracer needs, say) breaks every traced benchmark
run.  This check reads `bench/` and changes nothing there.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import tracer
        yield tracer


def test_every_traced_name_resolves_in_its_owner(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert missing == []
