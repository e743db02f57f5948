"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` wraps functions of ``wavebound`` by module and
name, and ``Tracer.install`` raises when one of them is gone.  This test
installs it, runs one coupled speed and one scalar bound, and checks that
the spans of the layers those runs cross were recorded, so a refactor that
renames, inlines or bypasses a wrapped function fails here.
"""

import importlib.util
import os
from collections import Counter

from wavebound.model import make_preset

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_records_every_layer_span():
    from wavebound import twospecies, varbound

    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        twospecies.solve_implicit_speed(
            make_preset("landman", {"lambda": 0.5, "K": 2.0})
        )
        varbound.sup_F(make_preset("porous_fisher", {"m": 2.0}))
    finally:
        tracer.uninstall()
    spans = Counter(span[0] for span in tracer.spans)
    for name in (
        "twospecies.profile",
        "twospecies.G",
        "search.golden",
        "quad.adaptive",
        "quad.frozen",
    ):
        assert spans[name] > 0, name
