"""The benchmark's tracer wraps library calls at the names their callers look
up (`perfbench/tracing.py`'s `install`). A renamed or dropped import would
raise there only in traced benchmark runs, so this installs the tracer on
the library as it is, checks every site is wrapped, and checks that
`uninstall` puts back each original."""

import importlib.util
from pathlib import Path

from geomnets import so3
from geomnets.models import spherical

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_site_and_uninstall_restores_it():
    tracing = _tracing()
    patched = tracing.install(tracing.Tracer())
    try:
        wrapped = {(owner, name): owner.__dict__[name] for owner, name, _ in patched}
        assert len(wrapped) == len(patched)
        for owner, name, original in patched:
            assert wrapped[owner, name] is not original
        assert {name for owner, name, _ in patched if owner is spherical} == {"sph_harm_block", "clebsch_gordan"}
    finally:
        tracing.uninstall(patched)
    for owner, name, original in patched:
        assert owner.__dict__[name] is original
    assert spherical.sph_harm_block is so3.sph_harm_block
    assert spherical.clebsch_gordan is so3.clebsch_gordan
