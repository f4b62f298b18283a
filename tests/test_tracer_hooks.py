"""Every name the benchmark's tracer hooks exists (perfbench/tracer.py).

perfbench's own tests accept a hooked name that has gone, reading its
metrics as absent. Here none may be absent, so a change that moves or
renames a hooked name fails the tier-1 suite, as the CI step "Traced
benchmark finds every hooked name" would.
"""

import importlib.util
from pathlib import Path

from fracmarket import experiments

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_the_tracer_finds_every_hooked_name(tmp_path):
    worker_task = experiments._worker_rep
    t = tracer.Tracer(tmp_path)
    t.install()
    try:
        assert experiments._worker_rep is not worker_task  # wrapped, to flush worker spans
    finally:
        t.uninstall()
    assert t.absent == set()
    assert experiments._worker_rep is worker_task
