"""Every callable the benchmark's span tracer wraps is bound where it looks.

perfbench/spans.py names each traced callable as (group, module, attribute)
and resolves it with vars(owner).get(name).  A name the package no longer
binds there is skipped by the tracer and reported only after a traced run;
this test finds it at once.  spans.py is loaded from its file, unchanged.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_is_bound():
    targets = _targets()
    assert targets
    for group, module_name, attr in targets:
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        assert vars(owner).get(name) is not None, f"{group}: {module_name}.{attr}"
