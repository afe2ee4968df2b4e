"""The benchmark's span tracer (perfbench/worker.py) wraps qtss methods and
functions by name.  Installing and removing it here makes a rename of any
patched name fail the unit suite, not only a traced benchmark run; the same
holds for a name that an ``__all__`` still exports after its deletion.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402
from spantrace import Tracer  # noqa: E402

from qtss import gf, protocol, qsim, staircase  # noqa: E402


def test_tracer_installs_and_uninstalls():
    originals = {
        (gf.FieldMatrix, "inverse"): gf.FieldMatrix.__dict__["inverse"],
        (gf.FieldMatrix, "__matmul__"): gf.FieldMatrix.__dict__["__matmul__"],
        (qsim.SparseState, "apply_affine"): qsim.SparseState.__dict__["apply_affine"],
        (qsim.SparseState, "apply_controlled_add"): qsim.SparseState.__dict__[
            "apply_controlled_add"
        ],
        (qsim.SparseState, "partial_trace"): qsim.SparseState.__dict__["partial_trace"],
    }
    deal = protocol.deal
    encode = staircase.encode_classical
    tracer = Tracer()
    try:
        worker.install_tracer(tracer, set())
        for (owner, name), original in originals.items():
            assert owner.__dict__[name] is not original
        assert protocol.deal is not deal
        assert staircase.encode_classical is not encode
    finally:
        tracer.uninstall()
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original
    assert protocol.deal is deal
    assert staircase.encode_classical is encode


@pytest.mark.parametrize(
    "module", ["qtss", "qtss.gf", "qtss.staircase", "qtss.qsim", "qtss.protocol", "qtss.cli"]
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)
