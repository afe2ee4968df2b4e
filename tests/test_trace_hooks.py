"""The benchmark's span tracer (perfbench/worker.py) wraps qtss methods and
functions by name.  Installing and removing it here makes a rename of any
patched name fail the unit suite, not only a traced benchmark run; the same
holds for a name that an ``__all__`` still exports after its deletion.
"""

import importlib
import sys
import tracemalloc
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


def test_traced_secrecy_check_writes_no_dealt_state_out():
    # The tracer reads each dealt state's branch count; that read must not
    # write the 3.54 M-branch (4,5,11) state out, so a traced single-share
    # check stays within the 60 MB of an untraced one (test_protocol.py).
    p = staircase.make_params(4, 5, 11)
    pairs = protocol.default_secret_pairs(p)
    protocol.deal(pairs[0][0], p)  # the codeword table is cached; it is built first
    tracer = Tracer()
    try:
        worker.install_tracer(tracer, set())
        tracemalloc.start()
        with tracer.span("bench.check"):
            report = protocol.secrecy_check(p, [3], pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    assert report.passed and report.secrets_tested == 4
    assert peak < 60e6
    assert tracer.calls["protocol.deal"] == 4 and tracer.calls["qsim.partial_trace"] == 4
    assert tracer.counts["protocol.deal.branches"] == tracer.counts["qsim.partial_trace.branches"]


@pytest.mark.parametrize(
    "module", ["qtss", "qtss.gf", "qtss.staircase", "qtss.qsim", "qtss.protocol", "qtss.cli"]
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_reexports_each_module_all():
    import qtss

    modules = (gf, staircase, qsim, protocol)
    expected = ["__version__", *(name for mod in modules for name in mod.__all__)]
    assert qtss.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(qtss, name) is getattr(mod, name), f"qtss.{name}"
    namespace = {}
    exec("from qtss import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(expected)
