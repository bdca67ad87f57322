"""numpy loads on first use: scalar bounds, the decomposition scan and
`gausscap bound` never execute it. Each check runs in a fresh interpreter,
since the test process has numpy loaded already."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy

import gausscap
from gausscap import symplectic

_SRC = str(Path(gausscap.__file__).resolve().parents[1])


def _run(code: str) -> None:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr


def test_scalar_paths_never_load_numpy():
    _run("""
        import contextlib, io, sys
        import gausscap
        from gausscap import bounds, channels, cli, figures, symplectic, verify
        assert "numpy.linalg" not in sys.modules
        for family, params in [("attenuator", {"eta": 0.8, "N": 0.05}),
                               ("amplifier", {"g": 1.5, "N": 0.3}),
                               ("additive", {"beta": 2.0})]:
            gausscap.bounds_report(family, **params).to_dict()
        target = channels.PhaseInsensitiveParams(0.95, 0.55)  # (eta, N) = (0.95, 5)
        assert gausscap.combined_decomposition_bound(target).witness.kind != "direct"
        argv = ["bound", "--attenuator", "--eta", "0.8", "--n", "0.05"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
            assert cli.main([*argv, "--format", "csv"]) == 0
        assert "bound,raw,clamped" in out.getvalue()
        assert "numpy.linalg" not in sys.modules
    """)


def test_first_use_loads_numpy_in_place():
    _run("""
        import sys, types
        import gausscap
        from gausscap import symplectic
        estimate = gausscap.coherent_info_thermal(gausscap.flagged_additive_noise(2.0), M=1e4)
        assert estimate.value > 0
        import numpy
        assert sys.modules["numpy"] is symplectic.np is numpy
        assert type(numpy) is types.ModuleType
        assert isinstance(numpy.zeros(2), numpy.ndarray)
    """)


def test_numpy_imported_first_is_the_one_used():
    _run("""
        import sys, types
        import numpy
        from gausscap import channels, figures, symplectic, verify
        for module in (channels, figures, symplectic, verify):
            assert module.np is numpy, module
        assert type(sys.modules["numpy"]) is types.ModuleType
    """)


def test_eig_slack_is_64_float_eps():
    assert symplectic._EIG_SLACK == 64 * numpy.finfo(float).eps
