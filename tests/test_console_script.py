"""The installed `gausscap` console script, run as a process.

The rest of the suite calls `cli.main()` in-process; these cases run the
entry point that installing the package creates: exit 0 on success, 1 on a
failed check, 2 on a bad parameter, and never a RuntimeWarning. They are
skipped where no `gausscap` is on the PATH.
"""

import os
import re
import shutil
import subprocess

import pytest

GAUSSCAP = shutil.which("gausscap")


def _case(args, code, stderr="", stdout="", absent="", env=None):
    """`gausscap args` exits with `code`; its stderr and stdout match the
    `stderr` and `stdout` patterns, and neither matches `absent`. `{out}` in
    `args` is a fresh CSV path."""
    return pytest.param(args, code, stderr, stdout, absent, env or {}, id=args)


_CASES = [
    _case("verify", 0),
    _case("oracle --flagged --beta 2 --m 1e4", 0),
    _case("oracle --flagged --beta nan", 2),
    _case("figure fig1 --x-min 0 --out {out}", 2),
    _case("figure fig3 --grid 5 --out {out}", 2),
    _case("figure fig3-inset --grid 5 --out {out}", 2),
    _case("figure fig2 --g-max inf --out {out}", 2, stderr="g_max"),
    # The oracle's domain edge: M = 1 is accepted, anything below it is not.
    _case("oracle --extended-attenuator --eta 0.8 --n 0.05 --m 1", 0),
    _case("oracle --extended-attenuator --eta 0.8 --n 0.05 --m 0.5", 2, stderr="M >= 1"),
    # A probe energy whose probe entries overflow is named; the complement
    # path needs only 2M + 1, so it takes M = 1e200.
    _case("oracle --extended-attenuator --eta 0.8 --n 0.05 --m 1.7e308", 2, stderr="got M="),
    _case("oracle --flagged --beta 2 --m 1e200", 2, stderr="got M="),
    _case("oracle --extended-attenuator --eta 0.8 --n 0.05 --m 1e200", 0),
    # The stacked flag condition still fails away from gamma = 1.
    _case("verify --gamma 2", 1),
    # The column sweep at the MAX_GRID_POINTS cap.
    _case("figure fig2 --points 1000000 --out {out}", 0),
    # fig3-inset, the only CLI path into the decomposition scan.
    _case("figure fig3-inset --out {out}", 0),
    # Past _SAFE_N the domain check takes its exact path: exit 0 where the
    # terms of lower and plob are finite, 2 where they overflow.
    _case("bound --amplifier --g 2 --n 1e306 --format csv", 0),
    _case("bound --attenuator --eta 0.5 --n 9e307", 2,
          stderr=re.escape("2N + 1 and N log2(eta) finite")),
    # `bound` never loads numpy: no import of numpy or of a numpy submodule
    # (a lazy first use shows only the submodules) in its import-time profile.
    _case("bound --attenuator --eta 0.8 --n 0.05", 0, absent=r"\| +numpy(\.[^ ]*)?$",
          env={"PYTHONPROFILEIMPORTTIME": "1"}),
    # Each figure is its own subcommand: a flag it does not take is a usage
    # error, and its --help lists only its own flags.
    _case("figure fig1 --points 7 --out {out}", 2, stderr="unrecognized arguments: --points 7"),
    _case("figure fig2 --help", 0, stdout="--points"),
    _case("figure fig1 --help", 0, absent="--points"),
]


@pytest.mark.skipif(GAUSSCAP is None, reason="no installed gausscap console script")
@pytest.mark.parametrize("args, code, stderr, stdout, absent, env", _CASES)
def test_installed_console_script(tmp_path, args, code, stderr, stdout, absent, env):
    argv = [GAUSSCAP, *args.format(out=tmp_path / "out.csv").split()]
    proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, **env})
    assert proc.returncode == code, proc.stderr
    assert re.search(stderr, proc.stderr, re.M), proc.stderr
    assert re.search(stdout, proc.stdout, re.M), proc.stdout
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    if absent:
        assert not re.search(absent, proc.stdout + proc.stderr, re.M)
