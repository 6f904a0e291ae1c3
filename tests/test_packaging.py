"""What ``import repro`` costs: the end-to-end benchmark's ``setup_s`` is
mostly this import, so what it loads is pinned here."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = """
import json, sys
{statement}
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter that ran ``statement``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _REPORT.format(statement=statement)],
        env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return set(json.loads(done.stdout))


def _third_party(modules: set[str]) -> set[str]:
    tops = {name.partition(".")[0] for name in modules}
    return {
        top for top in tops
        if top not in sys.stdlib_module_names
        and not top.startswith("__")  # __main__ and multiprocessing's alias
    }


def test_import_repro_stays_lean():
    """``import repro`` pulls in numpy, ``scipy.optimize`` and
    ``scipy.sparse`` — and nothing third-party those three do not load by
    themselves — and none of the experiment drivers or workload generators
    (a design server never needs them, and they import the most)."""
    floor = _modules_after("import numpy, scipy.optimize, scipy.sparse")
    loaded = _modules_after("import repro")
    assert _third_party(loaded) - _third_party(floor) == {"repro"}
    heavy = sorted(
        name for name in loaded
        if name.startswith(("repro.experiments", "repro.workloads"))
    )
    assert heavy == []
