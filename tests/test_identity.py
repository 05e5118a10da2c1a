"""Every output of ``scripts/identity.py`` keeps the bytes listed in ``golden/identity.sha256``.

A change that alters an output on purpose rewrites the list in the same commit:
``python scripts/identity.py DIR`` and copy ``DIR/identity.sha256`` here.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _identity_script():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "scripts" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_outputs_match_the_golden_list(tmp_path):
    got = _identity_script().run(tmp_path)
    want = {}
    for line in (ROOT / "tests" / "golden" / "identity.sha256").read_text().splitlines():
        digest, path = line.split("  ", 1)
        want[path] = digest
    differ = sorted(path for path in got.keys() | want.keys() if got.get(path) != want.get(path))
    assert not differ, "outputs that differ from tests/golden/identity.sha256: " + ", ".join(
        f"{path} ({'missing' if path not in got else 'new' if path not in want else 'changed'})"
        for path in differ)
