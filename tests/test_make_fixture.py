"""`scripts/make_fixture.py` regenerates the committed fixtures byte for byte.

The script drives `product_table`, `dual_map` and `outer_product` to build
the property-(G) witness, so this pins those against the committed files.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_make_fixture_reproduces_the_committed_files(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_fixture", ROOT / "scripts" / "make_fixture.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(str(tmp_path))
    for name in ("fixture_group.json", "fixture_witness.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes()
