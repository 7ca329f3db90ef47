"""`scripts/survey.py` runs end to end on a few small catalog groups."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_survey_lines(capsys):
    spec = importlib.util.spec_from_file_location("survey", ROOT / "scripts" / "survey.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.survey(["S3", "S4", "Q8", "C2xC2"], 400)
    lines = [re.sub(r" \(\d+\.\d\ds\)$", "", ln).split()
             for ln in capsys.readouterr().out.splitlines()]
    assert [(ln[0], ln[1], ln[3], ln[4]) for ln in lines] == [
        ("S3", "p=2", "Q1=Z", "Q2=Z"),
        ("S3", "p=3", "Q1=Z^3", "Q2=Z^3"),
        ("S4", "p=2", "Q1=Z^2", "Q2=Z^2"),
        ("S4", "p=3", "Q1=Z", "Q2=Z"),
        ("Q8", "p=2", "Q1=Z^5", "Q2=Z^4"),
        ("C2xC2", "p=2", "Q1=Z^4", "Q2=Z^4"),
    ]
    for ln in lines:
        assert ln[5:] == ["[irc", "wirc", "wircstar", "pres", "pind]", "counts=ok"]
