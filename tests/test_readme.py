"""The README names only what the package exports."""

import re
from pathlib import Path

import gamepowers

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_identifiers_are_package_attributes():
    # every backticked snake_case name, such as `basic_powers`
    names = set(
        re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)`", README.read_text("utf-8"))
    )
    assert names
    assert sorted(n for n in names if not hasattr(gamepowers, n)) == []
