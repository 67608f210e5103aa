"""The README names only what the package exports, and ``__all__`` lists it."""

import re
from types import ModuleType
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


def test_all_lists_each_public_name_once():
    public = {
        name for name, value in vars(gamepowers).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(gamepowers.__all__) == len(set(gamepowers.__all__))
    assert set(gamepowers.__all__) == public
