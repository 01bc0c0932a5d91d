"""The package's export list names only what the package defines."""

import linlab


def test_every_exported_name_resolves():
    missing = [name for name in linlab.__all__ if not hasattr(linlab, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(linlab.__all__) == len(set(linlab.__all__))
