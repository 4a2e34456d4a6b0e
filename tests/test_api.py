"""The public surface is exactly what the README's "Library" table names."""

import keyword
import pathlib
import re

import tbcalc

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def table_names() -> set[str]:
    """Callables (a code span starting ``name(``) and types (a CamelCase
    code span) named in the table that follows the "Library" heading."""
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows, "no table under the Library heading"
    names = set()
    for row in rows:
        for span in re.findall(r"`([^`]+)`", row):
            match = re.match(r"([A-Za-z_]\w*)(\()?", span)
            if not match or keyword.iskeyword(match.group(1)):
                continue
            name, call = match.groups()
            if call or re.fullmatch(r"[A-Z][a-z]\w*", name):
                names.add(name)
    return names


def test_all_is_the_readme_table():
    assert sorted(tbcalc.__all__) == sorted(table_names())


def test_every_exported_name_exists():
    for name in tbcalc.__all__:
        assert hasattr(tbcalc, name), name
