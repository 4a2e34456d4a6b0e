"""The public surface is exactly what the README's "Library" table names,
and only `tbcalc.lattice` names the routines that answer lattice questions."""

import ast
import keyword
import re

import conftest
import tbcalc


def table_names() -> set[str]:
    """Callables (a code span starting ``name(``) and types (a CamelCase
    code span) named in the table that follows the "Library" heading."""
    rows = [line for line in conftest.readme_section("Library").splitlines() if line.startswith("| `")]
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


LATTICE_ROUTINES = {"smith_normal_form", "minimal_order"}


def names_used(source: str) -> set[str]:
    """Every identifier the code names: a variable, an attribute or an
    imported name; strings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
    return names


def test_names_used_sees_imports_attributes_and_calls():
    source = "from .lattice import a as b\nimport lattice\nlattice.c(d)\n'e'  # f\n"
    assert names_used(source) == {"a", "b", "lattice", "c", "d"}


def test_only_lattice_names_the_lattice_routines():
    """heegaard and homology ask lattice their questions (order_certificate,
    cokernel_factors); the routines that answer them stay inside lattice."""
    src = conftest.SRC / "tbcalc"
    naming = {
        path.name
        for path in sorted(src.glob("*.py"))
        if names_used(path.read_text(encoding="utf-8")) & LATTICE_ROUTINES
    }
    assert naming == {"lattice.py"}
