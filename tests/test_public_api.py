"""Every public top-level function and class of the package, and every public
method of a public class, has a caller.

A public name of a module under src/gridwlp that nothing in src/ refers to,
apart from its own definition and the re-exports in __init__.py, is dead
code unless it is listed in ALLOWED with the reason it stays. A public
method of a public class is dead unless src/ reads its name as an attribute
outside the method itself. Private classes are skipped: argparse calls
`_Parser.error`, and nothing in src/ names it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gridwlp"

ALLOWED = {
    "fat_points_piece": "pinned by the benchmark tracer (perfbench/tracer.py)",
    "perp_piece": "pinned by the benchmark tracer (perfbench/tracer.py)",
    "slp_probe": "pinned by the benchmark tracer (perfbench/tracer.py)",
    "mult_map_analysis": "pinned by the benchmark tracer (perfbench/tracer.py)",
    "power_generators": "pinned by the benchmark tracer (perfbench/tracer.py); test oracle of [I]_t",
    "square_coker_and_delta": "paper formula, confronted with measurement in tests/test_formulas.py",
    "nonsquare_coker": "paper formula, confronted with measurement in tests/test_formulas.py",
}


def _trees():
    return [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def _references(tree):
    # how often each name is read as a bare name inside `tree`: src/ reaches
    # another module's top-level names only through `from .module import
    # name`, and neither the attribute `report.kernel_dim` nor the field it
    # declares refers to a function of that name
    return Counter(
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )


def _attribute_reads(tree):
    # how often each name is read as an attribute inside `tree`, whatever
    # the object: `rep.rank`, `self.basis(t)`, `SeedStream.of(seed)`; but a
    # numpy function such as `np.add` is no read of an `add` method
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
    )


def _unreferenced(trees):
    total = sum((_references(tree) for tree in trees), Counter())
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and total[node.name] == _references(node)[node.name]
    }


def _unread_methods(trees):
    total = sum((_attribute_reads(tree) for tree in trees), Counter())
    return {
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and total[node.name] == _attribute_reads(node)[node.name]
    }


def test_every_public_name_has_a_caller_in_src():
    unreferenced = _unreferenced(_trees())
    assert unreferenced <= set(ALLOWED), (
        f"no caller in src/ for {sorted(unreferenced - set(ALLOWED))}: delete it, "
        "or add it to ALLOWED with the reason it stays"
    )
    # an entry whose name gained a caller, or is gone, is dropped from the list
    assert set(ALLOWED) <= unreferenced, f"stale ALLOWED entries: {sorted(set(ALLOWED) - unreferenced)}"


def test_every_public_method_is_read_in_src():
    unread = _unread_methods(_trees())
    assert not unread, f"no reader in src/ for {sorted(unread)}: delete it"
