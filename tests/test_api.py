"""Census of the public API: every public top-level function or class and
every public method in ``src/cavityghz`` is named somewhere in the package
besides its own definition, or it is on ALLOWLIST with the reason it stays."""

import ast
import pathlib
from collections import defaultdict

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cavityghz"

ALLOWLIST = {
    # the independent scalar model that tests/test_oracle.py checks every
    # final-value scenario against
    "model.jump_operators": "scalar oracle model",
    "model.hamiltonian_terms": "scalar oracle model",
    "model.HamiltonianTerms.at": "scalar oracle model",
    # the single-run integrators that tests/test_acceptance.py calls
    "dynamics.evolve_schrodinger": "single-run integrator of the acceptance tests",
    "dynamics.evolve_lindblad": "single-run integrator of the acceptance tests",
    "dynamics.Trajectory.final_state": "single-run integrator of the acceptance tests",
    # the Zeno-subspace effective model that acceptance criterion 8 rests on
    "zeno.effective_hamiltonian": "criterion-8 effective model",
    "zeno.adiabatic_eliminate": "criterion-8 effective model",
    "zeno.embed_effective_state": "criterion-8 effective model",
    # the inverse of to_dict, for reading parameters back from a sidecar
    "model.SystemParams.from_dict": "sidecar round trip",
}


def _census():
    """(definitions, uses): definitions maps "module.name" and
    "module.Class.method" to (file, first line, last line); uses maps a bare
    name to the (file, line) of every Name, Attribute or import naming it."""
    definitions, uses = {}, defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions[f"{path.stem}.{node.name}"] = (path, node.lineno, node.end_lineno)
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        span = (path, item.lineno, item.end_lineno)
                        definitions[f"{path.stem}.{node.name}.{item.name}"] = span
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.alias):
                uses[node.name].append((path, node.lineno))
    return definitions, uses


def _unreferenced():
    definitions, uses = _census()
    out = set()
    for qualified, (path, first, last) in definitions.items():
        name = qualified.rsplit(".", 1)[1]
        if not any(p != path or not first <= line <= last for p, line in uses[name]):
            out.add(qualified)
    return out


def test_every_public_name_is_used_in_the_package_or_allowlisted():
    unlisted = sorted(_unreferenced() - set(ALLOWLIST))
    assert not unlisted, (
        f"public names that nothing in src/ uses: {unlisted}; delete them, "
        "or add each to ALLOWLIST with the reason it stays"
    )


def test_allowlist_names_only_defined_and_unused_names():
    # an entry whose name went away, or that src/ now uses, is stale
    definitions, _ = _census()
    assert set(ALLOWLIST) <= set(definitions)
    assert set(ALLOWLIST) <= _unreferenced()
