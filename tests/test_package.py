import argparse
import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import mlbl
from helpers import morph_corpus, write_corpus
from mlbl.cli import PARSER, main
from mlbl.training import TrainingConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves():
    for name in mlbl.__all__:
        assert hasattr(mlbl, name), name


def test_every_library_definition_is_used():
    """Every top-level function and class and every non-dunder method of
    ``src/mlbl`` is named (an ``ast.Name`` or ``ast.Attribute``) somewhere in
    the package or the benchmark, so library code that nothing calls cannot
    linger; an attribute of the argparse namespace ``args`` does not count.
    ``Querier.log_prob`` is the README's per-token entry point."""
    root = SRC.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for pattern in ("src/mlbl/*.py", "perfbench/*.py", "perfbench/tests/*.py")
             for path in sorted(root.glob(pattern))}
    # a flag read off the argparse namespace (``args.mu``) is no use of a
    # definition with the flag's name
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) or isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")}
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    defined = []
    for path, tree in trees.items():
        if path.parent != SRC / "mlbl":
            continue
        for node in tree.body:
            if isinstance(node, defs):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, defs[:2]) and not item.name.startswith("__")]
    assert len(defined) > 100
    assert [label for label, name in defined if name not in used] == ["Querier.log_prob"]


def test_every_file_opens_through_the_recorded_opener():
    """No module of ``src/mlbl`` but ``_io`` calls the builtin ``open`` (or
    ``io.open``, or a ``Path`` reader or writer), so every input and artifact
    goes through ``_io.open_file`` and into the sidecars. The one exception is
    ``_kernels._openblas``'s read of ``/proc/self/maps``."""
    path_io = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    found = []
    for path in sorted((SRC / "mlbl").glob("*.py")):
        if path.name == "_io.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        opens = {node: "<module>" for node in ast.walk(tree) if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute) and node.func.attr in path_io)}
        # ast.walk goes outside in, so each call ends up under its innermost function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                opens.update((node, func.name) for node in ast.walk(func) if node in opens)
        found += [(path.name, name, ast.unparse(node.args[0]) if node.args else None)
                  for node, name in opens.items()]
    assert found == [("_kernels.py", "_openblas", "'/proc/self/maps'")]


def test_readme_flags_are_options_of_their_commands():
    """Every ``--flag`` in the README's Commands table and in its ``mlbl ...``
    Quickstart lines is an option of the command it is given for, so a flag
    the parser no longer has cannot linger in the docs."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
    table = quickstart.split("\n### Commands\n", 1)[1].split("\n\n", 1)[0]
    # (command, text naming its flags): each command line with its continuations,
    # then each table row
    uses = re.findall(r"^mlbl (\w+)((?:.*\\\n)*.*)$", quickstart, re.M)
    uses += re.findall(r"^\| `(\w+)` \|(.*)\|$", table, re.M)
    commands = next(a for a in PARSER._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert {command for command, _ in uses} == set(commands)
    checked = 0
    for command, text in uses:
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text):
            assert flag in commands[command]._option_string_actions, (command, flag)
            checked += 1
    assert checked >= 30


def test_readme_training_keys_are_the_config_fields(tmp_path):
    """The key/default block under "Training configuration" in the README
    names every ``TrainingConfig`` field, in order, and read as a ``--config``
    file it gives the defaults (``d=`` blank: no default)."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Training configuration\n", 1)[1]
    block = section.split("\n```\n", 2)[1]
    assert [line.split("=", 1)[0] for line in block.splitlines()] == \
        [f.name for f in dataclasses.fields(TrainingConfig)]
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    assert TrainingConfig.from_file(path) == TrainingConfig()


def test_import_cluster_and_compose_do_not_load_scipy_sparse(tmp_path):
    """The scipy.sparse package costs about 20 MB resident. Neither importing
    the package nor ``mlbl cluster`` loads it, and the factor-map kernels
    load only its product loops."""
    write_corpus(tmp_path / "train.txt", morph_corpus(3000, n_stems=15, n_suffixes=4, seed=5)[0])
    assert main(["preprocess", "--input", str(tmp_path / "train.txt"),
                 "--out-dir", str(tmp_path / "work")]) == 0
    code = ("import sys, mlbl; loaded = ['scipy.sparse' in sys.modules]\n"
            "from mlbl.cli import main; rc = main(sys.argv[1:])\n"
            "loaded.append('scipy.sparse' in sys.modules)\n"
            "import numpy as np; mlbl.compose_vector(np.ones((2, 3)), [(1, 2)])\n"
            "print(rc, *loaded, 'scipy.sparse' in sys.modules)")
    args = ["cluster", "--input", str(tmp_path / "train.txt"),
            "--vocab", str(tmp_path / "work" / "vocab.tsv"), "--method", "brown",
            "--num-classes", "4", "--max-iters", "2", "--out", str(tmp_path / "classes.tsv")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].split() == ["0", "False", "False", "False"]
