"""What the package promises its users: the names the benchmark and the
scripts import, the README's Python example and its CLI examples; and that
the package's modules import nothing they do not use."""

import ast
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

from netcm.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def netcm_imports(paths):
    """(file, module, name) for every ``import netcm...`` (name None) and
    ``from netcm... import name`` in the given files."""
    out = []
    for path in paths:
        where = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), where)):
            if isinstance(node, ast.Import):
                out += [(where, a.name, None) for a in node.names if a.name.split(".")[0] == "netcm"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "netcm":
                out += [(where, node.module, a.name) for a in node.names]
    return out


def resolves(module, name) -> bool:
    try:
        mod = importlib.import_module(module)
        # ``from netcm import ncmx`` names a submodule
        return name is None or hasattr(mod, name) or bool(importlib.import_module(f"{module}.{name}"))
    except ImportError:
        return False


def test_benchmark_and_script_imports_resolve():
    imports = netcm_imports(sorted((ROOT / "perfbench").glob("*.py"))
                            + sorted((ROOT / "scripts").glob("*.py")))
    assert {f.partition("/")[0] for f, _, _ in imports} == {"perfbench", "scripts"}
    missing = [f"{f}: {m}{'.' + n if n else ''}" for f, m, n in imports if not resolves(m, n)]
    assert not missing, missing


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue()


def test_readme_cli_examples_parse():
    # every `netcm ...` line of the CLI block, with `\` continuations joined,
    # must parse; nothing is run, so a removed option shows as a parse error
    text = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("netcm ")]
    assert len(commands) >= 7
    for argv in commands:
        build_parser(argv[0]).parse_args(argv[1:])


def test_src_modules_use_every_import():
    # every module-level import is named by code of its module; __init__.py's
    # imports are re-exports, and __future__ imports are compiler flags
    unused = []
    for path in sorted((ROOT / "src" / "netcm").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), path.name)
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.partition(".")[0]): node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused
