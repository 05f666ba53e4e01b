"""The package root exports exactly the API the README documents and the
benchmark calls, and the README's library example gives the results it shows."""

import ast
import re
import types
from pathlib import Path

import monodroma

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BENCH = ROOT / "bench"


def readme_library() -> str:
    readme = README.read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def readme_exports() -> list[str]:
    """The backquoted names of the README list that states `monodroma.__all__`."""
    after = readme_library().split("The package root, `monodroma.__all__`, is exactly:\n\n", 1)[1]
    listing = after.split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", listing)


def test_every_exported_name_resolves():
    missing = [name for name in monodroma.__all__ if not hasattr(monodroma, name)]
    assert not missing


def test_package_root_holds_no_unexported_public_name():
    extra = [name for name, value in vars(monodroma).items()
             if not name.startswith("_") and name not in monodroma.__all__
             and not (isinstance(value, types.ModuleType) and value.__name__ == f"monodroma.{name}")]
    assert not extra


def test_every_name_the_benchmark_reads_from_the_package_is_exported():
    used = set()
    for path in sorted(BENCH.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        used.update(name for name in re.findall(r"\bapi\.(\w+)", text) if not name.startswith("_"))
        used.update(re.findall(r"\(\"monodroma\", \"(\w+)\"\)", text))  # tracer sites at the root
    assert {"parse_map", "certify", "render_ascii"} <= used  # the scan found the calls
    assert sorted(used - set(monodroma.__all__)) == []


def test_exports_match_the_readme_list():
    listed = readme_exports()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(monodroma.__all__)


def test_readme_library_example_gives_the_commented_results():
    block = readme_library().split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        comment = comment.strip()
        try:
            ast.parse(comment, mode="eval")  # an expression is a result; prose is not
            is_result = True
        except SyntaxError:
            is_result = False
        if is_result:
            assert eval(code, namespace) == eval(comment, namespace), line
            checked.append(comment)
        else:
            exec(code, namespace)
    assert checked == ["'Injective'", "'ProvedNonvanishing'", "[(0, 12), (6, 2), (8, 0)]",
                       "{(6, 2): Fraction(1, 32)}"]
