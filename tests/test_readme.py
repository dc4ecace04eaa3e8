"""README's library example runs as written and prints what its comments say,
and the constants it names are the package's."""
import contextlib
import io
import pathlib
import re

import zdalab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().split("\n") == ["False", "None", ""]


def test_named_constants_are_the_modules_values():
    """Every backticked ALL-CAPS name is a constant of some zdalab module,
    and every `` `NAME` = value `` states that constant's value."""
    constants = {}
    for module in map(vars, (getattr(zdalab, m) for m in zdalab.__all__)):
        constants.update((k, v) for k, v in module.items() if re.fullmatch(r"[A-Z][A-Z0-9_]+", k))
    text = README.read_text()
    names = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", text))
    assert names and not names - constants.keys(), names - constants.keys()
    stated = re.findall(r"`([A-Z][A-Z0-9_]+)`\s*=\s*([^\s,;)]+)", text)
    assert stated
    for name, value in stated:
        assert constants[name] == float(value.rstrip(".")), (name, value)
