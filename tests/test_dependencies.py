"""The declared dependency floors are the versions CI installs and tests.

The golden digests hold only for the pinned numpy, and the low-pass loads a
private scipy kernel that TestLowpassKernel pins on the pinned scipy, so a
floor below a pin would declare versions that nothing tests.
"""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def ci_pins() -> dict[str, str]:
    """Each package that CI installs with ``==``, and ``python`` with the
    version set up for the tests."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    (install,) = re.findall(r"pip install (\S+==.*)", ci)
    pins = dict(re.findall(r"([A-Za-z0-9_.-]+)==(\S+)", install))
    (pins["python"],) = re.findall(r'python-version: "([^"]+)"', ci)
    return pins


def declared_floors() -> dict[str, str]:
    """Each requirement of pyproject.toml (runtime and the test extra) and
    the Python requirement, as name -> ``>=`` floor."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    floors = {}
    for requirement in requirements + ["python" + project["requires-python"]]:
        name, floor = re.fullmatch(r"([A-Za-z0-9_.-]+)>=(\S+)", requirement).groups()
        floors[name] = floor
    return floors


def test_declared_floors_are_the_ci_pins():
    pins = ci_pins()
    assert {"numpy", "scipy", "python"} <= pins.keys()
    assert declared_floors() == pins
