import re
from pathlib import Path

import netanom


def test_pyproject_version_is_the_package_version():
    """``--version`` and every manifest's ``artifact_version`` print
    ``netanom.__version__``; the installed distribution is named by
    ``pyproject.toml``'s ``version``. Read with a regex: Python 3.10 has no
    ``tomllib``."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version\s*=\s*"([^"]+)"', pyproject, flags=re.MULTILINE) == [netanom.__version__]
