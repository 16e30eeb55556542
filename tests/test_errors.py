"""Every error class in ``aftx.errors`` names a contract the library enforces,
so each one is raised somewhere under ``src/aftx``."""

import inspect
from pathlib import Path

import pytest

from aftx import errors

SOURCE = "\n".join(p.read_text() for p in Path(errors.__file__).parent.glob("*.py"))
ERRORS = sorted(name for name, cls in vars(errors).items()
                if inspect.isclass(cls) and issubclass(cls, errors.AftxError)
                and cls is not errors.AftxError)


@pytest.mark.parametrize("name", ERRORS)
def test_error_is_raised(name):
    assert f"raise {name}(" in SOURCE
