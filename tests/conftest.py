import json

import pytest


def _refuse(constant):
    raise AssertionError(f"non-standard JSON constant {constant}")


@pytest.fixture(scope="session", autouse=True)
def manifests_are_standard_json(tmp_path_factory):
    """Every manifest.json the session's runs leave parses as standard JSON:
    none holds the NaN or Infinity that json.dumps writes by default."""
    yield
    for path in tmp_path_factory.getbasetemp().rglob("manifest.json"):
        try:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
        except (OSError, ValueError):  # not a readable JSON document
            continue  # a test damaged or replaced this one on purpose
        except AssertionError as exc:
            raise AssertionError(f"{path}: {exc}") from None
