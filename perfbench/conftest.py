import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


@pytest.fixture(scope="session")
def pb():
    import pelletbounds

    return pelletbounds


@pytest.fixture(scope="session")
def ref():
    from workloads import REFERENCE_PATH

    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
