import csv
import io
import json

import pytest


def _reference_matrix_bytes(m, suffix: str) -> bytes:
    """What the standard encoders write for a DistanceMatrix: ``json.dumps``
    with ``indent=2`` for ``.json``, a ``csv.writer`` of ``repr`` rows for
    ``.csv``."""
    if suffix == ".json":
        return (json.dumps(m.to_dict(), indent=2) + "\n").encode("utf-8")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in m.entries:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


@pytest.fixture
def reference_matrix_bytes():
    return _reference_matrix_bytes
