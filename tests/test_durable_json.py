"""Durable JSON: ``atomic_write_json`` keeps the bytes of ``json.dump``.

``atomic_write_json`` writes every cache entry, worker result file and
stats document. It encodes with ``json.dumps`` (the C encoder) and
walks the document with :func:`~repro.utils.sanitize_nonfinite` only
when a non-finite float makes the strict encode raise. The reference
here is the encoding it replaced, ``json.dump(sanitize_nonfinite(doc),
...)`` streamed to a file: the bytes must not change, or every cache
entry and content-compared file would.
"""

import io
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runner.cache import atomic_write_json
from repro.utils import sanitize_nonfinite

GOLDEN_PATH = Path(__file__).parent / "golden_payloads.json"


def reference_bytes(document) -> bytes:
    """The canonical JSON of the ``json.dump`` path, as file bytes."""
    handle = io.StringIO()
    json.dump(
        sanitize_nonfinite(document),
        handle,
        separators=(",", ":"),
        sort_keys=True,
        allow_nan=False,
    )
    return handle.getvalue().encode("utf-8")


def written_bytes(directory: Path, document) -> bytes:
    return atomic_write_json(directory / "doc.json", document).read_bytes()


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),  # the full code-point range: non-ASCII escapes included
)
documents = st.dictionaries(
    st.text(max_size=8),
    st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=24,
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(document=documents)
@example(document={"cv": float("nan"), "x": (1.5, [float("inf"), -float("inf")])})
@example(document={"é": "naïve ☃ \U0001f600", "n": None, "t": True, "i": -(2**70)})
def test_bytes_match_the_json_dump_path(tmp_path_factory, document):
    directory = tmp_path_factory.getbasetemp() / "durable-json"
    assert written_bytes(directory, document) == reference_bytes(document)


def test_golden_payloads_keep_their_bytes(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden
    for name, payload in golden.items():
        assert written_bytes(tmp_path, payload) == reference_bytes(payload), name
