"""Messages of the match-table checks in ``io.load_matches`` and
``io.load_dataset``: each malformed table names its first bad item, in the
order the loader walks the tables.
"""

import json

import numpy as np
import pytest

from linemap import io
from linemap.geometry import Segment2D
from linemap.io import InputError, load_dataset, write_dataset
from linemap.pipeline import PipelineInput

from support import make_view

MATCHES = {0: [[(1, 0), (2, 1)], []], 1: [[(0, 0)]], 2: [[(0, 0)], [(1, 0), (0, 1)]]}


def write_tables(root):
    views = {img: make_view(np.array([x, 0.2, -3.0])) for img, x in enumerate((-1.5, 0.0, 1.4))}
    detections = {
        0: [Segment2D([100.0, 120.0], [300.0, 140.0]), Segment2D([50.0, 60.0], [52.0, 200.0])],
        1: [Segment2D([110.0, 118.0], [290.0, 150.0])],
        2: [Segment2D([90.0, 100.0], [280.0, 130.0]), Segment2D([40.0, 70.0], [45.0, 210.0])],
    }
    data = PipelineInput(views, detections, MATCHES, neighbors={0: [1, 2], 1: [0], 2: [0, 1]})
    write_dataset(root, data)
    return root


def edit(root, name, change):
    path = root / name
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def set_pair(img, det, k, pair):
    def change(doc):
        doc[str(img)][det][k] = pair

    return change


CASES = {
    "bool detection": (set_pair(0, 0, 1, [2, True]), "image 0 detection 0: True is not an integer"),
    "float image": (set_pair(2, 1, 0, [1.0, 0]), "image 2 detection 1: 1.0 is not an integer"),
    "three entries": (set_pair(0, 0, 0, [1, 0, 0]), "image 0 detection 0: match must be [image, detection]"),
    "pair not a list": (set_pair(1, 0, 0, {"0": 0}), "image 1 detection 0: match must be [image, detection]"),
    "pair a string": (set_pair(2, 1, 1, "12"), "image 2 detection 1: match must be [image, detection]"),
    "pair a number": (set_pair(0, 0, 1, 5), "image 0 detection 0: match must be [image, detection]"),
    "row not a list": (
        lambda doc: doc["0"].__setitem__(1, "none"),
        "image 0 detection 1: expected a list of pairs",
    ),
    "unknown image": (set_pair(2, 1, 1, [7, 0]), "image 2: unknown image 7"),
    "image past int64": (set_pair(0, 0, 1, [2**70, 0]), f"image 0: unknown image {2**70}"),
    "detection out of range": (
        set_pair(2, 1, 0, [1, 1]),
        "image 2 detection 1: detection 1 out of range for image 1",
    ),
    "negative detection": (
        set_pair(0, 0, 0, [1, -1]),
        "image 0 detection 0: detection -1 out of range for image 1",
    ),
    "detection past int64": (
        set_pair(1, 0, 0, [0, 2**64]),
        f"image 1 detection 0: detection {2**64} out of range for image 0",
    ),
    "row count": (lambda doc: doc["1"].append([]), "image 1: 2 rows for 1 detections"),
    # the walk's order: every unknown image before any row count or range
    "two faults": (
        lambda doc: (set_pair(0, 0, 0, [1, 9])(doc), set_pair(2, 0, 0, [5, 0])(doc)),
        "image 2: unknown image 5",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_malformed_match_table_names_its_first_bad_item(tmp_path, case):
    change, message = CASES[case]
    root = write_tables(tmp_path)
    edit(root, io.MATCHES, change)
    with pytest.raises(InputError) as err:
        load_dataset(root)
    assert err.value.message == message
    assert err.value.path == str(root / io.MATCHES)


def test_an_unknown_neighbour_is_named_after_the_match_table(tmp_path):
    root = write_tables(tmp_path)
    edit(root, io.NEIGHBORS, lambda doc: doc["2"].append(4))
    with pytest.raises(InputError) as err:
        load_dataset(root)
    assert (err.value.path, err.value.message) == (str(root / io.NEIGHBORS), "image 2: unknown image 4")
    edit(root, io.MATCHES, set_pair(1, 0, 0, [3, 0]))
    with pytest.raises(InputError) as err:
        load_dataset(root)
    assert (err.value.path, err.value.message) == (str(root / io.MATCHES), "image 1: unknown image 3")


def test_a_camera_id_past_int64_loads(tmp_path):
    root = write_tables(tmp_path)
    big = 10**20

    def add_image(doc):
        doc[str(big)] = doc["1"]

    for name in (io.CAMERAS, io.MATCHES, io.SEGMENTS):
        edit(root, name, add_image)
    edit(root, io.MATCHES, set_pair(0, 0, 1, [big, 0]))
    data = load_dataset(root)
    assert big in data.views
    assert data.matches[0][0] == [(1, 0), (big, 0)]
