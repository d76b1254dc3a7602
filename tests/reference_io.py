"""The dataset writer as a dict built for ``json.dumps``, one record at a time.

This is how ``relfusion.datamodel.save_dataset`` first wrote a line: one
dict per record, one :func:`array_to_json` dict per feature, then
``json.dumps`` of the whole. The package now writes each line from
templates; the tests require ``json.dumps(record_to_json(r)) + "\\n"`` to
be its exact bytes. Both functions are kept here as they were, so a
change to the package's encoder cannot change the reference too.
"""

from __future__ import annotations

import base64

import numpy as np

from relfusion.datamodel import ImageRecord

_DTYPE = "<f8"


def array_to_json(arr: np.ndarray) -> dict:
    data = base64.b64encode(arr.astype(_DTYPE).tobytes()).decode("ascii")
    return {"dtype": _DTYPE, "shape": list(arr.shape), "data": data}


def record_to_json(record: ImageRecord) -> dict:
    out: dict = {
        "image_id": record.image_id,
        "width": record.width,
        "height": record.height,
        "detections": [
            {
                "label": d.label,
                "box": d.box.to_list(),
                "score": d.score,
                "feature": array_to_json(d.feature),
            }
            for d in record.detections
        ],
        "gt_boxes": [
            {"label": g.label, "box": g.box.to_list()}
            | ({"feature": array_to_json(g.feature)} if g.feature is not None else {})
            for g in record.gt_boxes
        ],
        "gt_triplets": [list(t) for t in record.gt_triplets],
        "gt_attributes": [list(a) for a in record.gt_attributes],
    }
    if record.pair_features:
        out["pair_features"] = [
            {"sub": s, "obj": o, "feature": array_to_json(f)}
            for (s, o), f in sorted(record.pair_features.items())
        ]
    return out
