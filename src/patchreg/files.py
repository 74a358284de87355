"""Every output file is written whole beside its target and renamed over
it: a run that raises or is killed mid-write leaves the old file intact."""

import csv
import io
import os
from pathlib import Path


def write_file(path, *chunks: bytes) -> None:
    """Write ``chunks`` in order to ``<name>.tmp`` beside ``path``, creating
    the directory, and ``os.replace`` it over ``path``. If anything raises,
    the ``.tmp`` is removed and the error re-raised."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: list[str], rows) -> None:
    """``header`` and then ``rows`` as ``csv.writer`` lines (``\\r\\n`` ended)."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    write_file(path, buf.getvalue().encode())
