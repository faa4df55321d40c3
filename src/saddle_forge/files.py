"""Output files written whole or not at all: the OBJ export of `mesh` and
the CSVs of `sweep` (family and --fig6) go through atomic_target."""
from __future__ import annotations

import itertools
import os
import stat
from contextlib import contextmanager


@contextmanager
def atomic_target(path):
    """A binary file to write `path` through.

    The file is written under a temporary name in the target directory and
    renamed over `path` once the block completes, so a failed write leaves
    any earlier file in place and no partial one.  Only a missing path or a
    regular file is replaced that way.  Anything else is written in place:
    a rename would replace a symlink (``-o /dev/stdout`` is one) rather than
    the file it points to, and a pipe or a device rather than feed it.  A
    regular file in a folder that takes no new file is written in place as
    well.
    """
    path = os.fspath(path)
    fh, tmp = _open_target(path)
    try:
        with fh:
            yield fh
        if tmp is not None:
            os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            os.remove(tmp)
        raise


def _open_target(path):
    """(file, temporary name) to write `path` through: a new file beside it
    to be renamed over it, or `path` itself with name None."""
    try:
        kind = os.lstat(path).st_mode
    except FileNotFoundError:
        kind = None
    if kind is None or stat.S_ISREG(kind):
        folder, name = os.path.split(path)
        # a killed run leaves its temporary behind; never reuse one
        for n in itertools.count():
            tmp = os.path.join(folder, f".{name}.{os.getpid()}.{n}.tmp")
            try:
                return open(tmp, "xb"), tmp
            except FileExistsError:
                continue
            except PermissionError:
                if kind is None:
                    raise
                break
    return open(path, "wb"), None
