"""The one atomic file writer.

Every durable file of the package — piece files (each a base table's
columns), the WAL header and the segment manifest — is replaced the
same way: written to a
sibling temporary file that is flushed, fsynced and renamed over the
destination, after which the directory is fsynced so the rename itself
survives a crash.  A crash before the rename leaves the previous file
untouched, and a failed write removes its temporary file.

This module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import os


def replace_file(path, write, mode: str = "w", **open_kwargs) -> None:
    """Atomically replace ``path`` with what ``write(fp)`` writes."""
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, mode, **open_kwargs) as fp:
            write(fp)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(os.path.dirname(path) or ".")


def _fsync_directory(directory) -> None:
    """Make the renames and creates in ``directory`` durable
    (best-effort: a platform that cannot open a directory skips it)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
