"""Small shared helpers."""

from __future__ import annotations

import contextlib
import os
import stat

# int64 fast paths are taken only when a conservative bound on every partial
# sum stays below this; the factor-2 margin to 2^63 absorbs float slop
SAFE_LIMIT = float(1 << 62)


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a file that replaces `path` only once the block completes.

    The data goes to a temporary file in the target's directory, which
    os.replace then moves into place, so readers see the old file or the whole
    new one. If the block raises, the temporary file is removed and `path` is
    left as it was. A symlink is written through, as open() would. A file that
    is replaced keeps its permission bits, but not its owner, group or other
    hard links. A path that exists but is not a regular file (a device or a
    pipe) is written directly, since replacing it would destroy it.
    """
    target = os.path.realpath(path)
    mode, newline = ("wb", None) if binary else ("w", "")
    try:
        old = os.stat(target)
    except OSError:  # missing, or unreachable: the temporary file's open reports it
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(target, mode, newline=newline) as fh:
            yield fh
        return
    folder, name = os.path.split(target)
    while True:
        tmp = os.path.join(folder, f".{name}.{os.urandom(6).hex()}.tmp")
        try:  # mode 0o666 less the umask, as open() gives a new file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # name the requested path, not the temporary file
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, mode, newline=newline) as fh:
            if old is not None:  # as writing the file in place would leave them
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
