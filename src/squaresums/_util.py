"""Small shared helpers."""

from __future__ import annotations

import contextlib
import math
import os
import stat

import numpy as np

from .errors import DomainError

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


SIEVE_BLOCK = 1 << 16


def sieve_blocks(start: int, stop: int):
    """(lo, hi) blocks covering [start, stop), none longer than SIEVE_BLOCK or
    than lo itself, so every rest[q] <= q / 2 of a block lies below it."""
    lo = start
    while lo < stop:
        hi = min(lo + min(lo, SIEVE_BLOCK), stop)
        yield lo, hi
        lo = hi


def factor_sieve(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-prime-factor sieve with the prime-power split of every q <= Q.

    Returns int32 arrays (p, rest) indexed by q: p[q] is the smallest prime
    dividing q and rest[q] is q with every factor p removed, so p^k = q / rest[q]
    exactly divides q and rest[q] has only larger primes. Both are 1 at q = 1;
    index 0 is an unused zero. Since rest[q] <= q / 2, both are filled over the
    blocks of `sieve_blocks` in increasing order, as `multiplicative` then
    walks them: every rest[q] of a block lies in an earlier one.

    The sieve writes each prime d <= sqrt(Q) onto its multiples from d^2 on,
    largest d first, so the smallest prime factor of a composite is written
    last. The primes (entries still 0) and rest are then filled block by block,
    so the two int32 arrays, 8 B per q, are all the memory the sieve holds.
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    if Q >= 2**31:
        raise DomainError(f"Q must be < 2**31, got {Q}")
    root = math.isqrt(Q)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for d in range(2, math.isqrt(root) + 1):
        if small[d]:
            small[d * d :: d] = False
    p = np.zeros(Q + 1, dtype=np.int32)
    for d in reversed(np.flatnonzero(small).tolist()):
        p[d * d :: d] = d
    p[1] = 1
    rest = np.zeros(Q + 1, dtype=np.int32)
    rest[1] = 1
    for lo, hi in sieve_blocks(2, Q + 1):
        q = np.arange(lo, hi, dtype=np.int32)
        block = p[lo:hi]
        np.copyto(block, q, where=block == 0)  # primes
        up = q // block
        rest[lo:hi] = np.where(p[up] == block, rest[up], up)
    return p, rest


def multiplicative(Q: int, dtype, at_prime_powers) -> np.ndarray:
    """f(0..Q) of a multiplicative f, given at prime powers, in one walk over
    the blocks of `factor_sieve`; index 0 is an unused zero and f(1) = 1.

    at_prime_powers(p, pk) returns f(p^k) for int32 arrays of the primes p and
    the prime powers pk = p^k of a block. Each block first writes f at its
    prime powers (rest == 1), then sets f(q) = f(q / rest[q]) * f(rest[q])
    throughout: rest[q] lies in an earlier block, and q / rest[q] is q itself
    or lies there too. Unrolled, f(q) is the product of its prime-power
    factors taken from the largest prime down, each multiplied onto the
    running product of the larger ones. The peak is f, p and rest.
    """
    p, rest = factor_sieve(Q)
    f = np.zeros(Q + 1, dtype=dtype)
    f[1] = 1
    for lo, hi in sieve_blocks(2, Q + 1):
        r = rest[lo:hi]
        pk = np.arange(lo, hi, dtype=np.int32)
        pk //= r  # the prime power p^k exactly dividing q
        at = r == 1
        f[lo:hi][at] = at_prime_powers(p[lo:hi][at], pk[at])
        f[lo:hi] = f[pk]  # in two steps, so only one gathered block is held at a time
        f[lo:hi] *= f[r]
    return f
