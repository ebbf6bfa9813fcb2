"""The multiplicative sieve, and the correctly rounded sum of its float
blocks.

Only the B1 sums and the singular series load this module. The sieve holds
one block of q and the values of f at the primes up to Q / 2, not a Q-sized
array.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import DomainError

SIEVE_BLOCK = 1 << 15
_STRIDED_TOP = 64  # primes up to this are sieved by strided slices, larger ones in one indexed pass
_BIT = np.left_shift(np.uint32(1), np.arange(32, dtype=np.uint32))


def _primes_to(top: int) -> list[int]:
    sieve = np.ones(top + 1, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(top) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    return np.flatnonzero(sieve).tolist()


def _multiples(lo: int, size: int, moduli: np.ndarray):
    """The multiples of each modulus among the q = lo..lo + size - 1 of a
    block, moduli in order: (which, at, first), where `which` indexes the
    modulus of each multiple, at is its offset in the block, and the multiples
    of moduli[i] start at index first[i] of both."""
    start = -lo % moduli
    count = (size - 1 - start) // moduli + 1
    first = np.cumsum(count) - count
    which = np.repeat(np.arange(moduli.size), count)
    at = np.arange(which.size)
    at -= first[which]
    at *= moduli[which]
    at += start[which]
    return which, at, first


def multiplicative_blocks(Q: int, dtype, at_prime_powers, block: int = SIEVE_BLOCK):
    """f(1..Q) of a multiplicative f, given at prime powers, as (lo, f) over
    consecutive blocks of q: f[i] = f(lo + i), at most `block` entries each.

    A segmented sieve (Bays and Hudson, BIT 17 (1977)). at_prime_powers(p, pk)
    returns f(p^k) for int32 arrays of primes p and prime powers pk = p^k. It
    is asked once, up front, for the powers of the primes p <= sqrt(Q), and
    then once per block for the primes above sqrt(Q) in it (pk = p), so for
    each prime power once. A block first builds the part of each q made of
    primes p <= sqrt(Q): by strided slices for p <= _STRIDED_TOP, and for the
    larger p in one indexed pass over all their multiples. What is left of q
    is 1 or a prime P > sqrt(Q). f(q) starts at f(P), or 1, and the factors
    f(p^k) of the small primes are multiplied on from the largest prime down,
    each onto the running product of the larger ones, so a float f is the
    same product whatever the block size. A prime P <= Q / 2 has later
    multiples, so f(P) is kept: the kept values are held in increasing P, and
    a bitmap with one bit per odd number up to Q / 2, with the count of its
    marks up to each 32-bit word, finds the slot of f(P) as the rank of P's
    bit. That is Q / 16 bytes and pi(Q / 2) values (3.4 MB for the float64
    terms at Q = 10^7, where a table of f at every odd number up to Q / 2 took
    20 MB); with the small primes' prime powers and one block's temporaries,
    it is all the sieve holds.
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    if Q >= 2**31:
        raise DomainError(f"Q must be < 2**31, got {Q}")
    primes = _primes_to(math.isqrt(Q))
    first, p_of, powers = [], [], []  # first[i]: the index in `values` of f(primes[i])
    for p in primes:
        first.append(len(powers))
        pk = p
        while pk <= Q:
            p_of.append(p)
            powers.append(pk)
            pk *= p
    values = np.zeros(len(powers), dtype)  # f(p^k), k = 1, 2, ... for each prime in turn
    if powers:
        values[:] = at_prime_powers(np.array(p_of, dtype=np.int32), np.array(powers, dtype=np.int32))
    # f(1), then f(P) of each prime sqrt(Q) < P <= Q / 2 in increasing P, each
    # marked by bit i & 31 of marks[i >> 5], i = P // 2 (bit 0 marks q = 1);
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld, Illinois J.
    # Math. 6 (1962), (3.6)) bounds how many
    half = Q // 2
    held = np.empty(1 + (int(1.25506 * half / math.log(half)) + 1 if half > 1 else 0), dtype)
    held[0] = 1
    marks = np.zeros((Q >> 7) + 1, dtype=np.uint32)
    marks[0] = 1
    counts = np.zeros(marks.size + 1, dtype=np.int32)  # counts[w]: the marks in the words below w
    counts[1] = 1
    ranks = counts[1:]  # the marks up to and including word w
    strided = [(p, i) for p, i in zip(primes, first) if p <= _STRIDED_TOP]
    wide = [(p, i) for p, i in zip(primes, first) if p > _STRIDED_TOP][::-1]  # largest first
    wide_p, wide_first = np.array(wide, dtype=np.int64).reshape(-1, 2).T
    levels, cut, pj = [], 0, wide_p  # (cut, p^j), j = 2, 3, ...: p^j <= Q for wide_p[cut:]
    while True:
        pj = pj * wide_p[cut:]
        drop = int(np.count_nonzero(pj > Q))  # a prefix, as wide_p descends
        cut, pj = cut + drop, pj[drop:]
        if not pj.size:
            break
        levels.append((cut, pj))

    def blocks():
        count = 1  # the entries of held so far
        for lo in range(1, Q + 1, block):
            hi = min(lo + block, Q + 1)
            smooth = np.ones(hi - lo, dtype=np.int32)  # the part of q made of primes <= sqrt(Q)
            for p, _ in strided:
                pk = p
                while pk < hi:  # each p^j dividing q puts in one more p
                    smooth[-lo % pk :: pk] *= p
                    pk *= p
            # every multiple of a wide prime, the primes in descending order:
            # its offset `at` in the block, the index in `values` of f(p^k)
            # and the power p^k exactly dividing q
            which, at, starts = _multiples(lo, hi - lo, wide_p)
            at_value = wide_first[which]
            power = wide_p[which]
            for cut, pj in levels:
                w, a, _ = _multiples(lo, hi - lo, pj)
                if not w.size:  # nor any of a higher power
                    break
                w += cut
                pair = starts[w] + (a - at[starts[w]]) // wide_p[w]
                at_value[pair] += 1
                power[pair] *= wide_p[w]
            np.multiply.at(smooth, at, power.astype(np.int32))  # q may have several
            new = np.flatnonzero(smooth == 1)[1 if lo == 1 else 0 :]  # the primes above sqrt(Q)
            rest = np.arange(lo, hi, dtype=np.int32)
            rest //= smooth  # 1 or a prime P > sqrt(Q)
            del smooth
            P = rest[new]
            fresh = np.zeros(new.size, dtype)
            if new.size:
                fresh[:] = at_prime_powers(P, P)
            kept = int(np.count_nonzero(P <= half))  # a prefix, as P increases
            held[count : count + kept] = fresh[:kept]
            count += kept
            index = P[:kept] >> 1
            np.bitwise_or.at(marks, index >> 5, _BIT[index & 31])
            if lo <= half:  # recount from the word of lo // 2, which the block before may share
                w0, w1 = lo >> 6, (min(hi - 1, half) >> 6) + 1
                np.cumsum(np.bitwise_count(marks[w0:w1]), dtype=np.int32, out=counts[w0 + 1 : w1 + 1])
                counts[w0 + 1 : w1 + 1] += counts[w0]
            # the slot of i = rest // 2 is the count of the marks below i: those
            # up to and including its word, less those at i and above in it. The
            # new primes (one above Q / 2 has no slot) read q = 1's until f[new] is set
            rest[new] = 1
            word = rest >> 6
            slot = np.take(ranks, word)
            bits = np.take(marks, word)
            del word
            rest >>= 1
            rest &= 31
            bits >>= rest.view(np.uint32)
            del rest
            slot -= np.bitwise_count(bits)
            del bits
            f = np.take(held, slot)
            del slot
            f[new] = fresh
            np.multiply.at(f, at, values[at_value])  # in order: the larger prime first
            for p, i in reversed(strided):
                s = -lo % p
                on = f[s::p]
                if p * p >= hi:
                    on *= values[i]
                    continue
                factor = np.full(on.size, values[i])
                pk, k = p * p, 1
                while pk < hi:  # the q that p^(k + 1) divides
                    factor[(-lo % pk - s) // p :: pk // p] = values[i + k]
                    pk, k = pk * p, k + 1
                on *= factor
            yield lo, f

    return blocks()


def fsum_blocks(blocks) -> float:
    """The exact sum of the float64 arrays `blocks`, rounded once, holding one
    block at a time: math.fsum (Shewchuk, Discrete Comput. Geom. 18 (1997))
    over the blocks' memoryviews, which yield their entries as Python floats."""
    return math.fsum(chain.from_iterable(map(memoryview, blocks)))
