"""The simulator's random stream: ``numpy.random.default_rng(seed)``, bit for bit.

Every synthetic draw (Bernoulli injection, pattern destinations, the hotspot
subset, closed-loop issue, random link faults) comes from :class:`Stream`, a
pure-Python PCG64 that reproduces what numpy's ``Generator`` returns for the
calls the simulator makes:

* seeding: ``SeedSequence`` hashmix of the seed's 32-bit words into a
  4-word pool, expanded to PCG64's 128-bit state and increment;
* ``PCG64`` XSL-RR 64-bit output, and numpy's buffered 32-bit half-word
  (a 32-bit draw keeps the upper half of a 64-bit output for the next one);
* :meth:`Stream.random` — a double from the top 53 bits;
* :meth:`Stream.integers` — ``[0, high)`` by Lemire's method on 32-bit draws;
* :meth:`Stream.binomial` — inversion when ``n * p <= 30``, BTPE above,
  mirrored for ``p > 0.5``;
* :meth:`Stream.choice` — ``choice(n, size, replace=False)``: Floyd's
  algorithm plus a shuffle, or a tail shuffle of ``range(n)`` when
  ``n > 10,000`` and ``size > n // 50``;
* :meth:`Stream.shuffle` — in-place Fisher-Yates by masked rejection.

A scalar loop consumes the stream exactly as numpy's vector call of the
same draws (``integers(n, size=k)``, ``random(k)``) does.  Keeping the
stream in the repository means a numpy upgrade cannot move a pinned run
(numpy does not freeze ``Generator`` streams across releases, NEP 19), and a
synthetic run never loads numpy.  ``tests/test_rng.py`` holds the stream to
numpy draw for draw.
"""

from __future__ import annotations

import math
import operator
from typing import MutableSequence

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK128 = (1 << 128) - 1
#: PCG's 128-bit LCG multiplier.
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# SeedSequence constants (O'Neill's seed_seq_fe, as numpy uses them).
_POOL_SIZE = 4
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715


def _seed_words(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as (state, increment)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    # Little-endian pairs of 32-bit words -> four 64-bit words.
    s0, s1, i0, i1 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    return s0 << 64 | s1, i0 << 64 | i1


class Stream:
    """PCG64 draws identical to ``numpy.random.default_rng(seed)``'s."""

    __slots__ = ("_state", "_inc", "_has32", "_buf32", "_binomial_key", "_binomial_setup")

    def __init__(self, seed: int) -> None:
        initstate, initseq = _seed_words(seed)
        self._inc = inc = (initseq << 1 | 1) & _MASK128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        self._has32 = False
        self._buf32 = 0
        self._binomial_key: tuple[int, float] | None = None
        self._binomial_setup: tuple = ()

    # -- raw output ---------------------------------------------------------------
    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._buf32
        x = self._next64()
        self._has32 = True
        self._buf32 = x >> 32
        return x & _MASK32

    def _bounded(self, rng: int) -> int:
        """Uniform on the closed range ``[0, rng]`` (numpy's Lemire path)."""
        if rng == 0:
            return 0
        if not 0 < rng < _MASK32:
            raise ValueError(f"range [0, {rng}] is outside the 32-bit draws supported")
        rng_excl = rng + 1
        m = self._next32() * rng_excl
        leftover = m & _MASK32
        if leftover < rng_excl:
            threshold = (_MASK32 - rng) % rng_excl
            while leftover < threshold:
                m = self._next32() * rng_excl
                leftover = m & _MASK32
        return m >> 32

    def _interval(self, top: int) -> int:
        """Uniform on ``[0, top]`` by masked rejection (numpy's shuffle path)."""
        if top == 0:
            return 0
        mask = (1 << top.bit_length()) - 1
        while (value := self._next32() & mask) > top:
            pass
        return value

    # -- the draws the simulator makes -----------------------------------------------
    def random(self) -> float:
        """A double uniform on ``[0, 1)``."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, high: int) -> int:
        """An integer uniform on ``[0, high)``, ``1 <= high < 2**32``."""
        if high < 1:
            raise ValueError("high <= 0")
        return self._bounded(high - 1)

    def binomial(self, n: int, p: float) -> int:
        """Successes in ``n`` Bernoulli(``p``) trials."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p < 0, p > 1 or p is NaN")
        if n < 0:
            raise ValueError("n < 0")
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._binomial(n, p)
        return n - self._binomial(n, 1.0 - p)

    def choice(self, n: int, size: int) -> list[int]:
        """``size`` distinct draws from ``range(n)`` (``replace=False``)."""
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} distinct items from {n}")
        if n > 10_000 and size > n // 50:
            items = list(range(n))
            self._shuffle_tail(items, max(n - size, 1))
            return items[n - size:]
        chosen: list[int] = []
        seen: set[int] = set()
        for j in range(n - size, n):
            value = self._bounded(j)
            if value in seen:
                value = j
            seen.add(value)
            chosen.append(value)
        self._shuffle_tail(chosen, 1)
        return chosen

    def shuffle(self, items: MutableSequence) -> None:
        """Shuffle a list in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self._interval(i)
            items[i], items[j] = items[j], items[i]

    # -- internals -------------------------------------------------------------------
    def _shuffle_tail(self, items: list[int], first: int) -> None:
        """Fisher-Yates over positions ``len-1 .. first`` (numpy's ``_shuffle_int``)."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]

    def _binomial(self, n: int, p: float) -> int:
        """``p <= 0.5``: inversion for small means, BTPE otherwise."""
        key = (n, p)
        if key != self._binomial_key:
            self._binomial_key = key
            self._binomial_setup = (
                _inversion_setup(n, p) if p * n <= 30.0 else _btpe_setup(n, p)
            )
        if p * n <= 30.0:
            return self._inversion(n, p, *self._binomial_setup)
        return self._btpe(n, *self._binomial_setup)

    def _inversion(self, n: int, p: float, q: float, qn: float, bound: int) -> int:
        x = 0
        px = qn
        u = self.random()
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = self.random()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(
        self, n: int, r: float, q: float, fm: float, m: int, p1: float, xm: float,
        xl: float, xr: float, c: float, laml: float, lamr: float, p2: float,
        p3: float, p4: float,
    ) -> int:
        """Kachitvichyanukul & Schmeiser's BTPE, step for step as numpy has it."""
        nrq = n * r * q
        while True:
            u = self.random() * p4
            v = self.random()
            if u <= p1:  # triangular centre: accept at once
                return math.floor(xm - p1 * v + u)
            if u <= p2:  # parallelogram
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:  # left exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # right exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr

            k = abs(y - m)
            if k <= 20 or k >= nrq / 2.0 - 1:
                # Explicit evaluation of f(y) / f(m).
                s = r / q
                a = s * (n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                return y

            # Squeeze on log f(y) / f(m), then Stirling's bound.
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            log_v = math.log(v) if v > 0.0 else -math.inf
            if log_v < t - rho:
                return y
            if log_v > t + rho:
                continue
            x1 = float(y + 1)
            f1 = float(m + 1)
            z = float(n + 1 - m)
            w = float(n - y + 1)
            x2, f2, z2, w2 = x1 * x1, f1 * f1, z * z, w * w
            bound = (
                xm * math.log(f1 / x1)
                + (n - m + 0.5) * math.log(z / w)
                + (y - m) * math.log(w * r / (x1 * q))
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
            )
            if log_v > bound:
                continue
            return y


def _inversion_setup(n: int, p: float) -> tuple[float, float, int]:
    q = 1.0 - p
    np_ = n * p
    return q, math.exp(n * math.log(q)), int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))


def _btpe_setup(n: int, p: float) -> tuple:
    r = min(p, 1.0 - p)
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    return r, q, fm, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4
