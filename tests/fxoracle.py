"""Exact-rational oracle for fixed-point arithmetic, independent of fxp's kernels.

Value-space arithmetic with Fractions: rounds an exact rational onto the
representable grid, then applies overflow in value space. It shares no code
with the raw-domain shifts and clips of :mod:`fxattn.fxp`.

:class:`NetworkOracle` runs the attention layer and the whole network one
jet at a time on the same value-space steps. From fxattn it takes only the
format types; softmax tables come in as data (``lo``, ``hi`` and the entry
raws), and the network's weights as the weight file's key -> array map.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from fxattn.fxp import FxFormat, Overflow, Rounding


def round_to_grid(x: Fraction, fmt: FxFormat) -> int:
    scaled = x * (1 << fmt.frac_bits)
    if fmt.rounding is Rounding.TRUNCATE:
        return math.floor(scaled)
    lo = math.floor(scaled)
    frac = scaled - lo
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and lo % 2 != 0):
        return lo + 1
    return lo


def apply_overflow(raw: int, fmt: FxFormat) -> int:
    if fmt.overflow is Overflow.SATURATE:
        return min(max(raw, fmt.raw_min), fmt.raw_max)
    span = 1 << fmt.total_bits
    return (raw - fmt.raw_min) % span + fmt.raw_min


def oracle_quantize(x: Fraction, fmt: FxFormat) -> int:
    return apply_overflow(round_to_grid(x, fmt), fmt)


def fraction_of(raw, fmt: FxFormat) -> Fraction:
    """The rational value of one raw integer of ``fmt``."""
    return Fraction(int(raw), 1 << fmt.frac_bits)


def oracle_add(a, b, fmt: FxFormat) -> int:
    return oracle_quantize(fraction_of(a, fmt) + fraction_of(b, fmt), fmt)


def oracle_mul(a, b, fmt: FxFormat) -> int:
    return oracle_quantize(fraction_of(a, fmt) * fraction_of(b, fmt), fmt)


def oracle_matmul(a, b, fmt: FxFormat) -> list:
    """Raws of rows of a (r, k) times columns of b (k, c) in Fractions, rounded once."""
    scale = Fraction(1, 1 << (2 * fmt.frac_bits))
    return [[oracle_quantize(sum(int(x) * int(y) for x, y in zip(row, col)) * scale, fmt)
             for col in b.T] for row in a]


class NetworkOracle:
    """Attention and the whole network on one jet, step by step.

    With a format, a value is a raw integer of it and every step is exact,
    then rounded onto the grid and overflow-handled in value space:

    * a quantization rounds the exact input; an input outside
      ``[-2**(int_bits - 1), 2**(int_bits - 1))`` counts as an overflow
      even where it rounds into range, because it is clipped or wrapped;
    * a dot product is the exact sum, rounded once; a bias or residual add
      and the score scale (1/sqrt(d_k) as a float, quantized) follow it;
    * the table softmax: each score minus the kept maximum, saturated in
      every overflow mode; the exp bin ``floor((x - lo) * size / (hi - lo))``
      clamped to the table; zero for a masked key; the exact sum of the
      terms with overflow handling; its reciprocal bin; one rounded product.

    ``overflows`` counts the steps whose overflow handling changed a value.

    With ``fmt=None``, values are exact Fractions and nothing rounds but the
    softmax's ``math.exp``.
    """

    def __init__(self, fmt: FxFormat | None):
        self.fmt = fmt
        self.overflows = 0
        if fmt is not None:  # the softmax shift saturates in every overflow mode
            self._shift_fmt = FxFormat(fmt.int_bits, fmt.frac_bits, Overflow.SATURATE)

    def _overflow(self, raw: int, fmt: FxFormat) -> int:
        out = apply_overflow(raw, fmt)
        self.overflows += out != raw
        return out

    def _round(self, products: int) -> int:
        """A raw from an exact sum of raw products (2 * frac_bits fraction bits)."""
        fmt = self.fmt
        return self._overflow(round_to_grid(Fraction(products, 1 << 2 * fmt.frac_bits), fmt),
                              fmt)

    def value(self, x):
        """One float or Fraction quantized: a raw, or the exact Fraction in float mode."""
        if self.fmt is None:
            return Fraction(x)
        top = 1 << (self.fmt.int_bits - 1)
        self.overflows += not -top <= x < top
        return self._overflow(round_to_grid(Fraction(x), self.fmt), self.fmt)

    def values(self, a) -> list:
        """Nested lists of :meth:`value` over an array's elements."""
        a = np.asarray(a, dtype=np.float64)
        return [self.values(r) for r in a] if a.ndim else self.value(float(a))

    def dot(self, xs, ys):
        s = sum(x * y for x, y in zip(xs, ys))
        return Fraction(s) if self.fmt is None else self._round(s)

    def add(self, a, b):
        return a + b if self.fmt is None else self._overflow(a + b, self.fmt)

    def _add_rows(self, a, b) -> list:
        return [[self.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def dense(self, w, b, x, relu=False) -> list:
        """``W x + b`` of one row ``x``, then a ReLU if asked."""
        out = [self.add(self.dot(row, x), bias) for row, bias in zip(w, b)]
        return [max(v, 0) for v in out] if relu else out

    def _lookup(self, table, raw: int) -> int:
        lo, hi, entries = table
        lo = Fraction(lo)
        k = math.floor((Fraction(raw, 1 << self.fmt.frac_bits) - lo) * len(entries)
                       / (Fraction(hi) - lo))
        return entries[min(max(k, 0), len(entries) - 1)]

    def softmax(self, row, tables=None, keep=None) -> list:
        """Softmax of one row; ``tables`` is the (exp, reciprocal) pair in
        fixed mode, each ``(lo, hi, entry raws)``; ``keep`` masks keys."""
        keep = [True] * len(row) if keep is None else list(keep)
        top = max(x for x, k in zip(row, keep) if k)
        if self.fmt is None:
            e = [Fraction(math.exp(x - top)) if k else Fraction(0) for x, k in zip(row, keep)]
            return [v / sum(e) for v in e]
        e = [self._lookup(tables[0], self._overflow(x - top, self._shift_fmt)) if k else 0
             for x, k in zip(row, keep)]
        inv = self._lookup(tables[1], self._overflow(sum(e), self.fmt))
        return [self.dot([v], [inv]) for v in e]

    def attention(self, x, w: dict, tables=None, mask=None) -> list:
        """Rows of one layer's output for rows x (seq_len, d_model) of values;
        ``w`` maps each attention tensor name to values in its stored layout:
        (heads, d, d_model) for Q/K/V, (d_model, heads * d_v) for ``w_o``."""
        scale = self.value(1 / math.sqrt(len(w["w_q"][0])))
        heads = []
        for h in range(len(w["w_q"])):
            q, k, v = ([self.dense(w[f"w_{n}"][h], w[f"b_{n}"][h], row) for row in x]
                       for n in "qkv")
            probs = [self.softmax([self.dot([self.dot(qt, kj)], [scale]) for kj in k],
                                  tables, mask) for qt in q]
            heads.append([[self.dot(p, col) for col in zip(*v)] for p in probs])
        return [self.dense(w["w_o"], w["b_o"], sum(rows, [])) for rows in zip(*heads)]

    def quantize_table(self, table, f) -> None:
        """Count the overflows of quantizing ``f`` at the table's bin left
        edges, as building it does; ``f`` is monotone there, so the end
        bins bound every entry."""
        lo, hi, entries = table
        for k in (0, len(entries) - 1):
            self.value(f(Fraction(lo) + k * (Fraction(hi) - Fraction(lo)) / len(entries)))

    def network(self, jets, tensors: dict, score_tables=None, out_tables=None) -> list:
        """Output probabilities of each jet (seq_len, d_model) of floats, as
        one pass does: weights quantized once, then every jet in turn.
        ``tensors`` is the weight file's key -> array map; the number of
        blocks, heads and head layers is read from its keys."""
        for tables in (score_tables, out_tables) if self.fmt is not None else ():
            self.quantize_table(tables[0], math.exp)
            self.quantize_table(tables[1], lambda v: 1 / v)
        t = {key: self.values(a) for key, a in tensors.items()}

        def run(key: str, start: int = 0) -> range:
            """The indices i from ``start`` up to the first one with no key."""
            return range(start, next(i for i in itertools.count(start)
                                     if key.format(i) not in t))

        blocks = []
        for i in run("block{}.ff1.w"):
            mha = {name: t[f"block{i}.mha.{name}"] for name in ("w_o", "b_o")}
            for name in ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v"):
                mha[name] = [t[f"block{i}.mha.{name}.head{h}"]
                             for h in run(f"block{i}.mha.{name}.head{{}}")]
            blocks.append((mha, t[f"block{i}.ff1.w"], t[f"block{i}.ff1.b"],
                           t[f"block{i}.ff2.w"], t[f"block{i}.ff2.b"]))
        head = [(t[f"head{j}.w"], t[f"head{j}.b"]) for j in run("head{}.w", 1)]
        probs = []
        for jet in jets:
            h = self.values(jet)
            for mha, w1, b1, w2, b2 in blocks:
                h = self._add_rows(h, self.attention(h, mha, score_tables))
                h = self._add_rows(h, [self.dense(w2, b2, self.dense(w1, b1, r, relu=True))
                                       for r in h])
            flat = sum(h, [])
            for w, b in head:
                flat = self.dense(w, b, flat, relu=True)
            probs.append(self.softmax(self.dense(t["output.w"], t["output.b"], flat),
                                      out_tables))
        return probs
