import math
import operator
from collections import deque

import numpy as np
import pytest

from erasurelab import decode
from erasurelab.binmat import (
    BinVector,
    DenseBinMatrix,
    DimensionError,
    SparseBinMatrix,
    _gauss_jordan,
    rank,
)
from erasurelab.ldpc import LdpcCode, _generic_encoder_from_h
from erasurelab.raptor import RaptorParams, _precode_rows, lt_tuple


def from_rows(rowlists):
    """DenseBinMatrix from 0/1 row lists."""
    words = [sum(b << j for j, b in enumerate(r)) for r in rowlists]
    return DenseBinMatrix(len(words), len(rowlists[0]) if words else 0, words)


def to_lists(m):
    return [[(w >> j) & 1 for j in range(m.cols)] for w in m.row_words]


def loop_from_bits(seq):
    """Reference packer: one shift per set bit, the loop ``BinVector.from_bits``
    replaces with ``np.packbits``."""
    seq = list(seq)
    bits = 0
    for i, b in enumerate(seq):
        if b:
            bits |= 1 << i
    return BinVector(len(seq), bits)


def loop_to_list(v):
    """Reference unpacker: one shift per bit, the loop ``BinVector.to_list``
    replaces with ``BinVector.unpacked``."""
    return [(v.bits >> i) & 1 for i in range(v.n)]


def loop_ones(v):
    """Reference set-bit positions: a walk over the binary digits of the
    word, which ``BinVector.ones`` replaces with ``BinVector.unpacked``."""
    return [i for i, ch in enumerate(bin(v.bits)[:1:-1]) if ch == "1"]


def loop_dense_to_text(m):
    """Reference text writer: one character per bit."""
    lines = [f"{m.rows} {m.cols}"]
    for w in m.row_words:
        lines.append("".join(str((w >> j) & 1) for j in range(m.cols)))
    return "\n".join(lines) + "\n"


def loop_dense_from_text(text):
    """Reference text reader: the validation of ``binmat.dense_from_text``,
    then one shift per character."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("missing matrix")
    rows, cols = (int(t) for t in lines[0].split())
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    words = []
    for ln in lines[1 : rows + 1]:
        ln = ln.strip()
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"bad matrix row: {ln!r}")
        w = 0
        for j, ch in enumerate(ln):
            if ch == "1":
                w |= 1 << j
        words.append(w)
    return DenseBinMatrix(rows, cols, words)


def identity(n):
    return DenseBinMatrix(n, n, [1 << i for i in range(n)])


def submatrix_rows(m, indices):
    return DenseBinMatrix(len(indices), m.cols, [m.row_words[i] for i in indices])


def mul(m, n):
    """GF(2) product: row i XORs the rows of ``n`` that row i of ``m`` selects."""
    words = [0] * m.rows
    for i, w in enumerate(m.row_words):
        for j in range(n.rows):
            if w >> j & 1:
                words[i] ^= n.row_words[j]
    return DenseBinMatrix(m.rows, n.cols, words)


def mul_vec(m, v):
    """GF(2) matrix-vector product: bit i is the parity of row i of ``m``
    over ``v``."""
    if m.cols != v.n:
        raise DimensionError(f"cannot apply {m.cols}-col matrix to length-{v.n} vector")
    bits = 0
    for i, w in enumerate(m.row_words):
        if (w & v.bits).bit_count() & 1:
            bits |= 1 << i
    return BinVector(m.rows, bits)


def invert(m):
    """Gauss-Jordan on [M | I]: the right half of row i ends as row i of
    M^-1. A singular M is a ValueError that names its rank."""
    n = m.rows
    if n != m.cols:
        raise DimensionError("only square matrices can be inverted")
    aug = [w | 1 << (n + i) for i, w in enumerate(m.row_words)]
    r = len(_gauss_jordan(aug, n))
    if r < n:
        raise ValueError(f"matrix of dimension {n} is singular (rank {r})")
    return DenseBinMatrix(n, n, [w >> n for w in aug])


def precode(d, params):
    """Non-systematic reference route into a Raptor code: the intermediate
    symbols F = [D; D_s; D_h] that the pre-code relations give the source
    symbols D."""
    if len(d) != params.k:
        raise ValueError(f"message length {len(d)} != k = {params.k}")
    f = d.bits
    for r, w in enumerate(_precode_rows(params)):
        # row r's one unknown is its identity bit k + r; the bits it reads
        # below that are already set
        f |= ((w & f).bit_count() & 1) << (params.k + r)
    return BinVector(params.L, f)


def transform_encode(code, c):
    """Reference systematic Raptor encoder, the route the parity-mask encoder
    replaces: F = A(1..k)^-1 [0; C] for the intermediate symbols, then one
    parity per LT row over all n rows."""
    p = code.params
    a_k = DenseBinMatrix(p.L, p.L, code.precode_rows + code.lt_rows[: p.k])
    f = mul_vec(invert(a_k), BinVector(p.L, c.bits << (p.s + p.h)))
    return mul_vec(DenseBinMatrix(p.n, p.L, code.lt_rows), f)


def build_A(params, esis):
    """Reference encoding-matrix submatrix A(esis): the pre-code constraint
    rows stacked over the LT rows of ``esis``, all drawn afresh; shape
    (s+h+r) x L."""
    rows = _precode_rows(params)
    rows += [sum(1 << i for i in lt_tuple(esi, params)) for esi in esis]
    return DenseBinMatrix(len(rows), params.L, rows)


def rank_seed_search(k, n, seed=0, cap=10000):
    """Reference systematic-seed search, the route ``RaptorCode.build``
    replaced: the smallest LT seed whose A(1..k), assembled by build_A, has
    rank L."""
    for lt_seed in range(cap):
        params = RaptorParams(k, n, seed=seed, lt_seed=lt_seed)
        if rank(build_A(params, range(1, k + 1))) == params.L:
            return lt_seed
    raise AssertionError(f"no systematic seed below {cap}")


def geira_accumulate(code, spec, u):
    """Reference GeIRA encoder: forward substitution through the accumulator,
    one parity bit at a time, reading H_u off the code and the taps off the
    ``GeiraSpec`` it was built from."""
    k, m = spec.k, spec.n - spec.k
    parity = 0
    for r in range(m):
        hu = sum(1 << c for c in code.h.row_adj[r] if c < k)
        p = (hu & u.bits).bit_count() & 1
        for t in spec.taps:
            if t and r - t >= 0:
                p ^= (parity >> (r - t)) & 1
        parity |= p << r
    return BinVector(spec.n, u.bits | (parity << k))


def code_from_rows(rowlists, punctured=frozenset()):
    """LdpcCode straight from explicit parity-check rows."""
    h = SparseBinMatrix.from_dense(from_rows(rowlists))
    return LdpcCode(h, _generic_encoder_from_h(h), punctured=frozenset(punctured))


def erased_at(n, positions):
    """The erasure mask of length ``n`` set at ``positions``, in any order."""
    mask = np.zeros(n, np.bool_)
    mask[list(positions)] = True
    return mask


def random_vector(n, rng):
    return BinVector(n, int.from_bytes(rng.bytes((n + 7) // 8 or 1), "little") & ((1 << n) - 1))


@pytest.fixture
def hamming74():
    # columns of H are the binary expansions of 1..7
    rows = [[(c + 1) >> b & 1 for c in range(7)] for b in range(3)]
    return code_from_rows(rows)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def scalar_gauss_jordan(rows, ncols):
    """Reference elimination, one column at a time: the loop the blocked
    ``binmat._gauss_jordan`` replaces. Same contract: in place, returns the
    pivot columns."""
    nr = len(rows)
    pivots = []
    for col in range(ncols):
        prow = len(pivots)
        if prow == nr:
            break
        bit = 1 << col
        for sel in range(prow, nr):
            if rows[sel] & bit:
                break
        else:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        pw = rows[prow]
        for r in range(nr):
            if r != prow and rows[r] & bit:
                rows[r] ^= pw
        pivots.append(col)
    return pivots


def scalar_gauss_solve(m, rhs):
    """Reference solve of M x = rhs: ``scalar_gauss_jordan`` on [M | rhs],
    read out as (solution with the free variables zero, or None when the
    system is inconsistent, rank of M), the contract of
    ``binmat.dense_gauss_solve``."""
    nc = m.cols
    aug = [w | (rhs.bits >> i & 1) << nc for i, w in enumerate(m.row_words)]
    pivots = scalar_gauss_jordan(aug, nc)
    r = len(pivots)
    if any(w >> nc for w in aug[r:]):
        return None, r
    bits = 0
    for w, col in zip(aug, pivots):
        bits |= (w >> nc) << col
    return BinVector(nc, bits), r


def loop_rref_masks(h):
    """Reference generic-encoder tables: RREF of H one column at a time,
    then each pivot row's bits at the info columns gathered one bit at a
    time, the loop ``ldpc._generic_encoder_from_h`` replaces with one
    column gather per row. Returns (info positions, pivot positions, masks)."""
    words = h.to_dense().row_words
    pivot_cols = scalar_gauss_jordan(words, h.cols)
    pivot_set = set(pivot_cols)
    info = [c for c in range(h.cols) if c not in pivot_set]
    pmap = []
    for w in words[: len(pivot_cols)]:
        mask = 0
        for j, c in enumerate(info):
            if (w >> c) & 1:
                mask |= 1 << j
        pmap.append(mask)
    return info, pivot_cols, pmap


def full_scan_triangularize(hkbar, rule="max_degree"):
    """Reference inactivation: diagonal extension, and on each stall a scan
    for the pivot. Under ``rule`` "max_degree" it scans every unresolved
    unknown for the highest residual degree (lowest index on ties). Under
    "row" it scans every active row for the fewest unresolved unknowns, two
    or more (lowest row index on ties), and takes that row's unknown of
    highest residual degree (lowest index on ties), or the lowest unknown
    when no such row is left. Returns (resolved, pivots)."""
    row_adj, col_adj = hkbar.row_adj, hkbar.col_adj
    rowcnt = [len(cs) for cs in row_adj]
    coldeg = [len(rs) for rs in col_adj]
    active = [True] * hkbar.rows
    unresolved = set(range(hkbar.cols))
    resolved, pivots = [], []
    queue = deque(r for r in range(hkbar.rows) if rowcnt[r] == 1)

    def retire(u):
        unresolved.discard(u)
        for r in col_adj[u]:
            if active[r]:
                rowcnt[r] -= 1
                if rowcnt[r] == 1:
                    queue.append(r)

    while unresolved:
        while queue:
            r = queue.popleft()
            if not active[r] or rowcnt[r] != 1:
                continue
            u = next(c for c in row_adj[r] if c in unresolved)
            resolved.append(u)
            active[r] = False
            for c in row_adj[r]:
                coldeg[c] -= 1
            retire(u)
        if unresolved:
            candidates = unresolved
            if rule == "row":
                rows = [(rowcnt[r], r) for r in range(hkbar.rows) if active[r] and rowcnt[r] >= 2]
                if rows:
                    candidates = [c for c in row_adj[min(rows)[1]] if c in unresolved]
            u = min(candidates, key=lambda c: (-coldeg[c], c))
            pivots.append(u)
            retire(u)
    return resolved, pivots


def loop_parities(h, v):
    """Reference syndrome H·v as a list: one loop over the set bits of ``v``
    and their adjacency lists, the loop ``decode._row_sums`` replaces with a
    gather at H's edge arrays and a bincount."""
    par = [0] * h.rows
    for c in v.ones():
        for r in h.col_adj[c]:
            par[r] ^= 1
    return par


def loop_is_stopping_set(code, positions):
    """Reference stopping-set test: a count per check row touched, from the
    set's adjacency lists, the loop ``decode.is_stopping_set`` replaces with
    a bincount over H's edge arrays."""
    touched = {}
    for c in set(positions):
        for r in code.h.col_adj[c]:
            touched[r] = touched.get(r, 0) + 1
    return all(cnt >= 2 for cnt in touched.values())


def loop_peel_core(code, word):
    """Reference peel start: the loops over the erased columns' and the known
    symbols' adjacency lists that ``decode._peel_core`` replaces with one
    reduction over H's edge arrays, then the same diagonal extension. Each
    known symbol is its column's value from the start."""
    h = code.h
    unknown = bytearray(h.cols)
    rowcnt = [0] * h.rows
    erased = np.flatnonzero(word.erased_mask).tolist()
    for c in erased:
        unknown[c] = 1
        for r in h.col_adj[c]:
            rowcnt[r] += 1
    value = bytearray(h.cols)
    for c in word.values.ones():
        value[c] = 1
    st = decode.TriangularizationState(
        h.row_adj, h.col_adj, len(erased), unknown, rowcnt,
        loop_parities(h, word.values), value, bytearray(h.rows))
    decode._peel(st, [r for r, cnt in enumerate(rowcnt) if cnt == 1])
    return st


def list_erased_positions(code, channel, rng):
    """Reference channel draw: the per-index list comprehensions over the
    transmitted positions that ``sim._erasure_mask`` replaces with numpy
    indexing. Consumes the generator exactly as it does."""
    transmitted = [i for i in range(code.n) if i not in code.punctured]
    if channel.kind == "bec":
        u01 = rng.random(len(transmitted))
        return [transmitted[i] for i in np.flatnonzero(u01 < channel.value).tolist()]
    keep = min(channel.value + code.k, len(transmitted))
    kept = set(rng.choice(len(transmitted), size=max(keep, 0), replace=False).tolist())
    return [p for i, p in enumerate(transmitted) if i not in kept]


def raptor_esi_draw(code, channel, rng):
    """Reference Raptor channel draw: the received ESIs, increasing, drawn
    per code over 1..n (kept where u01 >= epsilon, or a sorted choice of
    k + delta of them). ``sim._erasure_mask`` erases exactly the other
    positions and consumes the generator the same way."""
    p = code.params
    if channel.kind == "bec":
        u01 = rng.random(p.n)
        return (np.flatnonzero(u01 >= channel.value) + 1).tolist()
    keep = min(max(p.k + channel.value, 0), p.n)
    return sorted((rng.choice(p.n, size=keep, replace=False) + 1).tolist())


def raptor_word(e, esis):
    """The word a Raptor decoder receives when the ESIs ``esis`` (in any
    order) of the codeword ``e`` arrive: position i holds ESI i+1, and every
    position whose ESI did not arrive is erased."""
    got = {esi - 1 for esi in esis}
    return decode.ReceivedWord.from_full(e, erased_at(e.n, set(range(e.n)) - got))


def sum_cleared(values, erased):
    """Reference erasure clearing: ``values`` less one generator-built mask
    bit per erased position, the sum ``decode.ReceivedWord`` replaces with a
    numpy mask."""
    return values.bits & ~sum(1 << i for i in erased)


def pivot_positions(enc):
    """The positions of an encoder that are not info positions, increasing:
    the ones its parity masks give, in ``pmap`` order."""
    info = set(enc.info_positions)
    return [c for c in range(enc.n) if c not in info]


def bitwise_encode(code, u):
    """Reference encoder: scatter the info bits one at a time through
    ``BinVector.__getitem__``, then take one parity of the message under
    each pivot's mask: the loops the encoder's chunk-table product
    replaces."""
    enc = code.encoder
    bits = 0
    for i, pos in enumerate(enc.info_positions):
        if u[i]:
            bits |= 1 << pos
    for mask, pos in zip(enc.pmap, pivot_positions(enc)):
        if (mask & u.bits).bit_count() & 1:
            bits |= 1 << pos
    return BinVector(code.n, bits)


def lt_row_recover(code, f):
    """Reference message recovery for a Raptor code: bit i of the message is
    the parity of the LT row of ESI i+1 over the intermediate symbols ``f``,
    the loop ``RaptorCode._recover_c`` replaces with a chunk-table product."""
    bits = 0
    for i in range(code.params.k):
        bits |= ((code.lt_rows[i] & f.bits).bit_count() & 1) << i
    return BinVector(code.params.k, bits)


def enumerate_min_distance(code):
    """Reference minimum distance: encode every nonzero message and keep the
    least weight over the transmitted positions and how often it occurs, the
    loop the Gray-code walk of ``analysis.exhaustive_min_distance`` replaces.
    Returns (d_min, a_min)."""
    best, mult = code.n + 1, 0
    for msg in range(1, 1 << code.k):
        word = code.encoder.encode(BinVector(code.k, msg))
        w = sum(word[j] for j in range(code.n) if j not in code.punctured)
        if w < best:
            best, mult = w, 1
        elif w == best:
            mult += 1
    return best, mult


def numpy_proto_fixed_point(b, priors, v0=None, iters=20000, tol=1e-12):
    """Reference per-edge-type erasure DE on the whole base matrix ``b`` with
    numpy ufuncs: the loop ``analysis._proto_fixed_point`` replaces. ``v``
    is an array shaped like ``b``; returns (v, extrinsic, posterior)."""
    mask = b > 0
    v = np.where(mask, 1.0, 0.0) if v0 is None else v0.copy()
    tiny = 1e-300
    for _ in range(iters):
        lo = np.log(np.maximum(1.0 - v, tiny))
        s = (b * lo).sum(axis=1, keepdims=True)
        c = np.where(mask, 1.0 - np.exp(s - lo), 0.0)
        lc = np.log(np.maximum(c, tiny))
        t = (b * lc).sum(axis=0, keepdims=True)
        v_new = np.where(mask, priors[None, :] * np.exp(t - lc), 0.0)
        v_new = np.clip(v_new, 0.0, 1.0)
        if np.abs(v_new - v).max() < tol:
            v = v_new
            break
        v = v_new
    lc = np.log(np.maximum(np.where(mask, c, 1.0), tiny))
    extrinsic = np.exp((b * lc).sum(axis=0))
    posterior = priors * extrinsic
    return v, extrinsic, posterior


def loop_proto_fixed_point(edges, priors, v0=None, iters=20000, tol=1e-12):
    """Reference per-edge-type erasure DE: the loop over the edge types that
    ``analysis._de_kernel`` unrolls into straight-line code for one base
    graph. Same arguments and result as ``analysis._proto_fixed_point``."""
    rows = [[(e, m) for e, (i, _, m) in enumerate(edges) if i == r]
            for r in range(max(i for i, _, _ in edges) + 1)]
    cols = [[(e, m) for e, (_, j, m) in enumerate(edges) if j == c] for c in range(len(priors))]
    log, exp = math.log, math.exp
    tiny = 1e-300
    log_tiny = log(tiny)
    v = [1.0] * len(edges) if v0 is None else list(v0)
    c = [0.0] * len(edges)
    t = [0.0] * len(cols)
    for _ in range(iters):
        lo = [log(1.0 - x) if x < 1.0 else log_tiny for x in v]
        for row in rows:
            s = 0.0
            for e, m in row:
                s += m * lo[e]
            for e, _ in row:
                c[e] = 1.0 - exp(s - lo[e])
        lc = [log(x) if x > tiny else log_tiny for x in c]
        v_new = [0.0] * len(v)
        for j, col in enumerate(cols):
            s = 0.0
            for e, m in col:
                s += m * lc[e]
            t[j] = s
            prior = priors[j]
            for e, _ in col:
                x = prior * exp(s - lc[e])
                v_new[e] = x if 0.0 <= x <= 1.0 else (0.0 if x < 0.0 else 1.0)
        done = max(map(abs, map(operator.sub, v_new, v))) < tol
        v = v_new
        if done:
            break
    extrinsic = [exp(s) for s in t]
    return v, extrinsic, [prior * x for prior, x in zip(priors, extrinsic)]


def inline_log_terms(n, eps, lo, hi):
    """Reference log P(i of n positions erased) for i in range(lo, hi), with
    the lgamma table built on every call, as ``analysis._log_terms`` did
    before it shared one table per n."""
    if eps == 0.0:
        return [0.0 if i == 0 else -math.inf for i in range(lo, hi)]
    if eps == 1.0:
        return [0.0 if i == n else -math.inf for i in range(lo, hi)]
    lg = [math.lgamma(i + 1) for i in range(n + 1)]
    log_eps, log_keep = math.log(eps), math.log1p(-eps)
    return [lg[n] - lg[i] - lg[n - i] + i * log_eps + (n - i) * log_keep
            for i in range(lo, hi)]
