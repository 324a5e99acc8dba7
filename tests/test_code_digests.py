"""The built codes, pinned by digest: a change to how a Raptor or regular LDPC
code is assembled must leave every code bit-identical, or update these
digests on purpose (and with them every golden CSV that samples the codes)."""

import hashlib
import math

from erasurelab.ldpc import sample_regular
from erasurelab.raptor import RaptorCode, RaptorParams

# (k, n, seed): k from 4 to 1024, seeds 0-3; several of them reject their
# first LT seeds
RAPTOR_GRID = [
    (4, 8, 0), (10, 20, 1), (16, 32, 0), (32, 64, 2), (64, 128, 3),
    (100, 150, 1), (256, 512, 0), (512, 1024, 2), (1024, 1100, 3),
]
# (dv, dc, n), each at seeds 0-5; n <= 256 also runs the 4-cycle pass
REGULAR_SHAPES = [
    (3, 6, 24), (3, 6, 96), (3, 6, 256), (3, 6, 1024), (2, 4, 64),
    (4, 8, 128), (3, 4, 200), (5, 10, 100), (3, 12, 480), (4, 6, 300),
]

RAPTOR_DIGEST = "0b046afe97e73e7c4d6185da9739fb6bb4a98a6bbc84261dc898445254aec9c8"
REGULAR_DIGEST = "f5d79018f02b891d5b85109b250a873fafd35b22f0ed025734863ecf92117fe6"


def raptor_digest() -> str:
    h = hashlib.sha256()
    for k, n, seed in RAPTOR_GRID:
        code = RaptorCode.build(k, n, seed=seed)
        p = code.params
        h.update(repr(((p.k, p.n, p.seed, p.lt_seed, p.s, p.h), code.precode_rows,
                       code.lt_rows, code.lt_cols, code.encoder.pmap)).encode())
    return h.hexdigest()


def regular_digest() -> str:
    h = hashlib.sha256()
    for dv, dc, n in REGULAR_SHAPES:
        for seed in range(6):
            code = sample_regular(dv, dc, n, seed=seed)
            h.update(repr((code.h.row_adj, list(code.encoder.info_positions))).encode())
    return h.hexdigest()


def test_raptor_codes_are_pinned():
    assert raptor_digest() == RAPTOR_DIGEST


def test_regular_codes_are_pinned():
    assert regular_digest() == REGULAR_DIGEST


def test_every_precode_has_an_unused_weight3_column():
    """k < C(s, 3) for every k: the s pre-code rows have more weight-3 column
    patterns than the k columns drawn, so a redraw of a used pattern always
    has an unused one to find."""
    for k in range(4, 20001):
        p = RaptorParams(k, k)
        assert math.comb(p.s, 3) > p.k, k
