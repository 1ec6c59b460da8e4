"""Seeded sampler of alcove-point tuples with fixed inside/outside quotas.

Follows the rules of the oracle-concordance acceptance criterion: every
coordinate is a multiple of 1/DENOM, and each point keeps a margin of
1/20 from every alcove wall, and each tuple a margin of 1/20 from every
inequality of the system.  No sampled tuple is on the boundary, so its
exact verdict is "inside" or "outside".

Drawing each grid coordinate uniformly and rejecting tuples whose points
miss the shrunken alcove draws each point uniformly from the grid points
of that alcove, independently; the sampler draws from that list directly.
Slacks are evaluated in integers scaled by DENOM and a common denominator.
"""

import math
from fractions import Fraction

import numpy as np

DENOM = 60
MARGIN = Fraction(1, 20)
BATCH = 256          # candidates per draw; keeps the harness's memory small
MAX_BATCHES = 20000


def _alcove_grid(rs):
    """All grid points at least MARGIN inside every alcove wall, as ints
    over DENOM."""
    lo = int(MARGIN * DENOM)
    theta = np.array([int(t) for t in rs.highest_root], dtype=np.int64)
    axes = np.arange(lo, DENOM + 1, dtype=np.int64)
    pts = np.stack(np.meshgrid(*[axes] * rs.rank, indexing="ij"),
                   axis=-1).reshape(-1, rs.rank)
    return pts[pts @ theta <= DENOM - lo]


def _integer_system(rs, inequalities):
    """(rows, rhs, scale): slack * DENOM * scale == rhs - rows @ flat_point
    for a flat point of integer numerators over DENOM."""
    coeffs = [[c for wgt in q.lhs_weights for c in rs.root_coords(wgt)]
              for q in inequalities]
    scale = math.lcm(*(Fraction(c).denominator for row in coeffs for c in row))
    rows = np.array([[int(c * scale) for c in row] for row in coeffs],
                    dtype=np.int64)
    rhs = np.array([q.rhs * scale * DENOM for q in inequalities], dtype=np.int64)
    return rows, rhs, scale


def sample_tuples(rs, n, inequalities, inside, outside, seed):
    """`inside` + `outside` n-tuples of grid points, as lists of coordinate
    strings, each tagged with its exact verdict.  Deterministic in seed."""
    grid = _alcove_grid(rs)
    rows, rhs, scale = _integer_system(rs, inequalities)
    need = int(MARGIN * DENOM) * scale
    rng = np.random.default_rng(seed)
    quota = {"inside": inside, "outside": outside}
    found = {"inside": [], "outside": []}
    for _ in range(MAX_BATCHES):
        if all(len(found[k]) >= quota[k] for k in quota):
            break
        picks = grid[rng.integers(0, len(grid), size=(BATCH, n))]
        flat = picks.reshape(BATCH, n * rs.rank)
        slack = rhs[None, :] - flat @ rows.T
        clear = np.abs(slack).min(axis=1) >= need
        ins = slack.min(axis=1) > 0
        for k in np.nonzero(clear)[0]:
            status = "inside" if ins[k] else "outside"
            if len(found[status]) < quota[status]:
                found[status].append(
                    [[str(Fraction(int(m), DENOM)) for m in pt]
                     for pt in picks[k]])
    if any(len(found[k]) < quota[k] for k in quota):
        raise RuntimeError(f"sampler did not fill its quotas for "
                           f"{rs.type_label}{rs.rank} n={n}")
    tagged = [(pts, "inside") for pts in found["inside"]] + \
             [(pts, "outside") for pts in found["outside"]]
    order = rng.permutation(len(tagged))
    return [tagged[i] for i in order]
