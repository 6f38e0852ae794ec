"""Reference oracles of the degraded regions: the five information quantities
I(U;Y2), I(U;Z), I(X;Y1|U), I(X;Z) and I(X;Z|U) written out per input law
(discrete mutual information, log-det ratios, quadrature entropies) and
combined by hand into the five-bound and per-message right-hand sides, as the
package computed them before every region was instantiated from one row
definition.  Tests compare the package's regions with these."""

import itertools
import math

import numpy as np

from wiretap_regions.fisher_lab import TWO_PI_E, mixture_entropy
from wiretap_regions.info_core import ProbTable, VarId, mutual_information
from wiretap_regions.regions_discrete import FIVE_BOUNDS, OUTPUTS, region_stack
from wiretap_regions.regions_gaussian import logdet

NAMES = ("iuy2", "iuz", "ixy1_u", "ixz", "ixz_u")


def five_bound_columns(iuy2, iuz, ixy1_u, ixz, ixz_u) -> tuple:
    """The right-hand sides of the five-bound rows, in row order."""
    return (iuy2 - iuz, iuy2 + ixy1_u - ixz, iuy2, iuy2 + ixy1_u - ixz_u, iuy2 + ixy1_u)


def per_message_columns(iuy2, iuz, ixy1_u, ixz, ixz_u) -> tuple:
    """The right-hand sides of the per-message rows rp2, rs2, rp1, rs1."""
    return (iuz, iuy2 - iuz, ixz_u, ixy1_u - ixz_u)


def five_bound_stack(iuy2, iuz, ixy1_u, ixz, ixz_u):
    """The five-bound stack of the five quantities (floats for a stack of
    one, or arrays of one length), on the package's rows."""
    return region_stack(FIVE_BOUNDS, five_bound_columns(iuy2, iuz, ixy1_u, ixz, ixz_u))


def discrete_constants(t: ProbTable, ch) -> dict:
    """The five quantities of each member of the (U, X) table ``t`` by
    discrete mutual information on its joint with each output."""
    t1, t2, tz = (ProbTable(t.vars + (VarId(name, out.cardinality),),
                            np.einsum("...x,xw->...xw", t.probs, ch.pair_kernel(out.name)))
                  for name, out in zip(OUTPUTS, ch.outputs))
    y1, y2, z = OUTPUTS
    return {"iuy2": mutual_information(t2, {"U"}, {y2}),
            "iuz": mutual_information(tz, {"U"}, {z}),
            "ixy1_u": mutual_information(t1, {"X"}, {y1}, {"U"}),
            "ixz": mutual_information(tz, {"X"}, {z}),
            "ixz_u": mutual_information(tz, {"X"}, {z}, {"U"})}


def gauss_constants(K, ch) -> dict:
    """The five quantities for X = U + V with Cov(V) = K and Cov(U) = S - K,
    as half log-det ratios of ten matrices."""
    S, s1, s2, sz = ch.S, ch.Sigma1, ch.Sigma2, ch.SigmaZ
    ratios = {"iuy2": (S + s2, K + s2), "iuz": (S + sz, K + sz), "ixy1_u": (K + s1, s1),
              "ixz": (S + sz, sz), "ixz_u": (K + sz, sz)}
    ld = logdet(np.stack(np.broadcast_arrays(*itertools.chain(*ratios.values()))))
    return {name: 0.5 * (ld[2 * i] - ld[2 * i + 1]) for i, name in enumerate(ratios)}


def mixture_constants(mixes, ch) -> dict:
    """The five quantities of each scalar mixture, from quadrature entropies
    of the whole mixture and of its u-groups: arrays of one value a mixture."""
    _, s1, s2, sz = ch.scalars
    groups, var = [], []
    for m in mixes:
        whole = ((1.0, m.x_points, m.weights),)
        groups += [whole, whole, m.groups(), m.groups(), m.groups()]
        var += [s2, sz, s1, s2, sz]
    h_y2, h_z, h_y1_u, h_y2_u, h_z_u = mixture_entropy(groups, var).reshape(-1, 5).T
    return {"iuy2": h_y2 - h_y2_u, "iuz": h_z - h_z_u,
            "ixy1_u": h_y1_u - 0.5 * math.log(TWO_PI_E * s1),
            "ixz": h_z - 0.5 * math.log(TWO_PI_E * sz),
            "ixz_u": h_z_u - 0.5 * math.log(TWO_PI_E * sz)}
