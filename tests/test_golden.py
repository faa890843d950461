"""Golden seeded outputs: refactors of the fit loop must leave them bitwise unchanged.

Each row is one fit of a canonical graph to its exact ground-truth covariance
(truth seed 3 for napkin, 101 for bow) with ``max_iters=60, restarts=2,
seed=17`` (Adamax at lr 1e-3, SGD at lr 1e-2).  It pins, as ``float.hex``,
the last surrogate loss, the final KL(model || target) and every fitted edge
weight in sorted edge order, plus the iteration count and the stop reason.

The table was generated by running ``fit_row`` below on the commit that
still ran the fit over lists of masked weight matrices (5acab1f), before the
fit loop moved to the flat edge vector, and pasted here as a literal.

The four "v8" rows fit the reduced engine on the first v=8 graph of the
benchmark's random-fit workload (``GenSpec(v=8, l_star=0.5, e_star=0.5,
seed=8)``, truth seed 8): 82 edges, in-degree up to 15, depth 7, where
napkin and bow have in-degree at most 3.  They were generated the same way
on the commit whose reduced engine still summed over (p, q) pairs in scalar
Python (52604e6), before it was vectorized per layer.

The last bits depend on the numerical environment, not only on this code.
The table was generated with Python 3.11.7, numpy 2.4.6 (its bundled
OpenBLAS 0.3.31) and scipy 1.17.1 (its bundled OpenBLAS 0.3.30) on x86_64
Linux, an Intel Xeon with AVX-512 on which OpenBLAS picks its SkylakeX
kernels (``OPENBLAS_VERBOSE=2`` prints the kernel).  Other versions or other
kernels round differently: on the same machine ``OPENBLAS_CORETYPE=Haswell``
changes the bits of 14 of the 24 rows.  A failure here in another
environment is therefore expected; compare that environment first.

``DO_GOLDEN`` pins the interventional law P(effects | do(targets = values))
that ``interventional_dist`` computes at each graph's ground-truth weights
(the truth seeds above): the mean, then the covariance in row-major order, as
``float.hex``.  Its rows were generated by running ``do_row`` below on the
commit that still computed the law on a mutilated copy of the graph
(c094917), before the do-operator moved into ``root_loadings``, in the same
environment as the fit table.  The v8 query was picked because the last bit
of one mean changes when the assigned values' rows are taken by a slice
instead of ``np.ix_``: the two hand the product different memory layouts.
"""

import platform
import warnings

import numpy as np
import pytest
import scipy

from pmdag.generate import GenSpec, canonical, ground_truth, random_pmdag
from pmdag.identify import InterventionQuery, interventional_dist
from pmdag.solver import FitConfig, fit

TRUTH_SEEDS = {"napkin": 3, "bow": 101, "v8": 8}
LEARNING_RATES = {"adamax": 1e-3, "sgd": 1e-2}


def golden_graph(name):
    """A canonical graph, or "v8": GenSpec(v=8, l_star=0.5, e_star=0.5, seed=8)."""
    if name != "v8":
        return canonical(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return random_pmdag(GenSpec(v=8, l_star=0.5, e_star=0.5, seed=8))


def fit_row(name, method, loss, optimizer):
    g = golden_graph(name)
    _, target = ground_truth(g, seed=TRUTH_SEEDS[name])
    config = FitConfig(loss=loss, method=method, optimizer=optimizer,
                       lr=LEARNING_RATES[optimizer], max_iters=60, restarts=2, seed=17)
    params, report = fit(g, target, config)
    weights = tuple(w.hex() for _, w in sorted(params.to_edge_dict(g).items(),
                                                key=lambda item: f"{item[0][0]}->{item[0][1]}"))
    return (float(report.loss_trace[-1]).hex(), report.final_kl_model_target.hex(),
            report.iterations, report.stop_reason, weights)


def do_row(name, targets, values, effects):
    g = golden_graph(name)
    params, _ = ground_truth(g, seed=TRUTH_SEEDS[name])
    dist = interventional_dist(g, params, InterventionQuery(targets, values, effects))
    return (tuple(float(m).hex() for m in dist.mean),
            tuple(float(c).hex() for c in dist.cov.data.ravel()))


GOLDEN = {
    ("bow", "accumulation", "bha", "adamax"): (
        "0x1.17073bd05bc50p+0", "0x1.17386f53dd9a8p-1", 60, "max_iters", (
            "0x1.5e437a4393d4ep+0", "0x1.8f80e79745cccp-1", "-0x1.85b3560cff5e8p-3",
            "0x1.3cc60f4cb81ecp-3", "0x1.757d2d3dc3558p-3",
        )),
    ("bow", "accumulation", "bha", "sgd"): (
        "0x1.b98acac79fab0p-1", "0x1.ce64ebfc33b9ep-3", 60, "max_iters", (
            "0x1.683f836637cc4p+0", "0x1.c8a4ac6e60804p-1", "-0x1.58ef9dd35fe1ep-3",
            "0x1.32d965f226379p-3", "-0x1.0ae32b58623a8p-3",
        )),
    ("bow", "accumulation", "kl", "adamax"): (
        "0x1.aa783cdbd851cp+0", "0x1.15bbd54e1625bp-1", 60, "max_iters", (
            "0x1.45c3460aff89cp+0", "0x1.8e9d4ac2e1879p-1", "-0x1.8286fc95297b6p-3",
            "0x1.3cba7d9155e04p-3", "0x1.7a85bf25007ddp-3",
        )),
    ("bow", "accumulation", "kl", "sgd"): (
        "0x1.74b3e90238c7cp-1", "0x1.2c4c866042104p-4", 60, "max_iters", (
            "0x1.9cfbd0d9d4de8p+0", "0x1.d0a243167a338p-1", "-0x1.b33f85c38d8dbp-3",
            "0x1.65298bb671c0fp-3", "-0x1.73bd5db70aa7ap-2",
        )),
    ("bow", "covariance", "bha", "adamax"): (
        "0x1.17073bd05bc50p+0", "0x1.17386f53dd9a8p-1", 60, "max_iters", (
            "0x1.5e437a4393d4ep+0", "0x1.8f80e79745cccp-1", "-0x1.85b3560cff5e8p-3",
            "0x1.3cc60f4cb81ecp-3", "0x1.757d2d3dc3558p-3",
        )),
    ("bow", "covariance", "bha", "sgd"): (
        "0x1.b98acac79fab0p-1", "0x1.ce64ebfc33b9ep-3", 60, "max_iters", (
            "0x1.683f836637cc4p+0", "0x1.c8a4ac6e60804p-1", "-0x1.58ef9dd35fe1ep-3",
            "0x1.32d965f226379p-3", "-0x1.0ae32b58623a8p-3",
        )),
    ("bow", "covariance", "kl", "adamax"): (
        "0x1.aa783cdbd851cp+0", "0x1.15bbd54e1625bp-1", 60, "max_iters", (
            "0x1.45c3460aff89cp+0", "0x1.8e9d4ac2e1879p-1", "-0x1.8286fc95297b7p-3",
            "0x1.3cba7d9155e06p-3", "0x1.7a85bf25007dcp-3",
        )),
    ("bow", "covariance", "kl", "sgd"): (
        "0x1.74b3e90238c7cp-1", "0x1.2c4c866042104p-4", 60, "max_iters", (
            "0x1.9cfbd0d9d4de8p+0", "0x1.d0a243167a338p-1", "-0x1.b33f85c38d8dbp-3",
            "0x1.65298bb671c0fp-3", "-0x1.73bd5db70aa7ap-2",
        )),
    ("bow", "reduced", "bha", "adamax"): (
        "0x1.17073bd05bc51p+0", "0x1.17386f53dd9a8p-1", 60, "max_iters", (
            "0x1.5e437a4393d4ep+0", "0x1.8f80e79745cccp-1", "-0x1.85b3560cff5e8p-3",
            "0x1.3cc60f4cb81edp-3", "0x1.757d2d3dc3557p-3",
        )),
    ("bow", "reduced", "bha", "sgd"): (
        "0x1.b98acac79fab0p-1", "0x1.ce64ebfc33b9ep-3", 60, "max_iters", (
            "0x1.683f836637cc4p+0", "0x1.c8a4ac6e60804p-1", "-0x1.58ef9dd35fe1ep-3",
            "0x1.32d965f226379p-3", "-0x1.0ae32b58623a8p-3",
        )),
    ("bow", "reduced", "kl", "adamax"): (
        "0x1.aa783cdbd851cp+0", "0x1.15bbd54e1625bp-1", 60, "max_iters", (
            "0x1.45c3460aff89cp+0", "0x1.8e9d4ac2e1878p-1", "-0x1.8286fc95297b7p-3",
            "0x1.3cba7d9155e03p-3", "0x1.7a85bf25007dcp-3",
        )),
    ("bow", "reduced", "kl", "sgd"): (
        "0x1.74b3e90238c7ap-1", "0x1.2c4c866042108p-4", 60, "max_iters", (
            "0x1.9cfbd0d9d4de8p+0", "0x1.d0a243167a338p-1", "-0x1.b33f85c38d8dap-3",
            "0x1.65298bb671c13p-3", "-0x1.73bd5db70aa7bp-2",
        )),
    ("napkin", "accumulation", "bha", "adamax"): (
        "0x1.5446e94de4c52p+2", "0x1.ca438053c3169p+2", 60, "max_iters", (
            "-0x1.4f6b540dc0849p-2", "-0x1.b9404f642a67cp-1", "-0x1.16a865309b215p+0",
            "0x1.0e6e16238b598p+0", "0x1.29539de554562p-4", "0x1.400128c06e722p+0",
            "0x1.dd5a9ea5420e3p-1", "-0x1.42d7292a8ad40p-1", "-0x1.cfab559f9fe3bp+0",
            "0x1.7ed94dbddd08ap-1", "0x1.7d4cdf5903316p-1",
        )),
    ("napkin", "accumulation", "bha", "sgd"): (
        "0x1.b4a4b9ced2702p+1", "0x1.9443335281b2ap+0", 60, "max_iters", (
            "-0x1.a8fa2d0e05bb6p-1", "-0x1.d3de254834b07p-1", "-0x1.36e354bd941fcp+0",
            "0x1.14e14ee5a75cdp+0", "0x1.08e6208ce352ap-3", "0x1.353a186b2cdf2p+0",
            "0x1.cd366ed0c9d73p-1", "-0x1.3148107a58c5cp-1", "-0x1.de9eb263194bap+0",
            "-0x1.c8a414595a7bap-5", "0x1.8bcc63fd2135cp-1",
        )),
    ("napkin", "accumulation", "kl", "adamax"): (
        "0x1.ab2a0512c8cf8p+3", "0x1.ccbb65245e774p+2", 60, "max_iters", (
            "-0x1.4d2fd4bd7a8c5p-2", "-0x1.ba79fe8bdf9cbp-1", "-0x1.17014e87519e1p+0",
            "0x1.0e7c2563d12d9p+0", "0x1.390c439a08cf1p-4", "0x1.4071a7e75c77bp+0",
            "0x1.a25671cf3b522p-1", "-0x1.443a439641c10p-1", "-0x1.cfdcc1037b426p+0",
            "0x1.7fcd4f22866e3p-1", "0x1.7e2deb1f5cc0dp-1",
        )),
    ("napkin", "accumulation", "kl", "sgd"): (
        "-0x1.1ba8dad3eb930p-3", "0x1.e408dd80d6f08p-2", 60, "max_iters", (
            "-0x1.20f10426acb79p-1", "-0x1.24059329737b7p+0", "-0x1.6e9017be136f8p+0",
            "0x1.30c41ccf47080p+0", "0x1.53b077193b0e7p-3", "0x1.5009273d65c6cp+0",
            "0x1.bc6acd53f3960p-1", "-0x1.1a6347868f94dp-1", "-0x1.02942b698b6f2p+1",
            "-0x1.d6ac9366c999ap-2", "0x1.6932ac9ab469ep-1",
        )),
    ("napkin", "covariance", "bha", "adamax"): (
        "0x1.5446e94de4c4ep+2", "0x1.ca438053c3168p+2", 60, "max_iters", (
            "-0x1.4f6b540dc0848p-2", "-0x1.b9404f642a67dp-1", "-0x1.16a865309b215p+0",
            "0x1.0e6e16238b598p+0", "0x1.29539de554548p-4", "0x1.400128c06e721p+0",
            "0x1.dd5a9ea5420e3p-1", "-0x1.42d7292a8ad3fp-1", "-0x1.cfab559f9fe3bp+0",
            "0x1.7ed94dbddd089p-1", "0x1.7d4cdf5903319p-1",
        )),
    ("napkin", "covariance", "bha", "sgd"): (
        "0x1.b4a4b9ced2700p+1", "0x1.9443335281b26p+0", 60, "max_iters", (
            "-0x1.a8fa2d0e05bb5p-1", "-0x1.d3de254834b08p-1", "-0x1.36e354bd941fcp+0",
            "0x1.14e14ee5a75cdp+0", "0x1.08e6208ce352bp-3", "0x1.353a186b2cdf4p+0",
            "0x1.cd366ed0c9d72p-1", "-0x1.3148107a58c5dp-1", "-0x1.de9eb263194bap+0",
            "-0x1.c8a414595a800p-5", "0x1.8bcc63fd2135cp-1",
        )),
    ("napkin", "covariance", "kl", "adamax"): (
        "0x1.ab2a0512c8cf9p+3", "0x1.ccbb65245e774p+2", 60, "max_iters", (
            "-0x1.4d2fd4bd7a8c4p-2", "-0x1.ba79fe8bdf9cbp-1", "-0x1.17014e87519e1p+0",
            "0x1.0e7c2563d12d9p+0", "0x1.390c439a08cf0p-4", "0x1.4071a7e75c77bp+0",
            "0x1.a25671cf3b522p-1", "-0x1.443a439641c10p-1", "-0x1.cfdcc1037b426p+0",
            "0x1.7fcd4f22866e3p-1", "0x1.7e2deb1f5cc0dp-1",
        )),
    ("napkin", "covariance", "kl", "sgd"): (
        "-0x1.1ba8dad3eb940p-3", "0x1.e408dd80d6f10p-2", 60, "max_iters", (
            "-0x1.20f10426acb79p-1", "-0x1.24059329737b8p+0", "-0x1.6e9017be136f8p+0",
            "0x1.30c41ccf47080p+0", "0x1.53b077193b0e6p-3", "0x1.5009273d65c6ap+0",
            "0x1.bc6acd53f3961p-1", "-0x1.1a6347868f94cp-1", "-0x1.02942b698b6f2p+1",
            "-0x1.d6ac9366c999ap-2", "0x1.6932ac9ab469ep-1",
        )),
    ("napkin", "reduced", "bha", "adamax"): (
        "0x1.5446e94de4c53p+2", "0x1.ca438053c3168p+2", 60, "max_iters", (
            "-0x1.4f6b540dc0849p-2", "-0x1.b9404f642a67bp-1", "-0x1.16a865309b215p+0",
            "0x1.0e6e16238b598p+0", "0x1.29539de554557p-4", "0x1.400128c06e722p+0",
            "0x1.dd5a9ea5420e3p-1", "-0x1.42d7292a8ad41p-1", "-0x1.cfab559f9fe3bp+0",
            "0x1.7ed94dbddd089p-1", "0x1.7d4cdf5903315p-1",
        )),
    ("napkin", "reduced", "bha", "sgd"): (
        "0x1.b4a4b9ced2700p+1", "0x1.9443335281b22p+0", 60, "max_iters", (
            "-0x1.a8fa2d0e05bb6p-1", "-0x1.d3de254834b0ap-1", "-0x1.36e354bd941fcp+0",
            "0x1.14e14ee5a75cdp+0", "0x1.08e6208ce352bp-3", "0x1.353a186b2cdf3p+0",
            "0x1.cd366ed0c9d74p-1", "-0x1.3148107a58c5ep-1", "-0x1.de9eb263194bap+0",
            "-0x1.c8a414595a7fap-5", "0x1.8bcc63fd2135cp-1",
        )),
    ("napkin", "reduced", "kl", "adamax"): (
        "0x1.ab2a0512c8cf9p+3", "0x1.ccbb65245e774p+2", 60, "max_iters", (
            "-0x1.4d2fd4bd7a8c3p-2", "-0x1.ba79fe8bdf9cbp-1", "-0x1.17014e87519e1p+0",
            "0x1.0e7c2563d12d9p+0", "0x1.390c439a08cf0p-4", "0x1.4071a7e75c77bp+0",
            "0x1.a25671cf3b522p-1", "-0x1.443a439641c10p-1", "-0x1.cfdcc1037b426p+0",
            "0x1.7fcd4f22866e3p-1", "0x1.7e2deb1f5cc0dp-1",
        )),
    ("napkin", "reduced", "kl", "sgd"): (
        "-0x1.1ba8dad3eb930p-3", "0x1.e408dd80d6f08p-2", 60, "max_iters", (
            "-0x1.20f10426acb7ap-1", "-0x1.24059329737b7p+0", "-0x1.6e9017be136f9p+0",
            "0x1.30c41ccf47080p+0", "0x1.53b077193b0e7p-3", "0x1.5009273d65c6dp+0",
            "0x1.bc6acd53f3961p-1", "-0x1.1a6347868f94cp-1", "-0x1.02942b698b6f2p+1",
            "-0x1.d6ac9366c999bp-2", "0x1.6932ac9ab469ep-1",
        )),
    ('v8', 'reduced', 'bha', 'adamax'): (
        '0x1.97b68eee823ecp+3', '0x1.a012f33346c9cp+5', 60, 'max_iters', (
            '-0x1.184777902e9d3p-2', '-0x1.668009a261511p+0', '-0x1.9eda47f1b3f28p+0',
            '0x1.cfc534501e989p+0', '-0x1.523e0f0d41d8fp+1', '-0x1.6bca07f4ad926p+0',
            '-0x1.659a0a4588c49p-1', '0x1.842a1efe2e7a5p+0', '-0x1.6f1821743cafep-1',
            '-0x1.b903983873177p+0', '0x1.a3f8d7eaa73b8p+0', '-0x1.acd61647ce64fp-1',
            '-0x1.8592bb89273dep-2', '0x1.37b221cbb5f94p+0', '0x1.be1c053601f12p+0',
            '0x1.404ede642fe50p-1', '-0x1.dd8d3700aade9p-3', '-0x1.fc2c984bbb6d3p-5',
            '-0x1.550ac08153d16p-2', '0x1.bcd77d633d444p+0', '-0x1.98c9d51db7a9ap-2',
            '-0x1.dc7b2b0497bc1p-3', '-0x1.68ce58f6f8261p+0', '0x1.44b4694430c28p-1',
            '0x1.14de78ef5b7bep+1', '0x1.1200b90ae011fp+0', '0x1.5b5e4e2d4af4ep-1',
            '-0x1.c951e3265f8d5p-3', '0x1.14fc277de54abp+1', '-0x1.24e0ee5ed828bp+0',
            '-0x1.3ed615ee0ebd6p-1', '-0x1.60dc9496fdcefp+0', '-0x1.0995d50d21a8ap+1',
            '-0x1.8186961e98ad2p-7', '0x1.64a3bc6e87e59p+0', '-0x1.78162fa7c9f5cp-1',
            '0x1.22c7207f18760p-2', '-0x1.d42662d77a7e1p-1', '-0x1.8ada6b65d5175p-3',
            '-0x1.5958801f7bf1ep+0', '-0x1.6849955b349dap+0', '-0x1.3a0886a565c1bp+0',
            '-0x1.52462c5b76077p-1', '0x1.1dbdd5de52f60p-2', '-0x1.c0bc481a02d61p+0',
            '0x1.5fc1a85f75d40p-2', '0x1.7208b790ff525p+0', '0x1.28cc98bfc354dp-1',
            '-0x1.258bb2f413c7ap+0', '-0x1.f73707b758930p-1', '0x1.949d569b2107cp-1',
            '-0x1.5abcb108ac79dp-1', '0x1.4270a397ddd61p+0', '0x1.50f9fec05cab5p-2',
            '-0x1.09cc6bca2509fp+1', '0x1.e7923c554d7d3p-7', '-0x1.ff4aaebee0c3cp-2',
            '0x1.3c316a85d221bp-1', '-0x1.2b271d10ccafap+0', '0x1.14f4d6fa9904ap-1',
            '0x1.46fb328bb53c5p-2', '0x1.73499af607cddp-4', '-0x1.10a1ef851a245p-1',
            '0x1.4ac7906bc9117p+0', '-0x1.b8aa972841f42p+0', '0x1.7af59a71b11fap-2',
            '0x1.e514fdb1e29ddp-2', '-0x1.4dc610aeaf162p+0', '0x1.9183d994c7f10p+0',
            '0x1.3737d5f3c324fp-1', '0x1.4d81d5cc335b3p-1', '-0x1.593d6826a1a76p+0',
            '0x1.4f9e4e8c686efp-7', '0x1.16e44683de995p-1', '-0x1.9ab1104eb620bp-2',
            '0x1.902494220c89dp-2', '0x1.1ab0c98bfa411p+0', '0x1.88afc2bca53d8p+0',
            '0x1.1cc164570995ap-1', '0x1.04133977e86a1p-6', '0x1.375e65d054116p-2',
            '-0x1.92dc39861181ap-1',
        )),
    ('v8', 'reduced', 'bha', 'sgd'): (
        '0x1.92ba66d3a31d2p+3', '0x1.81854308f47e1p+4', 60, 'max_iters', (
            '0x1.46872fc745a00p-2', '-0x1.4db1317cf7882p-2', '0x1.0669efdb7c2a7p+1',
            '0x1.abe021ec273abp-1', '-0x1.dffb92e62a4ecp-4', '0x1.173feb6f4ac63p-1',
            '-0x1.07ae683f96001p-3', '-0x1.5a35fd7fca370p-1', '-0x1.9d20257a57514p+0',
            '0x1.b44ae1390652dp-5', '0x1.68292da87c43ep-1', '0x1.b5c8272b4e513p-2',
            '-0x1.123a5939616c2p-1', '0x1.0014f41d0f71ep-3', '0x1.ffad18c504007p-2',
            '0x1.6acd6c610594fp-1', '0x1.0fc518bb8f5c0p-3', '0x1.5bf974b0b99c3p-5',
            '0x1.6155d6dab0087p+0', '-0x1.6846d67ff56a4p-1', '0x1.37bf8d64b4af8p-1',
            '-0x1.3a8dfe5c95a11p-1', '-0x1.7e7d6e2b96fa4p+0', '0x1.e951003f406f5p-2',
            '0x1.d0c7c29120861p-1', '-0x1.810e1e40f5db9p-2', '0x1.2e876bf96b2b7p-3',
            '0x1.91a527adc5944p-1', '-0x1.49e361862624cp+0', '0x1.6ed0d1351d334p-1',
            '-0x1.7cc19e49516c0p+0', '-0x1.de6e9b110aca5p-1', '0x1.35cd193b0afecp-1',
            '-0x1.1fa54a06ec69ap-2', '0x1.c521d890cde4ep-2', '-0x1.47b6e6f9a5693p-1',
            '0x1.7684816e21efbp-3', '0x1.ddef2e0201498p-3', '0x1.4858993511c12p-1',
            '0x1.a04640c8153f6p-1', '0x1.f6776154f9fbbp-1', '-0x1.131442b7798dfp+0',
            '-0x1.84a727ff41a6bp-1', '-0x1.a0242c748cee1p+0', '0x1.86e1a248c09ebp-1',
            '0x1.aa980755f55b0p-2', '0x1.40428a01bff8dp-1', '0x1.5036cf46b81f2p-6',
            '-0x1.68c8966cb572dp-6', '-0x1.5fd4600afb56cp-1', '-0x1.59ae7a29b25f1p+1',
            '0x1.55c35bde7120bp+0', '0x1.49333b45be64cp-1', '-0x1.2a8e36902088cp-3',
            '0x1.88f2924676432p-5', '-0x1.50d6b1ab251ffp+0', '0x1.746982dba5357p-1',
            '0x1.0979d49d7954dp+0', '-0x1.9824e179e1851p+0', '-0x1.b165df73155abp+0',
            '-0x1.83f15c0b8822ap-2', '-0x1.7658b4c13478fp-5', '-0x1.de1c7ea3b42b7p-1',
            '0x1.a386edab90407p-1', '-0x1.a5f1dbb7a9e1dp-2', '0x1.de7dbad1331eap+0',
            '0x1.96e8bad31b431p-3', '-0x1.9cd0ba8c83e71p+0', '-0x1.a229cff520417p+0',
            '-0x1.eecd5255de27cp-6', '0x1.31d8ce6636d20p-3', '0x1.184cbeb060da4p-1',
            '0x1.aae7797d0b61dp-1', '0x1.fd4ebdeed5858p-3', '-0x1.0dba1607b506bp-2',
            '0x1.ebf5b14d1bd6cp-2', '-0x1.8e2039bc15e8cp-1', '0x1.4cf18e89da453p+0',
            '-0x1.39aaa5b5e6ea6p-4', '0x1.a378f14c67fe7p-3', '0x1.c587af3520fe2p-1',
            '0x1.06379af30ec85p+0',
        )),
    ('v8', 'reduced', 'kl', 'adamax'): (
        '0x1.6bbfb914c8cd0p+6', '0x1.8af9debfac0d5p+5', 60, 'max_iters', (
            '-0x1.1dc9a769b3a46p-2', '-0x1.678a3cf371719p+0', '-0x1.9d54b30813edap+0',
            '0x1.ce8801fd9b143p+0', '-0x1.44d1c5000bfb9p+1', '-0x1.6ba5aa5f890d6p+0',
            '-0x1.6cb7dde849ff0p-1', '0x1.821a84d977ff1p+0', '-0x1.6f32fcf9727f0p-1',
            '-0x1.9ce5effbfd8c6p+0', '0x1.a42f6b994a2b5p+0', '-0x1.adb75ce52f981p-1',
            '-0x1.81a8422b5deffp-2', '0x1.3764f3c38acb8p+0', '0x1.9fad575f19869p+0',
            '0x1.07119c23cab48p-1', '-0x1.c7f51bfb51061p-3', '-0x1.f0256f46fcdafp-5',
            '-0x1.4f3249b640272p-2', '0x1.9fadebd6eeb6fp+0', '-0x1.9258544458803p-2',
            '-0x1.1dc10333364eep-2', '-0x1.68bc768fa9847p+0', '0x1.450f4a0585b78p-1',
            '0x1.05b1db94ffa05p+1', '0x1.f7013d662f988p-1', '0x1.562d43b1db139p-1',
            '-0x1.b581c997fb460p-3', '0x1.14fafd12c30dfp+1', '-0x1.083d57bee5849p+0',
            '-0x1.41cb4932f5fb2p-1', '-0x1.5f3694286f13dp+0', '-0x1.f710cd86db277p+0',
            '0x1.55083022a7a5dp-4', '0x1.651f7779a1f06p+0', '-0x1.3ca45465d3594p-1',
            '0x1.154f9d5310067p-2', '-0x1.9e06da6a981d7p-1', '-0x1.39d6eca459d29p-2',
            '-0x1.5a1c5b60a59efp+0', '-0x1.69a8e3ff59bbdp+0', '-0x1.1c5373a1da76bp+0',
            '-0x1.545def75f88f9p-1', '0x1.24350ecba6dc4p-2', '-0x1.bf7383fd9aa75p+0',
            '0x1.65f5bfc2dacddp-2', '0x1.8e417d19c6f27p+0', '0x1.e73e83b516138p-2',
            '-0x1.23f57f7ffd224p+0', '-0x1.fa0d1fcf1fba3p-1', '0x1.9135f3c4d5efdp-1',
            '-0x1.21a0f7d92dd03p-1', '0x1.44359be93598ap+0', '0x1.49f5893e61d48p-2',
            '-0x1.f91bb2238f627p+0', '0x1.ee1c4a8c4c4eep-7', '-0x1.fe1f09acde572p-2',
            '0x1.3e2c0d15f07fdp-1', '-0x1.0e14269bab1f9p+0', '0x1.15d9d7f45a403p-1',
            '0x1.3cb92c95e8837p-2', '0x1.5ef402f364546p-4', '-0x1.b84b607a27faap-2',
            '0x1.4b3c142aa2abfp+0', '-0x1.b683b987b3f46p+0', '0x1.7cde855117f4dp-2',
            '0x1.29cdac318ef6cp-1', '-0x1.4b78f97ebbe16p+0', '0x1.935714370c8dap+0',
            '0x1.3b9b23e9d3dcfp-1', '0x1.4a91ac8dcc826p-1', '-0x1.57713fc0770d0p+0',
            '0x1.17319e6786457p-6', '0x1.1a49d095c39cdp-1', '-0x1.a4b872b110e42p-2',
            '0x1.96f3e9a5bfd6ep-2', '0x1.191d8b30c5222p+0', '0x1.8aec7cfdc528dp+0',
            '0x1.1ee41817ee578p-1', '0x1.72a7050a8f675p-6', '0x1.3cc641faf9f11p-2',
            '-0x1.5a474227d73ecp-1',
        )),
    ('v8', 'reduced', 'kl', 'sgd'): (
        '-0x1.0bac72879fef6p+2', '0x1.0887e22baa016p+1', 60, 'max_iters', (
            '0x1.842e1c44f9c2fp-2', '-0x1.9862d963e90f8p-2', '0x1.69cb3d3725f8cp+0',
            '0x1.73fcc07b60f1ap-1', '-0x1.df333bc58adb9p-4', '0x1.11c9a881bbb81p-1',
            '-0x1.f5af48d1dce05p-5', '-0x1.3bc03b4716fa8p-1', '-0x1.5c34a04a03fabp+0',
            '0x1.06de8761a2b97p-1', '-0x1.cf15cb1370a2fp-3', '0x1.c91f613b8d326p-2',
            '-0x1.8aa2966370108p-2', '-0x1.07421020d896bp-7', '0x1.3b46a6698eb5ep-2',
            '0x1.572b10221475fp-1', '0x1.fb5d73246e1eep-5', '0x1.6b1399a9c5d03p-3',
            '0x1.3b4eb781e94e0p+0', '-0x1.398f47a861a4ap-1', '0x1.a4da15a405bd4p-2',
            '-0x1.2783068ac3977p+0', '-0x1.7b6a5ed20d7a7p-1', '0x1.0952f5ea35e4ap-1',
            '0x1.74356f4b0545cp-1', '-0x1.6545dddb5e33cp-4', '-0x1.67178e15dd50fp-5',
            '0x1.5046633ee04b3p-1', '-0x1.2f45ef50e516cp-1', '0x1.8dd83a7c62f2ep-1',
            '-0x1.01315149510e6p+0', '-0x1.d94c6f21f7116p-1', '0x1.4da1d45e5c1f8p-1',
            '-0x1.9f3479bb36973p-3', '0x1.b49861228c7a1p-2', '-0x1.46805ed2b501cp-1',
            '0x1.06cefa42a1224p-3', '0x1.5df5b22612ecbp-5', '0x1.7e64912ca3476p-1',
            '0x1.780ec1baffe94p-1', '0x1.5e3708584dadep-1', '-0x1.6ee8442c95788p-1',
            '-0x1.17ad1c9705e22p-2', '-0x1.adffa952c83c9p+0', '0x1.2131ac86ee07dp-1',
            '0x1.735243266eb2fp-2', '0x1.b3d9ce06cca5cp-1', '-0x1.91a56d44da16dp-2',
            '0x1.41b03227f5267p-5', '-0x1.0a67005ccadcbp-2', '-0x1.451edc872888bp+1',
            '0x1.b2bc6e4e56deep+0', '-0x1.d9825a88078bep-4', '0x1.922b983c6deacp-4',
            '0x1.6996db82359edp-4', '-0x1.859bbc07f4d67p+0', '0x1.c6e958a42341ap-2',
            '0x1.1fef6896e1e25p+0', '-0x1.a9df49dc67c3fp+0', '-0x1.804e27a3255dcp+0',
            '-0x1.c8c63b507f425p-4', '0x1.f9fa5c4a728a4p-6', '-0x1.4d52709c9bc3bp-2',
            '0x1.2ebe6a1efe691p+0', '-0x1.7f3813b419467p-2', '0x1.6424f561f14a8p+0',
            '0x1.2bc24c9bf7711p-1', '-0x1.b4a4537588307p+0', '-0x1.6e453cc35d67bp+0',
            '-0x1.e1372358c1e8ep-2', '0x1.a0c33f5d5aa8cp-1', '0x1.f46f163f42330p-3',
            '-0x1.5a0a6ce22fadfp-5', '-0x1.046ced8e485e3p-1', '0x1.9dc02c71c52f2p-2',
            '0x1.2ce82678f33d6p-4', '0x1.3a2bb458890c4p-2', '0x1.051f620593290p-1',
            '-0x1.e8656f3843cfap-2', '0x1.60a552efbc113p-2', '0x1.58949e6f9cff3p-1',
            '0x1.746ca3c0ec3a5p-3',
        )),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="/".join)
def test_seeded_fit_is_bitwise_unchanged(case):
    assert fit_row(*case) == GOLDEN[case], (
        "generated with numpy 2.4.6, scipy 1.17.1 and OpenBLAS SkylakeX kernels on x86_64; "
        f"running numpy {np.__version__}, scipy {scipy.__version__} on {platform.machine()}")


DO_GOLDEN = {
    ("napkin", ("X",), (1.5,), ("Y", "W")): (
        (
            "0x1.5acee8ae21930p-2", "0x0.0p+0",
        ), (
            "0x1.794f36511cfefp+3", "0x1.1b086e6b6d6b0p+1", "0x1.1b086e6b6d6b0p+1",
            "0x1.5be3fe60d69f9p+3",
        )),
    ("bow", ("X",), (-0.7,), ("Y",)): (
        (
            "0x1.bbf78d11998b5p-3",
        ), (
            "0x1.d5fd31c4e4c12p-1",
        )),
    ("v8", ("V5", "V0"), (1.35, -1.68), ("V6", "V7", "V2", "V0", "V4")): (
        (
            "0x0.0p+0", "0x0.0p+0", "0x1.5ec700debadbap+0", "-0x1.ae147ae147ae1p+0",
            "0x1.402f9703b27c6p-2",
        ), (
            "0x1.c91d7c7da9794p+2", "-0x1.1b7697d18536dp+2", "0x1.5c859f99f0e99p+3", "0x0.0p+0",
            "0x1.fad883104ef8ep+3", "-0x1.1b7697d18536dp+2", "0x1.226af89a319d4p+4",
            "-0x1.5eb6277fffef3p+5", "0x0.0p+0", "-0x1.8d4fa082c9613p+2", "0x1.5c859f99f0e99p+3",
            "-0x1.5eb6277fffef3p+5", "0x1.11a16ca5d2bf9p+7", "0x0.0p+0", "0x1.cc1f2c319b69dp+3",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.fad883104ef8ep+3",
            "-0x1.8d4fa082c9613p+2", "0x1.cc1f2c319b69dp+3", "0x0.0p+0", "0x1.396210338982ep+5",
        )),
}


@pytest.mark.parametrize("case", sorted(DO_GOLDEN), ids=lambda case: case[0])
def test_interventional_law_is_bitwise_unchanged(case):
    assert do_row(*case) == DO_GOLDEN[case], (
        "generated with numpy 2.4.6, scipy 1.17.1 and OpenBLAS SkylakeX kernels on x86_64; "
        f"running numpy {np.__version__}, scipy {scipy.__version__} on {platform.machine()}")
