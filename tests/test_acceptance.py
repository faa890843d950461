"""End-to-end acceptance suite.

One test per acceptance criterion, each printing an ``ACCEPTANCE n: PASS``
line on success (run with ``pytest -s`` to see them).  The literal
unsaturation target in criterion 5 is mathematically not a covariance matrix
(it has a negative eigenvalue); that test fails by design and is documented
in its docstring, with the substantive claim covered by the companion test
that follows it.
"""

import math
import warnings

import numpy as np

from pmdag.bench import bench
from pmdag.gauss import CovMatrix, loss_kernel
from pmdag.generate import (
    IDENTIFIABLE_CANONICAL,
    NON_IDENTIFIABLE_CANONICAL,
    GenSpec,
    canonical,
    edge_budget,
    ground_truth,
    latent_count,
    random_pmdag,
)
from pmdag.graph import validate
from pmdag.identify import (
    NOT_IDENTIFIABLE,
    PRESUMED_IDENTIFIABLE,
    InterventionQuery,
    identify,
)
from pmdag.solver import (
    ENGINES,
    AllocationCounter,
    FitConfig,
    backward_reduced,
    edge_weight_map,
    fit,
    forward_reduced,
    init_weights,
    joint_cov,
    layered_entry_count,
    visible_positions,
)
from pmdag.sync import build_masks, synchronize

from conftest import demote_one_visible, random_params, theta_from_params

DO_X_ON_Y = InterventionQuery(("X",), (0.0,), ("Y",))


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def small_random_graph(rng, max_nodes=10):
    while True:
        v = int(rng.integers(2, 5))
        l_star = float(rng.uniform(0.0, 0.6))
        if v + latent_count(v, l_star) > max_nodes:
            continue
        spec = GenSpec(v=v, l_star=l_star, e_star=float(rng.uniform(0.2, 1.0)),
                       seed=int(rng.integers(2**31)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return random_pmdag(spec)


def well_conditioned_instance(rng):
    """Random graph plus weights whose visible covariance is safely invertible."""
    while True:
        g = small_random_graph(rng)
        params = random_params(g, rng)
        vis = g.visible_names
        sigma = joint_cov(g, params).restrict(vis).data
        if np.linalg.eigvalsh(sigma).min() > 1e-3:
            return g, params


def one_confounder_scenario():
    """Three visibles sharing a single latent cause, plus private noises."""
    return validate(
        [("P", "latent"), ("E1", "latent"), ("E2", "latent"), ("E3", "latent"),
         ("X", "visible"), ("Y", "visible"), ("Z", "visible")],
        [("P", "X"), ("P", "Y"), ("P", "Z"), ("E1", "X"), ("E2", "Y"), ("E3", "Z")],
    )


def correlation_target(r_xy, r_xz, r_yz):
    return CovMatrix(("X", "Y", "Z"),
                     [[1.0, r_xy, r_xz], [r_xy, 1.0, r_yz], [r_xz, r_yz, 1.0]])


def test_criterion_1_gradient_oracle():
    """Analytic gradients match central finite differences for both losses."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    checked = 0
    for _ in range(100):
        g, params = well_conditioned_instance(rng)
        sync = synchronize(g)
        engine = ENGINES["covariance"](sync, build_masks(sync))
        theta = theta_from_params(sync, params)
        n_target = len(g.visible_names)
        raw = rng.standard_normal((n_target + 2, n_target))
        target = raw.T @ raw / (n_target + 2) + 0.5 * np.eye(n_target)

        def loss(t, kind):
            return loss_kernel(kind, engine.forward(t)[0], target)[0]

        for kind in ("kl", "bha"):
            sv, ctx = engine.forward(theta)
            grads = engine.backward(ctx, loss_kernel(kind, sv, target)[1])
            h = 1e-6
            for k in range(theta.size):
                step = np.zeros_like(theta)
                step[k] = h
                fd = (loss(theta + step, kind) - loss(theta - step, kind)) / (2 * h)
                an = grads[k]
                rel = abs(an - fd) / max(1.0, abs(an), abs(fd))
                worst = max(worst, rel)
                checked += 1
    assert worst < 1e-5
    report("1", f"{checked} gradients on 100 graphs, worst relative error {worst:.2e}")


def test_criterion_2_method_equivalence():
    """Covariance, accumulation, and reduced agree on outputs and gradients."""
    rng = np.random.default_rng(1002)
    worst_sigma = 0.0
    worst_grad = 0.0
    for _ in range(100):
        g, params = well_conditioned_instance(rng)
        sync = synchronize(g)
        masks = build_masks(sync)
        theta = theta_from_params(sync, params)
        engines = {method: bind(sync, masks) for method, bind in ENGINES.items()}
        forwards = {method: engine.forward(theta) for method, engine in engines.items()}
        s_cov = forwards["covariance"][0]
        worst_sigma = max(worst_sigma,
                          float(np.abs(forwards["accumulation"][0] - s_cov).max()),
                          float(np.abs(forwards["reduced"][0] - s_cov).max()))

        n = len(sync.layers[-1])
        raw = rng.standard_normal((n, n))
        vis = visible_positions(sync)
        seed_vis = ((raw + raw.T) / 2)[np.ix_(vis, vis)]
        grads = {method: engine.backward(forwards[method][1], seed_vis) for method, engine in engines.items()}
        ref = grads["covariance"]
        worst_grad = max(worst_grad,
                         float(np.abs(grads["accumulation"] - ref).max(initial=0.0)),
                         float(np.abs(grads["reduced"] - ref).max(initial=0.0)))
    assert worst_sigma <= 1e-10
    assert worst_grad <= 1e-10
    report("2", f"100 instances, max covariance diff {worst_sigma:.2e}, "
                f"max gradient diff {worst_grad:.2e}")


def test_criterion_3_exogenization_stability():
    """Folding out a non-root latent leaves the joint covariance unchanged."""
    from pmdag.graph import exogenize_params

    rng = np.random.default_rng(1003)
    done = 0
    worst = 0.0
    while done < 50:
        g = small_random_graph(rng)
        demoted = demote_one_visible(g, rng)
        if demoted is None:
            continue
        g2, latent = demoted
        params = random_params(g2, rng)
        out, new_params = exogenize_params(g2, params, latent)
        keep = [n for n in g2.names if n != latent]
        before = joint_cov(g2, params).restrict(keep).data
        after = joint_cov(out, new_params).restrict(keep).data
        worst = max(worst, float(np.abs(after - before).max()))
        done += 1
    assert worst <= 1e-12
    report("3", f"50 instances, max covariance drift {worst:.2e}")


def saturating_graph():
    """Three roots covering three visibles in a staircase pattern."""
    return validate(
        [("A", "latent"), ("B", "latent"), ("C", "latent"),
         ("X", "visible"), ("Y", "visible"), ("Z", "visible")],
        [("A", "X"), ("A", "Y"), ("A", "Z"), ("B", "Y"), ("B", "Z"), ("C", "X")],
        strict=True,
    )


def test_criterion_4_saturation():
    """The staircase three-root graph reaches every SPD 3x3 target."""
    g = saturating_graph()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for k in range(20):
        raw = rng.standard_normal((6, 3))
        target = CovMatrix(("X", "Y", "Z"), raw.T @ raw / 6 + 0.3 * np.eye(3))
        _, rep = fit(g, target, FitConfig(max_iters=12000, restarts=10, kl_tol=1e-6, seed=k))
        worst = max(worst, rep.final_kl_model_target)
        assert rep.final_kl_model_target <= 1e-6, f"target {k}"
    report("4", f"20 random SPD targets, worst KL {worst:.2e}")


def test_criterion_5_unsaturation_literal_target():
    """EXPECTED FAILURE: the stated target is not a covariance matrix.

    The correlation triple (0.9, 0.9, -0.9) gives the matrix eigenvalues
    {1.9, 1.9, -0.8}; no Gaussian distribution has it, and the fit rejects it
    at construction.  The assertion below is kept faithful to the stated
    criterion instead of being reworked to pass; the companion test right
    after carries the substantive claim with the same sign structure at a
    positive-definite magnitude.
    """
    g = one_confounder_scenario()
    target = correlation_target(0.9, 0.9, -0.9)
    _, rep = fit(g, target, FitConfig(max_iters=12000, restarts=20, seed=1005))
    assert rep.final_kl_model_target >= 0.05
    report("5 (literal)", "unreachable")


def test_criterion_5_unsaturation_feasible_sign_structure():
    """A single shared confounder cannot produce a negative correlation product.

    The (0.45, 0.45, -0.45) correlation matrix is positive definite (smallest
    eigenvalue 0.1) yet its correlation product is negative, which the
    one-confounder scenario cannot induce; a dense multi-start numeric search
    over the six model parameters puts the minimum reachable KL at 0.553, so
    the 0.05 floor has a tenfold margin.
    """
    literal = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    assert np.linalg.eigvalsh(literal).min() < -0.7  # the literal triple is infeasible

    g = one_confounder_scenario()
    target = correlation_target(0.45, 0.45, -0.45)
    _, rep = fit(g, target, FitConfig(max_iters=12000, restarts=20, seed=1005))
    assert not rep.converged
    assert rep.final_kl_model_target >= 0.05
    report("5 (companion)", f"residual KL {rep.final_kl_model_target:.3f} "
                            f">= 0.05 across 20 restarts")


# one ground truth per canonical graph; the instrument draw keeps |w_ZX| >= 0.5
TRUTH_SEEDS = {
    "backdoor": 3, "frontdoor": 3, "m": 3, "napkin": 3, "iv": 1,
    "bow": 101, "extended_bow": 101, "bad_m": 5,
}
FIG9_FIT = dict(max_iters=12000, lr=1e-3, optimizer="adamax", restarts=3)


def test_criterion_6a_canonical_fits_reach_threshold():
    """Every canonical graph fits its exact ground-truth covariance to KL <= 1e-5."""
    results = {}
    for name, truth_seed in TRUTH_SEEDS.items():
        g = canonical(name)
        truth, target = ground_truth(g, seed=truth_seed)
        if name == "iv":
            assert abs(truth.edge_weight(g, "Z", "X")) >= 0.5
        _, rep = fit(g, target, FitConfig(seed=17, **FIG9_FIT))
        results[name] = rep.final_kl_model_target
        assert rep.final_kl_model_target <= 1e-5, name
    worst = max(results.values())
    report("6a", f"all 8 canonical fits reached KL <= 1e-5 (worst {worst:.2e})")


def test_criterion_6b_identifiable_graphs_agree():
    """Identifiable graphs: ten refits agree with the first on the effect law."""
    for name in IDENTIFIABLE_CANONICAL:
        g = canonical(name)
        _, target = ground_truth(g, seed=TRUTH_SEEDS[name])
        verdict = identify(g, target, DO_X_ON_Y, FitConfig(seed=2024, **FIG9_FIT),
                           iters=10, tol_id=1e-1)
        assert verdict.outcome == PRESUMED_IDENTIFIABLE, name
        assert verdict.max_divergence <= 1e-2, (name, verdict.max_divergence)
    report("6b", "back-door, front-door, M, napkin, IV all presumed identifiable "
                 "with max divergence <= 1e-2")


def test_criterion_6c_non_identifiable_graphs_refuted():
    """Bow family: a witness pair diverging by >= 1e-1 appears in >= 8/10 seeds.

    The identify threshold is set to the criterion's 1e-1 witness magnitude,
    so every refutation it returns carries a witness at least that far apart.
    """
    counts = {}
    for name in NON_IDENTIFIABLE_CANONICAL:
        g = canonical(name)
        _, target = ground_truth(g, seed=TRUTH_SEEDS[name])
        hits = 0
        for master in range(10):
            verdict = identify(g, target, DO_X_ON_Y,
                               FitConfig(seed=1000 + master, **FIG9_FIT),
                               iters=10, tol_id=1e-1)
            if verdict.outcome == NOT_IDENTIFIABLE and verdict.max_divergence >= 1e-1:
                hits += 1
        counts[name] = hits
        assert hits >= 8, (name, hits)
    report("6c", "witness divergence >= 1e-1 in "
           + ", ".join(f"{name}: {hits}/10" for name, hits in counts.items()))


def test_criterion_6d_decile_curves_emitted(tmp_path):
    """Ten-repetition decile traces are written as CSV for every canonical graph."""
    from pmdag.experiment import Experiment, run_experiment

    for name, truth_seed in TRUTH_SEEDS.items():
        exp = Experiment(graph=name, truth_seed=truth_seed,
                         fit_config=FitConfig(seed=31, **FIG9_FIT),
                         repetitions=10, do_target="X", do_effect="Y",
                         hook_stride=50)
        outdir = tmp_path / name
        summary = run_experiment(exp, outdir)
        assert (outdir / "kl_deciles.csv").exists()
        assert (outdir / "do_deciles.csv").exists()
        header = (outdir / "kl_deciles.csv").read_text().splitlines()[0]
        assert header == "iteration,decile_1,decile_5,decile_9"
        assert len(summary["repetitions"]) == 10
    report("6d", f"decile CSVs for all 8 graphs under {tmp_path}")


def test_criterion_7_iv_with_zero_instrument_weight():
    """IV degenerates to the bow when the instrument weight is zero."""
    g = canonical("iv")
    truth, _ = ground_truth(g, seed=TRUTH_SEEDS["iv"])
    truth = truth.with_edge_weight(g, "Z", "X", 0.0)
    target = joint_cov(g, truth).restrict(g.visible_names)
    verdict = identify(g, target, DO_X_ON_Y, FitConfig(seed=23, **FIG9_FIT), iters=10)
    assert verdict.outcome == NOT_IDENTIFIABLE
    report("7", f"IV with w_ZX = 0 refuted with divergence {verdict.max_divergence:.3f}")


def deep_chain(k):
    nodes = [("L", "latent")] + [(f"V{i}", "visible") for i in range(k)]
    edges = [("L", "V0")] + [(f"V{i}", f"V{i + 1}") for i in range(k - 1)]
    return validate(nodes, edges, strict=True)


def run_reduced_with_counter(g):
    sync = synchronize(g)
    masks = build_masks(sync)
    weights = init_weights(sync, masks, seed=0)
    edge_w = edge_weight_map(masks, weights)
    counter = AllocationCounter()
    state = forward_reduced(sync, edge_w, counter=counter)
    backward_reduced(sync, edge_w, state, np.eye(len(sync.layers[-1])), counter=counter)
    return sync, counter.peak


def test_criterion_8_memory_bound():
    """Reduced-method storage is depth-free; the layered stack is not."""
    c_bound = 8
    peaks = {}
    for v in (16, 32, 64):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = random_pmdag(GenSpec(v=v, l_star=0.5, e_star=0.5, seed=v))
        _, peak = run_reduced_with_counter(g)
        bound = c_bound * len(g.visible_names) * len(g.nodes)
        assert peak <= bound, (v, peak, bound)
        peaks[v] = (peak, bound)

    chain_layered = {}
    chain_reduced = {}
    for k in (16, 32, 64):
        g = deep_chain(k)
        sync, peak = run_reduced_with_counter(g)
        chain_layered[k] = layered_entry_count(sync)
        chain_reduced[k] = peak
        assert peak <= c_bound * len(g.visible_names) * len(g.nodes)
    # the layered stack escapes the fixed-c quadratic envelope the reduced
    # method satisfies, and its growth rate on chains is one power higher
    assert chain_layered[64] > c_bound * 64 * 65
    assert chain_layered[64] / chain_layered[16] > 3 * (chain_reduced[64] / chain_reduced[16])
    report("8", "reduced peak within 8*V*(V+L) at v=16/32/64 "
           + str({v: p for v, (p, _b) in peaks.items()})
           + f"; layered chain storage grew {chain_layered[64] / chain_layered[16]:.0f}x "
             f"vs reduced {chain_reduced[64] / chain_reduced[16]:.1f}x")


def test_criterion_9_accumulation_wins_at_high_density():
    """At v=128, dense graphs: accumulated products beat per-layer congruences."""
    rows = bench([128], [0.5], [0.4, 0.8], methods=("covariance", "accumulation"),
                 repetitions=3, seed=0)
    means = {(r.e_star, r.method, r.phase): r.mean_seconds for r in rows}
    for e_star in (0.4, 0.8):
        acc = means[(e_star, "accumulation", "forward")]
        cov = means[(e_star, "covariance", "forward")]
        assert acc <= cov, (e_star, acc, cov)
        assert acc > 0 and math.isfinite(acc)
    report("9", "accumulation forward <= covariance forward at v=128, "
           + ", ".join(f"e*={e}: {means[(e, 'accumulation', 'forward')]:.3f}s vs "
                       f"{means[(e, 'covariance', 'forward')]:.3f}s" for e in (0.4, 0.8)))


def test_criterion_10_generator_size_formulas():
    """Node and edge budgets match the generator formulas over the whole grid."""
    checked = 0
    for v in (16, 32, 64, 128, 256, 512):
        for l_star in (0.0, 0.5):
            l = latent_count(v, l_star)
            assert l == round(l_star / (1.0 - l_star) * v + v)
            for e_star in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                e = edge_budget(v, l_star, e_star)
                assert e == round((l * v + v * (v - 1) / 2 + v) * e_star)
                checked += 1
    # spot-build the smallest grid row and verify realized edge counts
    for e_star in (0.0, 0.4):
        g = random_pmdag(GenSpec(v=16, l_star=0.5, e_star=e_star, seed=2))
        expected = max(edge_budget(16, 0.5, e_star), 16)
        assert len(g.edges) == expected
    report("10", f"{checked} grid points verified arithmetically; "
                 f"v=16 rows realized exactly")
