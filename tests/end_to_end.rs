//! Cross-crate integration tests: datasets → frameworks/miners → metrics,
//! through the root facade's public API only.

use multiclass_ldp::datasets::{anime_like, syn1, RealConfig};
use multiclass_ldp::prelude::*;

#[test]
fn frequency_pipeline_on_syn1() {
    // SYN1's Latin-square structure: every framework must reproduce the
    // 4-level pair counts at high ε.
    let ds = syn1(0.005, 3);
    let truth = ds.ground_truth();
    let eps = Eps::new(4.0).unwrap();
    for (i, fw) in [
        Framework::Ptj,
        Framework::Pts { label_frac: 0.5 },
        Framework::PtsCp { label_frac: 0.5 },
    ]
    .into_iter()
    .enumerate()
    {
        let plan = Exec::seeded(41 + i as u64).threads(1);
        let result = fw
            .execute(eps, ds.domains, &plan, SliceSource::new(&ds.pairs))
            .unwrap();
        let err = rmse(result.table.values(), truth.values());
        // Largest cell is 5000; a calibrated estimator at ε=4 with ~55k
        // users stays well under 10% of it.
        assert!(err < 500.0, "{}: rmse {err}", fw.name());
    }
}

/// Closed-form standard deviation of PTS-CP's class-total estimate
/// `Σ_I f̂(C, I)` for class `label`.
///
/// Summed over items, Eq. (4) is `(Σ_u B_u·(S_u − a) − const) / denom`:
/// `B_u` marks a user whose perturbed label is `C`, `S_u` counts the set
/// item bits of its report (the flag bit excluded), and `a` folds in the
/// `n̂` correction. Users are independent, so the variance is a sum of
/// per-user terms, one for users of class `C` and one for the others.
fn cp_class_total_sigma(mech: &CorrelatedPerturbation, d: u32, n_class: f64, n_total: f64) -> f64 {
    let (p1, q1) = mech.label_probs();
    let (p2, q2) = mech.item_probs();
    let d = f64::from(d);
    let denom = p1 * (1.0 - q2) * (p2 - q2);
    let a = d * q2 * (p1 * (1.0 - q2) - q1 * (1.0 - p2)) / (p1 - q1);
    // Var(B·(S − a)) for Pr[B] = pb and S with the given mean and variance.
    let var_term = |pb: f64, mean_s: f64, var_s: f64| {
        let shift = mean_s - a;
        pb * (var_s + shift * shift) - (pb * shift).powi(2)
    };
    // Label kept → a valid report: the hot bit plus d−1 cold bits.
    let same = var_term(
        p1,
        p2 + (d - 1.0) * q2,
        p2 * (1.0 - p2) + (d - 1.0) * q2 * (1.0 - q2),
    );
    // Label flipped into C → an invalid report: d cold item bits.
    let other = var_term(q1, d * q2, d * q2 * (1.0 - q2));
    ((n_class * same + (n_total - n_class) * other) / (denom * denom)).sqrt()
}

/// PTS-CP's class totals are unbiased and stay within 5σ on every seed.
///
/// One seed's error is a single draw with σ ≈ 250 per class here, so a
/// fixed band cannot separate a biased estimator from an unlucky seed.
/// Over 300 seeds the mean error of each class must lie within 4 standard
/// errors (σ/√300) of 0 — far tighter on bias than any single-seed band —
/// the empirical spread must match the closed-form σ, and no seed may
/// leave the ±5σ band.
#[test]
fn frequency_estimates_are_consistent_with_class_totals() {
    const SEEDS: u64 = 300;
    let ds = syn1(0.002, 4);
    let eps = Eps::new(3.0).unwrap();
    let sizes = ds.class_sizes();
    let n_total = ds.pairs.len() as f64;
    let (e1, e2) = eps.split(0.5).unwrap();
    let mech = CorrelatedPerturbation::new(e1, e2, ds.domains).unwrap();
    let sigma: Vec<f64> = (0..4)
        .map(|c| cp_class_total_sigma(&mech, ds.domains.items(), sizes[c] as f64, n_total))
        .collect();

    let mut sum = [0.0f64; 4];
    let mut sum_sq = [0.0f64; 4];
    for seed in 0..SEEDS {
        let result = Framework::PtsCp { label_frac: 0.5 }
            .execute(
                eps,
                ds.domains,
                &Exec::seeded(seed).threads(1),
                SliceSource::new(&ds.pairs),
            )
            .unwrap();
        for c in 0..4usize {
            let err = result.table.class_total(c as u32) - sizes[c] as f64;
            assert!(
                err.abs() < 5.0 * sigma[c],
                "seed {seed} class {c}: error {err} outside ±5σ (σ = {})",
                sigma[c]
            );
            sum[c] += err;
            sum_sq[c] += err * err;
        }
    }
    let n = SEEDS as f64;
    for c in 0..4 {
        let mean = sum[c] / n;
        let std_err = sigma[c] / n.sqrt();
        assert!(
            mean.abs() < 4.0 * std_err,
            "class {c}: mean error {mean} over {SEEDS} seeds exceeds 4 standard errors ({std_err})"
        );
        // The spread must match the closed form: the sample σ of 300
        // draws has a relative standard error of about 4%.
        let spread = (sum_sq[c] / n - mean * mean).sqrt();
        assert!(
            (spread / sigma[c] - 1.0).abs() < 0.2,
            "class {c}: empirical σ {spread} vs closed form {}",
            sigma[c]
        );
    }
}

#[test]
fn topk_pipeline_through_facade() {
    let ds = anime_like(RealConfig {
        users: 60_000,
        items: 512,
        seed: 5,
    });
    let k = 10;
    let truth = ds.true_top_k(k);
    let result = execute(
        TopKMethod::PtjShuffled { validity: true },
        TopKConfig::new(k, Eps::new(8.0).unwrap()),
        ds.domains,
        &Exec::seeded(43).threads(1),
        SliceSource::new(&ds.pairs),
    )
    .unwrap();
    for (c, (mined, tru)) in result.per_class.iter().zip(&truth).enumerate() {
        let f1 = f1_at_k(mined, tru);
        let ncr = ncr_at_k(mined, tru);
        assert!(f1 > 0.4, "class {c}: f1 {f1}");
        assert!(ncr >= f1 - 0.2, "class {c}: ncr {ncr} vs f1 {f1}");
    }
}

#[test]
fn error_paths_surface_cleanly() {
    // Domain violations and bad budgets come back as errors, not panics.
    assert!(Eps::new(-1.0).is_err());
    assert!(Domains::new(0, 5).is_err());
    let domains = Domains::new(2, 4).unwrap();
    let bad = vec![LabelItem::new(5, 0)];
    for plan in [
        Exec::new().threads(1),
        Exec::new().chunk_size(bad.len()),
        Exec::new(),
    ] {
        let result = Framework::Ptj.execute(
            Eps::new(1.0).unwrap(),
            domains,
            &plan,
            SliceSource::new(&bad),
        );
        assert!(result.is_err(), "{plan}");
    }
}

#[test]
fn oracle_facade_round_trip() {
    // The substrate is reachable and usable through the facade.
    let eps = Eps::new(2.0).unwrap();
    let oracle = Oracle::adaptive(eps, 100).unwrap();
    let mut agg = Aggregator::new(&oracle);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    for _ in 0..20_000 {
        agg.absorb(&oracle.privatize(42, &mut rng).unwrap())
            .unwrap();
    }
    let est = agg.estimate();
    assert!((est[42] - 20_000.0).abs() < 1_500.0, "est {}", est[42]);
}

#[test]
fn deterministic_given_seed_across_the_stack() {
    let ds = syn1(0.001, 9);
    let run = |plan: Exec| {
        Framework::PtsCp { label_frac: 0.5 }
            .execute(
                Eps::new(1.0).unwrap(),
                ds.domains,
                &plan,
                SliceSource::new(&ds.pairs),
            )
            .unwrap()
            .table
    };
    for plan in [Exec::seeded(123).threads(1), Exec::seeded(123).threads(2)] {
        assert_eq!(run(plan).values(), run(plan).values(), "{plan}");
    }
}
