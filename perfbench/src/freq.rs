//! The two frequency-estimation workloads.
//!
//! * `freq-pts-d1024` — PTS (GRR label + OUE item) at c = 8, d = 1024,
//!   ε = 1 on the in-process executor. Unary-encoding privatize dominates;
//!   there is no source decode (pairs are in memory).
//! * `freq-cp-dist-d64` — PTS-CP at c = 8, d = 64, ε = 1 on the
//!   `Coordinator` with one loopback worker process per core. Each report
//!   is one word, so the wire hop (encode, socket, partial decode, merge)
//!   is a large share; the only workload that runs `mcim-dist` and the CP
//!   arm.

use mcim_core::analysis::{cp_variance_exact, pts_variance, CpProbs};
use mcim_core::frameworks::stages::{CpArm, FwArm, FwStage, PtsArm};
use mcim_core::{Domains, EstimationResult, Framework, FrequencyTable, LabelItem};
use mcim_datasets::{SyntheticPairSource, SyntheticSourceConfig};
use mcim_dist::{Coordinator, DistConfig};
use mcim_oracles::exec::Executor;
use mcim_oracles::stream::{drain_source, SliceSource};
use mcim_oracles::Eps;

use crate::ledger::{trace_fold, Estimate, Layers, Traced};
use crate::measure::{
    counter_sum, median, observed, peak_rss_mib, repeated_setup, report_sample, reset_peak_rss,
    run_for, same_estimate, time,
};
use crate::{Ctx, Result, Shape, CHUNK_ITEMS, SETUP_REPS};

pub const PTS_SHAPE: Shape = Shape {
    classes: 8,
    items: 1024,
    eps: 1.0,
    workers: false,
};

pub const CP_DIST_SHAPE: Shape = Shape {
    classes: 8,
    items: 64,
    eps: 1.0,
    workers: true,
};

/// ε₁/ε, the paper's default even split.
const LABEL_FRAC: f64 = 0.5;
/// Zipf exponent of the per-class item ranking of the generated pairs.
const ZIPF_S: f64 = 1.1;
/// Fewest timed iterations (and traced rounds) per run, whatever `--seconds`.
const MIN_ITERS: usize = 5;
/// Largest accepted `rmse_over_sigma`. The closed form is exact for CP
/// (`cp_variance_exact`, ratio ≈ 1) but conservative for PTS
/// (`pts_variance` drops the covariances of f̃ with n̂ and the item total,
/// which lower the variance: ratio ≈ 0.64 at c = 8, d = 1024, ε = 1), so
/// only an RMSE above the predicted σ is an accuracy failure.
const RMSE_BOUND: f64 = 1.25;

fn zipf_pairs(ctx: &Ctx, shape: &Shape) -> Result<Vec<LabelItem>> {
    let mut source = SyntheticPairSource::new(SyntheticSourceConfig {
        classes: shape.classes,
        items: shape.items,
        users: ctx.users as u64,
        zipf_s: ZIPF_S,
        seed: ctx.data_seed(0),
    });
    Ok(drain_source(&mut source)?)
}

/// Empirical RMSE over every cell divided by the closed-form RMSE
/// `sqrt(mean Var[f̂(C, I)])`, `variance(f, n_C, f_I)` giving each cell's.
fn rmse_over_sigma(
    est: &FrequencyTable,
    truth: &FrequencyTable,
    variance: impl Fn(f64, f64, f64) -> f64,
) -> f64 {
    let d = truth.domains();
    let mut var_sum = 0.0;
    for label in 0..d.classes() {
        let n = truth.class_total(label);
        for item in 0..d.items() {
            var_sum += variance(truth.get(label, item), n, truth.item_total(item));
        }
    }
    let sigma = (var_sum / truth.values().len() as f64).sqrt();
    mcim_metrics::rmse(est.values(), truth.values()) / sigma
}

fn check_rmse(ctx: &mut Ctx, ratio: f64) {
    ctx.checks.check(ratio <= RMSE_BOUND, || {
        format!("rmse_over_sigma {ratio} exceeds {RMSE_BOUND}")
    });
    if ctx.trace {
        ctx.set("rmse_over_sigma", ratio);
    }
}

fn same(a: &EstimationResult, b: &EstimationResult) -> bool {
    same_estimate((&a.table, a.comm), (&b.table, b.comm))
}

/// Times `iteration` until the budget is spent, checking each output
/// against `reference`; sets `users_per_s`, `peak_rss_mib` and
/// `uplink_bits_per_user`.
fn timed_e2e(
    ctx: &mut Ctx,
    reference: &EstimationResult,
    mut iteration: impl FnMut(&mut Ctx) -> Result<EstimationResult>,
) -> Result<()> {
    reset_peak_rss()?;
    let mut times = Vec::new();
    run_for(ctx.budget, MIN_ITERS, |i| {
        let (out, secs) = time(|| iteration(ctx))?;
        times.push(secs);
        ctx.checks.check(same(&out, reference), || {
            format!("iteration {i} differs from the first run of this seed")
        });
        Ok(())
    })?;
    ctx.set("peak_rss_mib", peak_rss_mib()?);
    report_sample("iterations", &times);
    ctx.set("users_per_s", ctx.users as f64 / median(&times));
    ctx.set("uplink_bits_per_user", reference.comm.bits_per_user());
    Ok(())
}

/// Median of each layer over traced folds, as per-layer metrics.
fn set_layers(ctx: &mut Ctx, ledgers: &[Layers]) {
    let median_secs = |f: fn(&Layers) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
    let n = ctx.users as f64;
    let privatize = median_secs(|l| l.privatize.as_secs_f64());
    let absorb = median_secs(|l| l.absorb.as_secs_f64());
    let merge = median_secs(|l| l.merge.as_secs_f64());
    let estimate = median_secs(|l| l.estimate.as_secs_f64());
    ctx.set("frameworks.privatize_ns_per_user", privatize * 1e9 / n);
    ctx.set("colsum.absorb_ns_per_user", absorb * 1e9 / n);
    ctx.set("frameworks.merge_us_per_fold", merge * 1e6);
    ctx.set("calibrate.estimate_ms", estimate * 1e3);
    ctx.set("server.ns_per_user", (absorb + merge + estimate) * 1e9 / n);
}

/// One traced fold of `arm` (see `ledger`), checked against `reference`.
fn checked_trace<M>(
    ctx: &mut Ctx,
    arm: &M,
    pairs: &[LabelItem],
    reference: &EstimationResult,
) -> Result<Traced>
where
    M: FwArm,
    M::Agg: Estimate,
{
    let traced = trace_fold(
        arm,
        ctx.plan(0).base_seed(),
        pairs,
        ctx.threads,
        CHUNK_ITEMS,
    )?;
    ctx.checks.check(
        same_estimate(
            (&traced.table, traced.comm),
            (&reference.table, reference.comm),
        ),
        || "traced fold differs from the end-to-end output".into(),
    );
    Ok(traced)
}

pub fn pts_d1024(ctx: &mut Ctx) -> Result<()> {
    let shape = PTS_SHAPE;
    let domains = Domains::new(shape.classes, shape.items)?;
    let eps = Eps::new(shape.eps)?;
    let (e1, e2) = eps.split(LABEL_FRAC)?;
    let fw = Framework::Pts {
        label_frac: LABEL_FRAC,
    };
    let (pairs, setup_s) = repeated_setup(SETUP_REPS, || zipf_pairs(ctx, &shape))?;
    let truth = FrequencyTable::ground_truth(domains, &pairs)?;
    let plan = ctx.plan(0);
    let run = |exec: &mcim_oracles::exec::InProcess| {
        fw.execute_on(exec, eps, domains, SliceSource::new(&pairs))
    };
    // The warm-up run is every later iteration's reference output.
    let reference = run(&plan.in_process())?;

    if !ctx.trace {
        ctx.set("setup_s", setup_s);
        timed_e2e(ctx, &reference, |_| Ok(run(&plan.in_process())?))?;
    } else {
        let (counted, snap) = observed(|| Ok(run(&plan.in_process())?))?;
        ctx.checks
            .check(same(&counted, &reference), || "observed run differs".into());
        ctx.set_exec_counts(&snap);

        // Untraced and traced folds alternate, both on one thread, so
        // their ratio compares the same configuration.
        let single = plan.threads(1).in_process();
        let arm = PtsArm::new(e1, e2, domains)?;
        let (mut untraced, mut traced, mut ledgers) = (Vec::new(), Vec::new(), Vec::new());
        run_for(ctx.budget, MIN_ITERS, |i| {
            for step in [i % 2, 1 - i % 2] {
                if step == 0 {
                    let (out, secs) = time(|| Ok(run(&single)?))?;
                    ctx.checks.check(same(&out, &reference), || {
                        format!("1-thread run {i} differs")
                    });
                    untraced.push(secs);
                } else {
                    let t = checked_trace(ctx, &arm, &pairs, &reference)?;
                    traced.push(t.wall.as_secs_f64());
                    ledgers.push(t.layers);
                }
            }
            Ok(())
        })?;
        set_layers(ctx, &ledgers);
        let layer_sum = median(
            &ledgers
                .iter()
                .map(|l| l.total().as_secs_f64())
                .collect::<Vec<_>>(),
        );
        ctx.set("trace.reconcile", layer_sum / median(&untraced));
        ctx.set("trace.overhead", median(&traced) / median(&untraced));
    }

    let pr = CpProbs::standard(e1, e2, shape.classes)?;
    let n_total = ctx.users as f64;
    let ratio = rmse_over_sigma(&reference.table, &truth, |f, n, f_item| {
        pts_variance(f, n, f_item, n_total, pr)
    });
    check_rmse(ctx, ratio);
    Ok(())
}

pub fn cp_dist_d64(ctx: &mut Ctx) -> Result<()> {
    let shape = CP_DIST_SHAPE;
    let domains = Domains::new(shape.classes, shape.items)?;
    let eps = Eps::new(shape.eps)?;
    let (e1, e2) = eps.split(LABEL_FRAC)?;
    let fw = Framework::PtsCp {
        label_frac: LABEL_FRAC,
    };
    let plan = ctx.plan(0);
    let binary = std::env::current_exe()?;
    let workers = ctx.threads;
    let ((pairs, coord), setup_s) = repeated_setup(SETUP_REPS, || {
        let pairs = zipf_pairs(ctx, &shape)?;
        let coord = Coordinator::connect_spawned(&plan, &binary, workers, DistConfig::default())?;
        Ok((pairs, coord))
    })?;
    let result = cp_dist_measure(ctx, fw, eps, domains, &pairs, &coord, setup_s);
    // Workers get their Shutdown frame and are reaped even on failure.
    coord.shutdown();
    let reference = result?;

    let truth = FrequencyTable::ground_truth(domains, &pairs)?;
    let pr = CpProbs::standard(e1, e2, shape.classes)?;
    let n_total = ctx.users as f64;
    let ratio = rmse_over_sigma(&reference.table, &truth, |f, n, _| {
        cp_variance_exact(f, n, n_total, pr)
    });
    check_rmse(ctx, ratio);
    Ok(())
}

/// Everything `freq-cp-dist-d64` does with its connected coordinator;
/// returns the reference output.
fn cp_dist_measure(
    ctx: &mut Ctx,
    fw: Framework,
    eps: Eps,
    domains: Domains,
    pairs: &[LabelItem],
    coord: &Coordinator,
    setup_s: f64,
) -> Result<EstimationResult> {
    let plan = ctx.plan(0);
    let dist = || fw.execute_on(coord, eps, domains, SliceSource::new(pairs));
    let local = || fw.execute_on(&plan.in_process(), eps, domains, SliceSource::new(pairs));
    let reference = dist()?;
    ctx.checks.check(same(&local()?, &reference), || {
        "dist table differs from in-process PTS-CP at the same seed".into()
    });
    let fold_clean = |ctx: &mut Ctx, what: &str| {
        let report = coord.last_fold_report().unwrap_or_default();
        ctx.checks
            .check(!report.degraded() && report.reroutes == 0, || {
                format!("{what}: degraded fold ({report})")
            });
    };
    fold_clean(ctx, "warm-up");

    if !ctx.trace {
        ctx.set("setup_s", setup_s);
        timed_e2e(ctx, &reference, |ctx| {
            let out = dist()?;
            fold_clean(ctx, "timed fold");
            Ok(out)
        })?;
    } else {
        let (counted, snap) = observed(|| Ok(dist()?))?;
        ctx.checks.check(same(&counted, &reference), || {
            "observed dist run differs".into()
        });
        let folds = counter_sum(&snap, "mcim_dist_folds_total").max(1) as f64;
        let frames = counter_sum(&snap, "mcim_dist_tx_frames_total")
            + counter_sum(&snap, "mcim_dist_rx_frames_total");
        ctx.set(
            "dist.tx_bytes_per_user",
            counter_sum(&snap, "mcim_dist_tx_bytes_total") as f64 / ctx.users as f64,
        );
        ctx.set(
            "dist.rx_bytes_per_fold",
            counter_sum(&snap, "mcim_dist_rx_bytes_total") as f64 / folds,
        );
        ctx.set("dist.frames_per_fold", frames as f64 / folds);
        ctx.set(
            "dist.round_trips_per_fold",
            counter_sum(&snap, "mcim_dist_round_trips_total") as f64 / folds,
        );
        let (counted, snap) = observed(|| Ok(local()?))?;
        ctx.checks.check(same(&counted, &reference), || {
            "observed in-process run differs".into()
        });
        ctx.set_exec_counts(&snap);

        // Rounds rotate the untraced dist run, the traced dist fold and
        // the in-process run of the same plan (for the protocol tax).
        let (e1, e2) = eps.split(LABEL_FRAC)?;
        let stage = FwStage::new(CpArm::new(e1, e2, domains)?);
        let seed = plan.base_seed();
        let (mut untraced, mut traced, mut layer_sums, mut in_process) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        run_for(ctx.budget.mul_f64(0.6), MIN_ITERS, |i| {
            for step in 0..3 {
                match (i + step) % 3 {
                    0 => {
                        let (out, secs) = time(|| Ok(dist()?))?;
                        ctx.checks
                            .check(same(&out, &reference), || format!("dist run {i} differs"));
                        fold_clean(ctx, "traced round");
                        untraced.push(secs);
                    }
                    1 => {
                        let (((table, comm), layers), wall) = time(|| {
                            let (part, fold_s) = time(|| {
                                Ok(coord.fold(&mut SliceSource::new(pairs), seed, &stage)?)
                            })?;
                            let (agg, comm) = part.into_parts();
                            let (table, estimate_s) = time(|| Ok(agg.estimate_table()))?;
                            Ok(((table, comm), fold_s + estimate_s))
                        })?;
                        fold_clean(ctx, "traced fold");
                        ctx.checks.check(
                            same_estimate((&table, comm), (&reference.table, reference.comm)),
                            || format!("traced dist fold {i} differs from the end-to-end output"),
                        );
                        layer_sums.push(layers);
                        traced.push(wall);
                    }
                    _ => {
                        let (out, secs) = time(|| Ok(local()?))?;
                        ctx.checks.check(same(&out, &reference), || {
                            format!("in-process run {i} differs")
                        });
                        in_process.push(secs);
                    }
                }
            }
            Ok(())
        })?;
        ctx.set("dist.protocol_tax", median(&untraced) / median(&in_process));
        ctx.set("trace.reconcile", median(&layer_sums) / median(&untraced));
        ctx.set("trace.overhead", median(&traced) / median(&untraced));

        // The in-process layers of the same arm, for the layers the
        // workers run out of sight.
        let arm = CpArm::new(e1, e2, domains)?;
        let mut ledgers = Vec::new();
        run_for(ctx.budget.mul_f64(0.4), MIN_ITERS, |_| {
            ledgers.push(checked_trace(ctx, &arm, pairs, &reference)?.layers);
            Ok(())
        })?;
        set_layers(ctx, &ledgers);
        let session = coord.session_report();
        ctx.set("dist.reroutes", f64::from(session.reroutes));
        ctx.set("dist.worker_errors", session.worker_errors as f64);
        ctx.set("dist.connect_retries", f64::from(session.connect_retries));
    }
    let retries = coord.session_report().connect_retries;
    ctx.checks
        .check(retries == 0, || format!("{retries} connect retries"));
    Ok(reference)
}
