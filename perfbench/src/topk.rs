//! `topk-jd-csv`: the paper's full top-k method, PTS-Shuffling+VP+CP
//! (Algorithms 1–2), k = 10, ε = 4, over `jd_like` pairs (5 imbalanced
//! classes, d = 2048) written to CSV during set-up and read back through
//! `CsvPairSource`, the CLI's input path. Mining is local (GRR routing,
//! VP, shuffle, CP): no unary-encoding word walk and no executor fold, but
//! CSV decode and the drained pair buffer are on the path.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use mcim_core::{Domains, LabelItem};
use mcim_datasets::{jd_like, CsvPairSource, RealConfig};
use mcim_metrics::{f1_at_k, ncr_at_k};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::{drain_source, SliceSource};
use mcim_oracles::Eps;
use mcim_topk::{execute_on, TopKConfig, TopKMethod, TopKResult};

use crate::measure::{
    median, observed, peak_rss_mib, repeated_setup, report_sample, reset_peak_rss, run_for, time,
};
use crate::{Ctx, Result, Shape, SETUP_REPS};

pub const SHAPE: Shape = Shape {
    classes: 5,
    items: 2048,
    eps: 4.0,
    workers: false,
};

const K: usize = 10;
const METHOD: TopKMethod = TopKMethod::PtsShuffled {
    validity: true,
    global: true,
    correlated: true,
};
/// Independent (input, privatization seed) instances per run, mined in
/// turn. Mining cost depends on the data and the noise (which classes pass
/// Algorithm 2's noise test, how many candidates survive): with one input
/// per run on a 2-core machine, `users_per_s` varied by about 12% (IQR)
/// across five seeds.
const INSTANCES: usize = 4;
/// Fewest timed iterations (and traced rounds) per instance.
const MIN_ITERS_PER_INSTANCE: usize = 2;

/// The generated CSV, removed when the run ends however it ends.
struct CsvFile(PathBuf);

impl Drop for CsvFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn write_csv(path: &Path, pairs: &[LabelItem]) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"label,item\n")?;
    for p in pairs {
        writeln!(out, "{},{}", p.label, p.item)?;
    }
    out.flush()?;
    Ok(())
}

/// One input: its CSV, its true per-class top-k, its plan, and the output
/// of its first (warm-up) run that every later run must reproduce.
struct Instance {
    csv: CsvFile,
    truth: Vec<Vec<u32>>,
    plan: Exec,
    reference: Option<TopKResult>,
}

impl Instance {
    fn mine(&self, config: TopKConfig, domains: Domains) -> Result<TopKResult> {
        let source = CsvPairSource::open(&self.csv.0)?;
        Ok(execute_on(
            METHOD,
            config,
            domains,
            &self.plan.in_process(),
            source,
        )?)
    }

    /// Checks `out` against the reference (set by the first call) and
    /// for k items in every class.
    fn check(&mut self, ctx: &mut Ctx, out: TopKResult, what: &str) {
        ctx.checks.check(
            out.per_class.len() == SHAPE.classes as usize
                && out.per_class.iter().all(|c| c.len() == K),
            || {
                format!(
                    "{what} did not mine {K} items for each of {} classes",
                    SHAPE.classes
                )
            },
        );
        match &self.reference {
            None => self.reference = Some(out),
            Some(reference) => ctx.checks.check(
                out.per_class == reference.per_class
                    && out.comm == reference.comm
                    && out.broadcast_bits_per_user.to_bits()
                        == reference.broadcast_bits_per_user.to_bits(),
                || format!("{what} differs from the first run of its seed"),
            ),
        }
    }

    fn reference(&self) -> &TopKResult {
        self.reference
            .as_ref()
            .expect("warm-up run sets the reference")
    }
}

pub fn jd_csv(ctx: &mut Ctx) -> Result<()> {
    let domains = Domains::new(SHAPE.classes, SHAPE.items)?;
    let config = TopKConfig::new(K, Eps::new(SHAPE.eps)?);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir)?;
    let (mut instances, setup_s) = repeated_setup(SETUP_REPS, || {
        (0..INSTANCES as u64)
            .map(|j| {
                let dataset = jd_like(RealConfig {
                    users: ctx.users,
                    items: SHAPE.items,
                    seed: ctx.data_seed(j),
                });
                let csv =
                    CsvFile(dir.join(format!("jd-{}-{j}-{}.csv", ctx.seed, std::process::id())));
                write_csv(&csv.0, &dataset.pairs)?;
                // Only the file feeds the pipeline; the generator's pairs
                // are dropped here, before memory is measured.
                Ok(Instance {
                    csv,
                    truth: dataset.true_top_k(K),
                    plan: ctx.plan(j),
                    reference: None,
                })
            })
            .collect::<Result<Vec<_>>>()
    })?;
    for inst in &mut instances {
        let out = inst.mine(config, domains)?;
        inst.check(ctx, out, "warm-up");
    }
    let min_rounds = MIN_ITERS_PER_INSTANCE * INSTANCES;

    if !ctx.trace {
        ctx.set("setup_s", setup_s);
        reset_peak_rss()?;
        let mut times = vec![Vec::new(); INSTANCES];
        run_for(ctx.budget, min_rounds, |i| {
            let inst = &mut instances[i % INSTANCES];
            let (out, secs) = time(|| inst.mine(config, domains))?;
            times[i % INSTANCES].push(secs);
            inst.check(ctx, out, &format!("iteration {i}"));
            Ok(())
        })?;
        ctx.set("peak_rss_mib", peak_rss_mib()?);
        // The inputs differ in cost, so a median over all iterations would
        // jump between them; each input gets its own median instead.
        let mut busy = 0.0;
        for (j, t) in times.iter().enumerate() {
            report_sample(&format!("input {j} iterations"), t);
            busy += median(t);
        }
        ctx.set("users_per_s", (ctx.users * INSTANCES) as f64 / busy);
        let uplink: f64 = instances
            .iter()
            .map(|inst| inst.reference().comm.bits_per_user())
            .sum();
        ctx.set("uplink_bits_per_user", uplink / INSTANCES as f64);
        return Ok(());
    }

    let (counted, snap) = observed(|| instances[0].mine(config, domains))?;
    instances[0].check(ctx, counted, "observed run");
    ctx.set_exec_counts(&snap);

    // Untraced runs alternate with the traced split of the same run:
    // decode the CSV alone, then mine the decoded slice.
    let (mut untraced, mut traced, mut decode, mut mine) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    run_for(ctx.budget, min_rounds, |i| {
        let inst = &mut instances[i % INSTANCES];
        for step in [i / INSTANCES % 2, 1 - i / INSTANCES % 2] {
            if step == 0 {
                let (out, secs) = time(|| inst.mine(config, domains))?;
                inst.check(ctx, out, &format!("untraced run {i}"));
                untraced.push(secs);
            } else {
                let ((out, decode_s, mine_s), wall) = time(|| {
                    let (pairs, decode_s) =
                        time(|| Ok(drain_source(&mut CsvPairSource::open(&inst.csv.0)?)?))?;
                    let (out, mine_s) = time(|| {
                        Ok(execute_on(
                            METHOD,
                            config,
                            domains,
                            &inst.plan.in_process(),
                            SliceSource::new(&pairs),
                        )?)
                    })?;
                    Ok((out, decode_s, mine_s))
                })?;
                inst.check(ctx, out, &format!("traced run {i}"));
                decode.push(decode_s);
                mine.push(mine_s);
                traced.push(wall);
            }
        }
        Ok(())
    })?;
    let n = ctx.users as f64;
    let layer_sum: Vec<f64> = decode.iter().zip(&mine).map(|(d, m)| d + m).collect();
    ctx.set("sources.decode_ns_per_user", median(&decode) * 1e9 / n);
    ctx.set("topk.mine_ns_per_user", median(&mine) * 1e9 / n);
    // Decode is the only server-side layer the miner's public API separates.
    ctx.set("server.ns_per_user", median(&decode) * 1e9 / n);
    ctx.set("trace.reconcile", median(&layer_sum) / median(&untraced));
    ctx.set("trace.overhead", median(&traced) / median(&untraced));

    let scores = |score: fn(&[u32], &[u32]) -> f64| {
        let per_class = instances
            .iter()
            .flat_map(|inst| inst.reference().per_class.iter().zip(&inst.truth));
        per_class.clone().map(|(m, t)| score(m, t)).sum::<f64>() / per_class.count() as f64
    };
    ctx.set("f1_at_k", scores(f1_at_k));
    ctx.set("ncr_at_k", scores(ncr_at_k));
    let broadcast: f64 = instances
        .iter()
        .map(|inst| inst.reference().broadcast_bits_per_user)
        .sum();
    ctx.set("broadcast_bits_per_user", broadcast / INSTANCES as f64);
    Ok(())
}
