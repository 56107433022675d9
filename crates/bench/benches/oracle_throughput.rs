//! Oracle privatize/aggregate throughput: the sharded runtime versus the
//! seed's per-report paths, at the acceptance workload `d = 1024`,
//! `n = 100_000`, ε = 1.
//!
//! Every sharded scenario runs the one fold entry point —
//! [`FnStage`] + `Exec::in_process().fold` — over the whole input in one
//! chunk. Three aggregation implementations are raced for OUE-style bit
//! reports:
//!
//! * `per_bit` — the naive loop (`get(i)` over the whole domain),
//! * `iter_ones` — the seed's per-set-bit counter increments,
//! * `colsum` — the word-parallel bit-sliced column sums (`absorb_all`),
//!   single-threaded and sharded across `MCIM_THREADS` workers.
//!
//! An `exec_plan` slice additionally sweeps `(threads, chunk)` plans of
//! one full frequency pipeline at `d = 1024`, `n = 1M`
//! (`MCIM_BENCH_EXEC_N` overrides): one thread at the default chunk
//! (`exec_plan_sequential`), `MCIM_THREADS` workers over one whole-input
//! chunk (`exec_plan_batch_tn`) and at the default chunk
//! (`exec_plan_stream_tn`). The two multi-thread plans must stay within
//! noise of each other, and on multi-core machines both must keep their
//! multiple over one thread (the JSON's `cores` field records the
//! machine's real parallelism — on one core the three plans are expected
//! to tie).
//!
//! A `dist_reduce` slice then races the same pipeline on the
//! multi-process distributed reducer with 1, 2 and 4 locally spawned
//! worker processes (loopback TCP, real `mcim-dist` Worker runtime):
//! `dist_reduce_w1` vs `exec_plan_stream_tn` prices the protocol tax,
//! `dist_reduce_w4_vs_w1` the multi-process scaling — all bit-identical
//! outputs by the executor contract.
//!
//! A `pipeline` slice times the four Fig. 6 frameworks end to end
//! (`pipeline_<fw>`: n = 20k, c = 4, d = 256, ε = 2, one thread).
//!
//! Prints a table, saves `results/oracle_throughput.csv`, and emits the
//! machine-readable baseline `results/BENCH_oracle_throughput.json` that
//! the CI uploads so later PRs can track the perf trajectory.
//!
//! Run: `cargo bench -p mcim-bench --bench oracle_throughput`
//! (`MCIM_BENCH_N` shrinks the workload for smoke tests.)

// Timing tool: measuring wall-clock time is this target's whole job
// (mcim-lint classifies benches as Tool; clippy needs the explicit allow).
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

use mcim_bench::{results_dir, Table};
use mcim_core::{
    CorrelatedPerturbation, CpAggregator, Domains, Framework, LabelItem, ValidityInput,
    ValidityPerturbation, VpAggregator,
};
use mcim_oracles::exec::{Exec, Executor as _, FnStage};
use mcim_oracles::stream::SliceSource;
use mcim_oracles::wire::WireState;
use mcim_oracles::{parallel, Aggregator, Eps, Oracle, Report, Result};
use rand::rngs::StdRng;

const D: u32 = 1024;
const EPS: f64 = 1.0;

struct Scenario {
    name: &'static str,
    /// Best-of-trials wall time in milliseconds.
    ms: f64,
    /// Reports per second implied by `ms`.
    reports_per_sec: f64,
}

/// Best-of-`trials` wall time of `f`, in milliseconds. `f` must return
/// something data-dependent so the work cannot be optimized away.
fn time<T: std::fmt::Debug>(trials: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("at least one trial"))
}

fn scenario(name: &'static str, n: usize, trials: usize, f: impl FnMut() -> u64) -> Scenario {
    let mut f = f;
    let (ms, checksum) = time(trials, &mut f);
    // Keep the checksum alive (and visible when scenarios disagree).
    std::hint::black_box(checksum);
    Scenario {
        name,
        ms,
        reports_per_sec: n as f64 / (ms / 1e3),
    }
}

/// Privatizes `items` one report at a time, shard `s` with
/// `shard_rng(seed, s)` — the streams a sharded stage draws. Untimed
/// set-up for the aggregation scenarios.
fn privatize_all<T, R>(items: &[T], seed: u64, f: impl Fn(&T, &mut StdRng) -> R) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    for (shard, chunk) in items.chunks(parallel::SHARD_SIZE).enumerate() {
        let mut rng = parallel::shard_rng(seed, shard as u64);
        out.extend(chunk.iter().map(|item| f(item, &mut rng)));
    }
    out
}

/// Absorbs `reports` through an [`FnStage`] of the aggregator's block
/// `absorb_all` and `merge`, folded in-process on `threads` workers over
/// the whole input in one chunk.
fn fold_absorb<R, A>(
    reports: &[R],
    template: &A,
    threads: usize,
    absorb_all: impl Fn(&mut A, &[R]) -> Result<()> + Sync,
    merge: impl Fn(&mut A, &A) -> Result<()> + Sync,
) -> A
where
    R: Sync,
    A: Clone + Send + Sync + WireState,
{
    // Stream items are report positions; each shard fragment absorbs the
    // reports it covers as one block.
    let positions: Vec<u32> = (0..reports.len() as u32).collect();
    let stage = FnStage::new(
        template.clone(),
        |_rng, abs, items: &[u32], acc: &mut A| {
            let start = abs as usize;
            absorb_all(acc, &reports[start..start + items.len()])
        },
        merge,
    );
    Exec::new()
        .threads(threads)
        .chunk_size(reports.len())
        .in_process()
        .fold(&mut SliceSource::new(&positions), 0, &stage)
        .expect("absorbing valid reports")
}

fn main() {
    let n: usize = std::env::var("MCIM_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let trials: usize = std::env::var("MCIM_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let threads = parallel::configured_threads();
    let eps = Eps::new(EPS).unwrap();
    println!("== oracle_throughput | d={D} n={n} eps={EPS} threads={threads} trials={trials} ==");

    let mut scenarios: Vec<Scenario> = Vec::new();

    // ---------------------------------------------------------- OUE ----
    let oue = Oracle::oue(eps, D).unwrap();
    let values: Vec<u32> = (0..n as u32).map(|u| u % D).collect();
    scenarios.push(scenario("oue_privatize_seq", n, trials, || {
        // The seed path: one report at a time from a single RNG stream.
        let mut rng = parallel::shard_rng(1, 0);
        let mut acc = 0u64;
        for &v in &values {
            if let Report::Bits(b) = oue.privatize(v, &mut rng).unwrap() {
                acc = acc.wrapping_add(b.count_ones() as u64);
            }
        }
        acc
    }));
    // The same per-report privatize loop as a stage sharded across
    // `MCIM_THREADS` workers.
    let privatize_stage = FnStage::new(
        0u64,
        |rng, _abs, chunk: &[u32], acc: &mut u64| {
            for &v in chunk {
                if let Report::Bits(b) = oue.privatize(v, rng)? {
                    *acc = acc.wrapping_add(b.count_ones() as u64);
                }
            }
            Ok(())
        },
        |a: &mut u64, b: &u64| {
            *a = a.wrapping_add(*b);
            Ok(())
        },
    );
    scenarios.push(scenario("oue_privatize_batch_tn", n, trials, || {
        Exec::new()
            .threads(threads)
            .chunk_size(n)
            .in_process()
            .fold(&mut SliceSource::new(&values), 1, &privatize_stage)
            .unwrap()
    }));

    let reports = privatize_all(&values, 2, |&v, rng| oue.privatize(v, rng).unwrap());
    let bit_reports: Vec<&mcim_oracles::BitVec> = reports
        .iter()
        .map(|r| match r {
            Report::Bits(b) => b,
            _ => unreachable!("OUE emits bit reports"),
        })
        .collect();

    scenarios.push(scenario("oue_aggregate_per_bit", n, trials, || {
        // Naive per-bit scan: the path the column sums replace.
        let mut counts = vec![0u64; D as usize];
        for bits in &bit_reports {
            for (i, c) in counts.iter_mut().enumerate() {
                *c += u64::from(bits.get(i));
            }
        }
        counts.iter().sum()
    }));
    scenarios.push(scenario("oue_aggregate_iter_ones", n, trials, || {
        // The seed's absorb loop: per-set-bit scattered increments.
        let mut counts = vec![0u64; D as usize];
        for bits in &bit_reports {
            for i in bits.iter_ones() {
                counts[i] += 1;
            }
        }
        counts.iter().sum()
    }));
    let oue_template = Aggregator::new(&oue);
    let oue_colsum = |threads: usize| {
        let agg = fold_absorb(
            &reports,
            &oue_template,
            threads,
            |agg, block| agg.absorb_all(block),
            Aggregator::merge,
        );
        agg.raw_counts().iter().sum()
    };
    scenarios.push(scenario("oue_aggregate_colsum_t1", n, trials, || {
        oue_colsum(1)
    }));
    scenarios.push(scenario("oue_aggregate_colsum_tn", n, trials, || {
        oue_colsum(threads)
    }));

    // ----------------------------------------------------------- VP ----
    let vp = ValidityPerturbation::new(eps, D).unwrap();
    let vp_inputs: Vec<ValidityInput> = (0..n as u32)
        .map(|u| {
            if u % 5 == 0 {
                ValidityInput::Invalid
            } else {
                ValidityInput::Valid(u % D)
            }
        })
        .collect();
    let vp_reports = privatize_all(&vp_inputs, 3, |&input, rng| {
        vp.privatize(input, rng).unwrap()
    });
    scenarios.push(scenario("vp_aggregate_absorb", n, trials, || {
        let mut agg = VpAggregator::new(&vp);
        for r in &vp_reports {
            agg.absorb(r).unwrap();
        }
        agg.raw_counts().iter().sum()
    }));
    scenarios.push(scenario("vp_aggregate_colsum_tn", n, trials, || {
        let agg = fold_absorb(
            &vp_reports,
            &VpAggregator::new(&vp),
            threads,
            |agg, block| agg.absorb_all(block),
            VpAggregator::merge,
        );
        agg.raw_counts().iter().sum()
    }));

    // ----------------------------------------------------------- CP ----
    let domains = Domains::new(8, D).unwrap();
    let cp = CorrelatedPerturbation::with_total(Eps::new(2.0).unwrap(), domains).unwrap();
    let cp_pairs: Vec<LabelItem> = (0..n as u32)
        .map(|u| LabelItem::new(u % 8, (u * 13) % D))
        .collect();
    let cp_reports = privatize_all(&cp_pairs, 4, |&pair, rng| cp.privatize(pair, rng).unwrap());
    scenarios.push(scenario("cp_aggregate_absorb", n, trials, || {
        let mut agg = CpAggregator::new(&cp);
        for r in &cp_reports {
            agg.absorb(r).unwrap();
        }
        agg.report_count()
    }));
    scenarios.push(scenario("cp_aggregate_colsum_tn", n, trials, || {
        let agg = fold_absorb(
            &cp_reports,
            &CpAggregator::new(&cp),
            threads,
            |agg, block| agg.absorb_all(block),
            CpAggregator::merge,
        );
        agg.report_count()
    }));

    // ---------------------------------------------------------- OLH ----
    // O(n·d) hashing dominates; keep the report count in check.
    let olh_n = (n / 10).max(1);
    let olh = Oracle::olh(Eps::new(2.0).unwrap(), D).unwrap();
    let olh_values: Vec<u32> = (0..olh_n as u32).map(|u| u % D).collect();
    let olh_reports = privatize_all(&olh_values, 5, |&v, rng| olh.privatize(v, rng).unwrap());
    let olh_mech = match &olh {
        Oracle::Olh(m) => m.clone(),
        _ => unreachable!(),
    };
    scenarios.push(scenario("olh_aggregate_per_pair", olh_n, trials, || {
        // The seed path: re-derive the seed state for every (report, value).
        let mut counts = vec![0u64; D as usize];
        for r in &olh_reports {
            if let Report::Hashed(h) = r {
                for v in 0..D {
                    if olh_mech.supports(h, v) {
                        counts[v as usize] += 1;
                    }
                }
            }
        }
        counts.iter().sum()
    }));
    scenarios.push(scenario("olh_aggregate_blocked_tn", olh_n, trials, || {
        let agg = fold_absorb(
            &olh_reports,
            &Aggregator::new(&olh),
            threads,
            |agg, block| agg.absorb_all(block),
            Aggregator::merge,
        );
        agg.raw_counts().iter().sum()
    }));
    // The candidate-set entry point (PEM-style aggregation over an explicit
    // candidate list, here the full domain).
    let hashed: Vec<mcim_oracles::OlhReport> = olh_reports
        .iter()
        .map(|r| match r {
            Report::Hashed(h) => *h,
            _ => unreachable!("OLH emits hashed reports"),
        })
        .collect();
    let candidates: Vec<u32> = (0..D).collect();
    scenarios.push(scenario(
        "olh_aggregate_candidate_set",
        olh_n,
        trials,
        || olh_mech.support_counts(&hashed, &candidates).iter().sum(),
    ));

    // ------------------------------------------------- exec dispatch ----
    // The `Exec` plan layer must cost nothing measurable over driving the
    // sharded machinery directly: sweep `(threads, chunk)` plans of one
    // full frequency pipeline (PTS: GRR label + OUE item per user) end to
    // end.
    let exec_n: usize = std::env::var("MCIM_BENCH_EXEC_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| (10 * n).min(1_000_000));
    let exec_domains = Domains::new(8, D).unwrap();
    let exec_pairs: Vec<LabelItem> = (0..exec_n as u32)
        .map(|u| LabelItem::new(u % 8, (u * 13) % D))
        .collect();
    let exec_fw = Framework::Pts { label_frac: 0.5 };
    let run_plan = |plan: &Exec| {
        let result = exec_fw
            .execute(eps, exec_domains, plan, SliceSource::new(&exec_pairs))
            .unwrap();
        result.comm.total_report_bits ^ result.table.get(0, 0).to_bits()
    };
    scenarios.push(scenario("exec_plan_sequential", exec_n, trials, || {
        run_plan(&Exec::seeded(6).threads(1))
    }));
    let whole_input_plan = Exec::seeded(6).threads(threads).chunk_size(exec_n);
    scenarios.push(scenario("exec_plan_batch_tn", exec_n, trials, || {
        run_plan(&whole_input_plan)
    }));
    scenarios.push(scenario("exec_plan_stream_tn", exec_n, trials, || {
        run_plan(&Exec::seeded(6).threads(threads))
    }));

    // ---------------------------------------------------- metrics tax ----
    // The same whole-input pipeline with the global `mcim_obs` registry
    // recording. Disabled (every scenario above), each instrumentation
    // site folds to one relaxed atomic load, so the plain scenarios
    // already price the off path; enabled it must stay within noise —
    // the JSON's `metrics_overhead_batch_tn` is the enabled/disabled
    // wall-time ratio (acceptance gate: ≤ 1.03). The snapshot recorded
    // here is embedded in the JSON artifact under `obs`.
    mcim_obs::reset();
    mcim_obs::set_enabled(true);
    scenarios.push(scenario(
        "exec_plan_batch_tn_metrics",
        exec_n,
        trials,
        || run_plan(&whole_input_plan),
    ));
    mcim_obs::set_enabled(false);
    let obs_snapshot = mcim_obs::snapshot();
    mcim_obs::reset();

    // ------------------------------------------------- dist reduce ----
    // The distributed reducer racing the in-process executor on the same
    // PTS pipeline: 1/2/4 locally spawned worker *processes* (loopback
    // TCP, the real `Worker` runtime via the mcim-bench-worker bin).
    // Workers fold their shard ranges single-threaded, so the scaling
    // story is worker count, not threads; `dist_reduce_w1` vs
    // `exec_plan_stream_tn` is the protocol's serialization+socket tax.
    let worker_bin = std::path::Path::new(env!("CARGO_BIN_EXE_mcim-bench-worker"));
    for workers in [1usize, 2, 4] {
        let name: &'static str = match workers {
            1 => "dist_reduce_w1",
            2 => "dist_reduce_w2",
            _ => "dist_reduce_w4",
        };
        // Spawn/connect once per worker count; the timed closure measures
        // the fold itself (serialization, sockets, worker compute), not
        // process startup.
        let spawned =
            mcim_dist::spawn_local_workers(worker_bin, workers).expect("spawning workers");
        let plan = Exec::seeded(6).threads(threads);
        let coordinator =
            mcim_dist::Coordinator::connect(&plan, &spawned.addrs).expect("connecting");
        scenarios.push(scenario(name, exec_n, trials, || {
            let result = exec_fw
                .execute_on(
                    &coordinator,
                    eps,
                    exec_domains,
                    SliceSource::new(&exec_pairs),
                )
                .unwrap();
            result.comm.total_report_bits ^ result.table.get(0, 0).to_bits()
        }));
        drop(coordinator);
        drop(spawned);
    }

    // ------------------------------------------------------ pipeline ----
    // The four Fig. 6 frameworks end to end (client privatization +
    // server aggregation + calibration) on one thread.
    let pipeline_domains = Domains::new(4, 256).unwrap();
    let pipeline_n = 20_000usize;
    let pipeline_pairs: Vec<LabelItem> = (0..pipeline_n as u32)
        .map(|u| LabelItem::new(u % 4, (u * 31) % 256))
        .collect();
    let pipeline_eps = Eps::new(2.0).unwrap();
    let pipeline_plan = Exec::seeded(9).threads(1);
    for fw in Framework::fig6_set() {
        let name: &'static str = match fw {
            Framework::Hec => "pipeline_hec",
            Framework::Ptj => "pipeline_ptj",
            Framework::Pts { .. } => "pipeline_pts",
            Framework::PtsCp { .. } => "pipeline_pts_cp",
        };
        scenarios.push(scenario(name, pipeline_n, trials, || {
            let result = fw
                .execute(
                    pipeline_eps,
                    pipeline_domains,
                    &pipeline_plan,
                    SliceSource::new(&pipeline_pairs),
                )
                .unwrap();
            result.comm.total_report_bits ^ result.table.get(0, 0).to_bits()
        }));
    }

    // ------------------------------------------------------- results ----
    let mut table = Table::new("oracle_throughput", &["scenario", "ms", "reports_per_sec"]);
    for s in &scenarios {
        table.push(vec![
            s.name.to_string(),
            format!("{:.2}", s.ms),
            format!("{:.0}", s.reports_per_sec),
        ]);
    }
    table.print_and_save().expect("saving CSV");

    let ms_of = |name: &str| {
        scenarios
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.ms)
            .expect("scenario present")
    };
    let speedups = [
        (
            "oue_colsum_t1_vs_per_bit",
            ms_of("oue_aggregate_per_bit") / ms_of("oue_aggregate_colsum_t1"),
        ),
        (
            "oue_colsum_t1_vs_iter_ones",
            ms_of("oue_aggregate_iter_ones") / ms_of("oue_aggregate_colsum_t1"),
        ),
        (
            "oue_colsum_tn_vs_per_bit",
            ms_of("oue_aggregate_per_bit") / ms_of("oue_aggregate_colsum_tn"),
        ),
        (
            "vp_colsum_tn_vs_absorb",
            ms_of("vp_aggregate_absorb") / ms_of("vp_aggregate_colsum_tn"),
        ),
        (
            "cp_colsum_tn_vs_absorb",
            ms_of("cp_aggregate_absorb") / ms_of("cp_aggregate_colsum_tn"),
        ),
        (
            "olh_blocked_tn_vs_per_pair",
            ms_of("olh_aggregate_per_pair") / ms_of("olh_aggregate_blocked_tn"),
        ),
        (
            "oue_privatize_batch_tn_vs_seq",
            ms_of("oue_privatize_seq") / ms_of("oue_privatize_batch_tn"),
        ),
        (
            "exec_plan_batch_tn_vs_sequential",
            ms_of("exec_plan_sequential") / ms_of("exec_plan_batch_tn"),
        ),
        (
            "exec_plan_stream_tn_vs_batch_tn",
            ms_of("exec_plan_batch_tn") / ms_of("exec_plan_stream_tn"),
        ),
        (
            "dist_reduce_w4_vs_w1",
            ms_of("dist_reduce_w1") / ms_of("dist_reduce_w4"),
        ),
        (
            "dist_reduce_w4_vs_stream_tn",
            ms_of("exec_plan_stream_tn") / ms_of("dist_reduce_w4"),
        ),
    ];
    println!("speedups:");
    for (name, x) in &speedups {
        println!("  {name:>32}  {x:.2}x");
    }
    let metrics_overhead = ms_of("exec_plan_batch_tn_metrics") / ms_of("exec_plan_batch_tn");
    println!("metrics overhead (exec_plan_batch_tn, enabled/disabled): {metrics_overhead:.3}x");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"oracle_throughput\",");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let _ = writeln!(
        json,
        "  \"config\": {{ \"d\": {D}, \"n\": {n}, \"exec_n\": {exec_n}, \"eps\": {EPS}, \"threads\": {threads}, \"cores\": {cores}, \"trials\": {trials} }},"
    );
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, s) in scenarios.iter().enumerate() {
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"ms\": {:.3}, \"reports_per_sec\": {:.0} }}{comma}",
            s.name, s.ms, s.reports_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    for (i, (name, x)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {x:.2}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"metrics_overhead_batch_tn\": {metrics_overhead:.3},"
    );
    let _ = writeln!(json, "  \"obs\": {}", obs_snapshot.to_json().trim_end());
    let _ = writeln!(json, "}}");

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("BENCH_oracle_throughput.json");
    std::fs::write(&path, json).expect("writing JSON baseline");
    println!("[saved {}]", path.display());
}
