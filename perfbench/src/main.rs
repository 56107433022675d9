//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Generates a workload's inputs from `--seed`, drives the public pipeline
//! entry points on them for `--seconds`, checks every output, and prints a
//! manifest line, one line per metric, and finally one JSON object:
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. `--smoke` shrinks every workload to a few shards. Any
//! error exits non-zero without printing a result. See README.md for the
//! workloads and the metric → layer → workload map.
//!
//! The binary also serves as its own distributed worker
//! (`perfbench worker --listen <addr> --once`), which is how the
//! `freq-cp-dist-d64` workload spawns its worker processes.

// Timing tool: measuring wall-clock time is this binary's whole job.
#![allow(clippy::disallowed_methods)]

mod freq;
mod ledger;
mod measure;
mod topk;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use mcim_oracles::exec::{Exec, RngContract};
use mcim_oracles::hash::splitmix64;
use mcim_oracles::stream::DEFAULT_CHUNK_ITEMS;

use measure::Checks;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Users per workload: 256 whole shards, "about 1M".
const USERS: usize = 1 << 20;
/// Users per workload in `--smoke` mode: 8 shards, enough for two workers.
const SMOKE_USERS: usize = 1 << 15;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Items pulled per ingestion chunk (and per network round on the dist
/// backend), set explicitly rather than left to the library default.
pub const CHUNK_ITEMS: usize = DEFAULT_CHUNK_ITEMS;

/// End-to-end metrics (`--trace 0`), as named in BENCHMARK.json.
const END_TO_END: &[(&str, &str)] = &[
    ("users_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("uplink_bits_per_user", "bit"),
];

/// Per-layer metrics (`--trace 1`), as named in BENCHMARK.json. A layer
/// that is not on a workload's path reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("frameworks.privatize_ns_per_user", "ns"),
    ("colsum.absorb_ns_per_user", "ns"),
    ("frameworks.merge_us_per_fold", "us"),
    ("calibrate.estimate_ms", "ms"),
    ("server.ns_per_user", "ns"),
    ("exec.fold_reports", "count"),
    ("exec.fold_chunks", "count"),
    ("exec.shard_fragments", "count"),
    ("sources.decode_ns_per_user", "ns"),
    ("topk.mine_ns_per_user", "ns"),
    ("dist.tx_bytes_per_user", "B"),
    ("dist.rx_bytes_per_fold", "B"),
    ("dist.frames_per_fold", "count"),
    ("dist.round_trips_per_fold", "count"),
    ("dist.protocol_tax", "ratio"),
    ("dist.reroutes", "count"),
    ("dist.worker_errors", "count"),
    ("dist.connect_retries", "count"),
    ("trace.reconcile", "ratio"),
    ("trace.overhead", "ratio"),
    ("rmse_over_sigma", "ratio"),
    ("f1_at_k", "ratio"),
    ("ncr_at_k", "ratio"),
    ("broadcast_bits_per_user", "bit"),
    ("error_rate", "ratio"),
];

/// Domain shape of a workload, for the manifest.
pub struct Shape {
    pub classes: u32,
    pub items: u32,
    pub eps: f64,
    pub workers: bool,
}

struct Workload {
    name: &'static str,
    shape: Shape,
    run: fn(&mut Ctx) -> Result<()>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "freq-pts-d1024",
        shape: freq::PTS_SHAPE,
        run: freq::pts_d1024,
    },
    Workload {
        name: "topk-jd-csv",
        shape: topk::SHAPE,
        run: topk::jd_csv,
    },
    Workload {
        name: "freq-cp-dist-d64",
        shape: freq::CP_DIST_SHAPE,
        run: freq::cp_dist_d64,
    },
];

/// One run's parameters, check tally and collected metrics.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    /// Worker threads and dist worker processes: the machine's parallelism.
    pub threads: usize,
    pub users: usize,
    pub trace: bool,
    pub checks: Checks,
    metrics: BTreeMap<&'static str, f64>,
}

impl Ctx {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets the exact fold counts of the in-process executor from an
    /// `mcim-obs` snapshot.
    pub fn set_exec_counts(&mut self, snap: &mcim_obs::Snapshot) {
        for (metric, counter) in [
            ("exec.fold_reports", "mcim_fold_reports_total"),
            ("exec.fold_chunks", "mcim_fold_chunks_total"),
            ("exec.shard_fragments", "mcim_fold_shard_fragments_total"),
        ] {
            self.set(metric, measure::counter_sum(snap, counter) as f64);
        }
    }

    /// Seed of the input generator of input `instance` (independent of
    /// the privatization seed).
    pub fn data_seed(&self, instance: u64) -> u64 {
        splitmix64(splitmix64(self.seed ^ 0xDA7A_5EED_0000_0001).wrapping_add(instance))
    }

    /// The execution plan of input `instance`: seed, threads and chunk all
    /// set explicitly.
    pub fn plan(&self, instance: u64) -> Exec {
        Exec::seeded(splitmix64(
            splitmix64(self.seed ^ 0xE0EC_5EED_0000_0002).wrapping_add(instance),
        ))
        .threads(self.threads)
        .chunk_size(CHUNK_ITEMS)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse()?),
            "--seconds" => seconds = Some(value()?.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]").into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("worker") {
        worker(&argv[1..])
    } else {
        bench(&argv)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `worker --listen <addr> --once`: the loop of a spawned dist worker
/// (`spawn_local_workers` passes exactly these arguments).
fn worker(argv: &[String]) -> Result<()> {
    match argv {
        [listen, addr, once] if listen == "--listen" && once == "--once" => {
            Ok(mcim_dist::worker_main(addr, true)?)
        }
        _ => Err("usage: perfbench worker --listen <addr> --once".into()),
    }
}

fn bench(argv: &[String]) -> Result<()> {
    let args = parse_args(argv)?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let threads = std::thread::available_parallelism()?.get();
    let mut ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        threads,
        users: if args.smoke { SMOKE_USERS } else { USERS },
        trace: args.trace,
        checks: Checks::default(),
        metrics: BTreeMap::new(),
    };
    (workload.run)(&mut ctx)?;

    let shape = &workload.shape;
    println!(
        "manifest {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{threads},\"threads\":{threads},\
         \"workers\":{},\"users\":{},\"classes\":{},\"items\":{},\"eps\":{},\"rng_contract\":{},\
         \"protocol_version\":{},\"commit\":\"{}\",\"source_digest\":\"{:016x}\"}}",
        workload.name,
        ctx.seed,
        u8::from(ctx.trace),
        if shape.workers { threads } else { 0 },
        ctx.users,
        shape.classes,
        shape.items,
        shape.eps,
        RngContract::CURRENT_VERSION,
        mcim_dist::PROTOCOL_VERSION,
        commit(repo_root()),
        source_digest(repo_root())?,
    );

    let error_rate = ctx.checks.error_rate();
    let declared = if ctx.trace {
        ctx.set("error_rate", error_rate);
        PER_LAYER
    } else {
        END_TO_END
    };
    if let Some(stray) = ctx
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {stray} is not declared for this mode").into());
    }
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match ctx.metrics.get(name) {
            Some(&v) => v,
            None if ctx.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured").into()),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}").into());
        }
        println!("metric {name} {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.checks.failed == 0,
        ctx.checks.attempted,
        ctx.checks.failed,
        fields.join(", ")
    );
    Ok(())
}

/// The repository root this benchmark was built from.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The checked-out commit read from `.git`, or `unknown` outside a git
/// checkout (the source digest identifies the code either way).
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the relative paths and contents of every source file the
/// benchmark builds from, in sorted order.
fn source_digest(root: &Path) -> Result<u64> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "src", "vendor", "perfbench/src"]
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    files.extend(
        ["Cargo.toml", "Cargo.lock"]
            .iter()
            .map(|f| root.join(f))
            .filter(|f| f.is_file()),
    );
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        for byte in rel.bytes().chain(std::fs::read(&file)?) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(hash)
}
