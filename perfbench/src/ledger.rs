//! The layer ledger of a framework fold, recorded from outside.
//!
//! `trace_fold` replays the shard walk `Framework::execute_on` makes on the
//! in-process executor — the same chunks, the same per-worker shard ranges,
//! `shard_rng(seed, shard)` per shard — through the public `FwArm` calls,
//! on the calling thread, reading the clock once per shard fragment around
//! each layer. Its table must equal the end-to-end table bit for bit;
//! otherwise its layer times would describe a different program.

use std::time::{Duration, Instant};

use mcim_core::frameworks::stages::FwArm;
use mcim_core::frameworks::PtsAggregator;
use mcim_core::{CommStats, CpAggregator, FrequencyTable, LabelItem};
use mcim_oracles::parallel::{shard_rng, SHARD_SIZE};

use crate::Result;

/// The aggregator's calibration step (`estimate`), common to the arms the
/// benchmark traces.
pub trait Estimate {
    fn estimate_table(&self) -> FrequencyTable;
}

impl Estimate for PtsAggregator {
    fn estimate_table(&self) -> FrequencyTable {
        self.estimate()
    }
}

impl Estimate for CpAggregator {
    fn estimate_table(&self) -> FrequencyTable {
        self.estimate()
    }
}

/// Busy time per layer of one traced fold.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    /// Client simulation: `FwArm::privatize` plus uplink pricing.
    pub privatize: Duration,
    /// `FwArm::absorb` (the colsum word walk).
    pub absorb: Duration,
    /// `FwArm::merge` of per-worker partials.
    pub merge: Duration,
    /// Aggregator `estimate` (calibration).
    pub estimate: Duration,
}

impl Layers {
    pub fn total(&self) -> Duration {
        self.privatize + self.absorb + self.merge + self.estimate
    }
}

/// Output and timing of one traced fold.
pub struct Traced {
    pub table: FrequencyTable,
    pub comm: CommStats,
    pub layers: Layers,
    /// Wall time of the whole traced fold, clock reads included.
    pub wall: Duration,
}

/// Folds `pairs` through `arm` as the in-process executor does with
/// `threads` workers and `chunk` items per chunk, timing each layer.
pub fn trace_fold<M>(
    arm: &M,
    seed: u64,
    pairs: &[LabelItem],
    threads: usize,
    chunk: usize,
) -> Result<Traced>
where
    M: FwArm,
    M::Agg: Estimate,
{
    // Chunks that start on shard boundaries never split a shard, so the
    // only partial fragment is the input's last shard.
    if chunk == 0 || chunk % SHARD_SIZE != 0 {
        return Err(
            format!("chunk {chunk} is not a whole number of {SHARD_SIZE}-item shards").into(),
        );
    }
    let start = Instant::now();
    let mut walk = Walk {
        arm,
        seed,
        scratch: Vec::with_capacity(SHARD_SIZE),
        layers: Layers::default(),
    };
    let mut acc = arm.new_agg();
    let mut comm = CommStats::default();
    for (c, block) in pairs.chunks(chunk).enumerate() {
        let first = c * chunk;
        let full = block.len() / SHARD_SIZE * SHARD_SIZE;
        let shards: Vec<&[LabelItem]> = block[..full].chunks(SHARD_SIZE).collect();
        let workers = threads.max(1).min(shards.len());
        if workers <= 1 {
            for (i, shard) in shards.iter().enumerate() {
                walk.fragment(first + i * SHARD_SIZE, shard, &mut acc, &mut comm)?;
            }
        } else {
            for range in worker_ranges(shards.len(), workers) {
                let mut part = arm.new_agg();
                let mut part_comm = CommStats::default();
                for i in range {
                    walk.fragment(first + i * SHARD_SIZE, shards[i], &mut part, &mut part_comm)?;
                }
                let t = Instant::now();
                M::merge(&mut acc, &part)?;
                comm.merge(part_comm);
                walk.layers.merge += t.elapsed();
            }
        }
        if full < block.len() {
            walk.fragment(first + full, &block[full..], &mut acc, &mut comm)?;
        }
    }
    let t = Instant::now();
    let table = acc.estimate_table();
    walk.layers.estimate = t.elapsed();
    Ok(Traced {
        table,
        comm,
        layers: walk.layers,
        wall: start.elapsed(),
    })
}

/// The per-fragment half of a traced fold: the arm, the stream seed, the
/// reusable report block and the layer clock.
struct Walk<'a, M: FwArm> {
    arm: &'a M,
    seed: u64,
    scratch: Vec<M::Rep>,
    layers: Layers,
}

impl<M: FwArm> Walk<'_, M> {
    /// Privatizes the fragment starting at absolute position `abs` (always
    /// a shard's first item here) into `agg`, then absorbs it.
    fn fragment(
        &mut self,
        abs: usize,
        items: &[LabelItem],
        agg: &mut M::Agg,
        comm: &mut CommStats,
    ) -> Result<()> {
        let mut rng = shard_rng(self.seed, (abs / SHARD_SIZE) as u64);
        let t0 = Instant::now();
        self.scratch.clear();
        for (i, &pair) in items.iter().enumerate() {
            let report = self.arm.privatize(&mut rng, (abs + i) as u64, pair)?;
            comm.record(M::report_bits(&report));
            self.scratch.push(report);
        }
        let t1 = Instant::now();
        self.arm.absorb(agg, &self.scratch)?;
        self.layers.privatize += t1 - t0;
        self.layers.absorb += t1.elapsed();
        Ok(())
    }
}

/// Contiguous shard ranges per worker, the first `n % workers` one longer —
/// the in-process executor's static partition.
fn worker_ranges(n: usize, workers: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let (base, extra) = (n / workers, n % workers);
    let mut start = 0;
    (0..workers).map(move |w| {
        let len = base + usize::from(w < extra);
        let range = start..start + len;
        start += len;
        range
    })
}
