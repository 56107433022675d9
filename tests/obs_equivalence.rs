//! The observability non-interference net: metrics collection must be
//! invisible to every estimate, and the snapshots themselves must be
//! deterministic.
//!
//! Two claims are pinned here, across a `(threads, chunk)` grid of `Exec`
//! plans:
//!
//! 1. **Bit-identity on/off.** A pipeline run with the global registry
//!    recording is bit-identical to the same run with recording off —
//!    nothing downstream of a counter or a span feeds back into an
//!    estimate.
//! 2. **Snapshot determinism.** Two identical runs produce identical
//!    snapshots modulo timing fields (`Snapshot::without_timing` strips
//!    exactly those); under an injected `ManualClock` the snapshots are
//!    identical outright, timing included.
//!
//! The registry, toggle and clock are process-wide, so every test here
//! serializes on one mutex.

use std::sync::Mutex;

use multiclass_ldp::obs;
use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig};

static OBS_STATE: Mutex<()> = Mutex::new(());
static MANUAL: obs::ManualClock = obs::ManualClock::new();
static MONOTONIC: obs::MonotonicClock = obs::MonotonicClock::new();

const SHARD: usize = parallel::SHARD_SIZE;

fn sample_pairs(domains: Domains, n: usize) -> Vec<LabelItem> {
    (0..n)
        .map(|u| {
            LabelItem::new(
                (u % domains.classes() as usize) as u32,
                ((u * 7919) % domains.items() as usize) as u32,
            )
        })
        .collect()
}

/// A `(threads, chunk)` grid of fully pinned plans for an `n`-item
/// input: shard-splitting chunks at four threads, one thread at the
/// default chunk, and the whole input in one chunk.
fn grid_plans(seed: u64, n: usize) -> [(&'static str, Exec); 4] {
    [
        (
            "t4/shard+1",
            Exec::seeded(seed).threads(4).chunk_size(SHARD + 1),
        ),
        ("t1/default", Exec::seeded(seed).threads(1)),
        ("t4/whole", Exec::seeded(seed).threads(4).chunk_size(n)),
        (
            "t4/shard-1",
            Exec::seeded(seed).threads(4).chunk_size(SHARD - 1),
        ),
    ]
}

/// Runs PTS-CP under `plan` with recording toggled as asked; returns the
/// estimate table as raw bits plus the snapshot recorded along the way.
fn run(
    plan: &Exec,
    data: &[LabelItem],
    domains: Domains,
    record: bool,
) -> (Vec<u64>, obs::Snapshot) {
    obs::reset();
    obs::set_enabled(record);
    let result = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            Eps::new(2.0).unwrap(),
            domains,
            plan,
            SliceSource::new(data),
        )
        .unwrap();
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    let mut bits = Vec::new();
    for label in 0..domains.classes() {
        for item in 0..domains.items() {
            bits.push(result.table.get(label, item).to_bits());
        }
    }
    (bits, snap)
}

#[test]
fn metrics_on_and_off_are_bit_identical_in_every_mode() {
    let _guard = OBS_STATE.lock().unwrap_or_else(|p| p.into_inner());
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_pairs(domains, SHARD + 700);
    for (mode, plan) in grid_plans(0x0B5_2025, data.len()) {
        let (off, off_snap) = run(&plan, &data, domains, false);
        let (on, on_snap) = run(&plan, &data, domains, true);
        assert_eq!(off, on, "{mode}: recording metrics changed the estimates");
        assert!(off_snap.is_empty(), "{mode}: disabled run left a snapshot");
        assert!(
            on_snap.counters.contains_key("mcim_folds_total"),
            "{mode}: enabled run recorded nothing"
        );
    }
}

#[test]
fn identical_runs_snapshot_identically_modulo_timing() {
    let _guard = OBS_STATE.lock().unwrap_or_else(|p| p.into_inner());
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_pairs(domains, SHARD + 700);
    for (mode, plan) in grid_plans(0x0B5_2026, data.len()) {
        // Real clock vs a manual clock at rest: every timing field
        // differs, everything work-derived must not.
        obs::set_clock(&MONOTONIC);
        let (_, real) = run(&plan, &data, domains, true);
        obs::set_clock(&MANUAL);
        let (_, manual_a) = run(&plan, &data, domains, true);
        let (_, manual_b) = run(&plan, &data, domains, true);
        assert_eq!(
            real.without_timing(),
            manual_a.without_timing(),
            "{mode}: snapshots diverged beyond timing fields"
        );
        // Under the injected clock the whole snapshot is reproducible,
        // histogram sums and buckets included.
        assert_eq!(
            manual_a, manual_b,
            "{mode}: identical runs under a manual clock diverged"
        );
        // Sanity: the timing strip keeps counts but zeroes durations.
        for (key, h) in &manual_a.histograms {
            assert!(h.count > 0, "{mode}: {key} observed nothing");
            assert_eq!(h.sum, 0, "{mode}: manual clock at rest must sum to 0");
        }
    }
    obs::set_clock(&MONOTONIC);
}

#[test]
fn pem_round_counters_are_work_derived_and_mode_invariant() {
    let _guard = OBS_STATE.lock().unwrap_or_else(|p| p.into_inner());
    let items: Vec<Option<u32>> = (0..SHARD + 2200)
        .map(|u| (u % 5 != 0).then_some(((u * 31) % 40) as u32))
        .collect();
    let pem = Pem::new(128, PemConfig::new(4)).unwrap();
    obs::set_clock(&MANUAL);
    let mut per_mode = Vec::new();
    for (mode, plan) in grid_plans(0x0B5_2027, items.len()) {
        obs::reset();
        obs::set_enabled(true);
        let result = pem
            .execute(Eps::new(4.0).unwrap(), &plan, SliceSource::new(&items))
            .unwrap();
        obs::set_enabled(false);
        let snap = obs::snapshot();
        obs::reset();
        per_mode.push((mode, result.top.clone(), snap.without_timing()));
    }
    let (first_mode, first_top, first_snap) = &per_mode[0];
    for (mode, top, snap) in &per_mode[1..] {
        assert_eq!(top, first_top, "{mode} vs {first_mode}: results");
        assert_eq!(
            snap.counters.get("mcim_pem_rounds_total"),
            first_snap.counters.get("mcim_pem_rounds_total"),
            "{mode} vs {first_mode}: PEM round counts"
        );
    }
    assert!(
        first_snap.counters.get("mcim_pem_rounds_total").copied() > Some(0),
        "PEM recorded no rounds"
    );
}
