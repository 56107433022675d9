//! The `Exec` equivalence matrix under RNG-contract v3: every
//! `(threads, chunk)` plan of every `execute` entry point must be
//! **bit-identical** to every other plan with the same seed.
//!
//! The grid crosses one and four worker threads with four chunk sizes:
//! the whole input in one chunk, one item short of a shard, one item past
//! a shard (both split shards mid-way), and the default chunk. The
//! reference is one thread over one whole-input chunk. The distributed
//! worker matrix (`crates/dist/tests`, `crates/cli/tests`) extends the
//! same identity across process boundaries.

use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig, PemEngine};

const SHARD: usize = parallel::SHARD_SIZE;

/// The `(threads, chunk)` grid for an `n`-item input; the first plan is
/// the reference (one thread, the whole input in one chunk).
fn grid(seed: u64, n: usize) -> Vec<(String, Exec)> {
    let mut plans = Vec::new();
    for threads in [1, 4] {
        for chunk in [Some(n), Some(SHARD - 1), Some(SHARD + 1), None] {
            let plan = Exec::seeded(seed).threads(threads);
            let plan = chunk.map_or(plan, |c| plan.chunk_size(c));
            plans.push((plan.to_string(), plan));
        }
    }
    plans
}

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

fn assert_tables_identical(a: &EstimationResultPair, b: &EstimationResultPair, what: &str) {
    let (a, b) = (&a.0, &b.0);
    assert_eq!(a.comm, b.comm, "{what}: comm diverged");
    let domains = a.table.domains();
    for label in 0..domains.classes() {
        for item in 0..domains.items() {
            assert!(
                a.table.get(label, item) == b.table.get(label, item),
                "{what}: diverged at ({label},{item})"
            );
        }
    }
}

/// Newtype so the helper signature stays readable.
struct EstimationResultPair(multiclass_ldp::core::EstimationResult);

#[test]
fn framework_execute_is_mode_invariant() {
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_pairs(domains, SHARD + 700);
    let eps = Eps::new(2.0).unwrap();
    let seed = 0xE0_2024;
    for fw in Framework::fig6_set() {
        let plans = grid(seed, data.len());
        let run = |plan: &Exec| {
            EstimationResultPair(
                fw.execute(eps, domains, plan, SliceSource::new(&data))
                    .unwrap(),
            )
        };
        let reference = run(&plans[0].1);
        for (what, plan) in &plans[1..] {
            assert_tables_identical(
                &reference,
                &run(plan),
                &format!("{} [{what} vs reference]", fw.name()),
            );
        }
    }
}

#[test]
fn pem_engine_execute_round_is_mode_invariant() {
    let d = 128u32;
    let eps = Eps::new(3.0).unwrap();
    let seed = 0xE0_4111;
    let items: Vec<Option<u32>> = (0..SHARD + 600)
        .map(|u| {
            if u % 6 == 0 {
                None
            } else {
                Some(((u * 13) % 40) as u32)
            }
        })
        .collect();
    for validity in [false, true] {
        let config = if validity {
            PemConfig::new(4).with_validity()
        } else {
            PemConfig::new(4)
        };
        let plans = grid(seed, items.len());
        let run = |plan: &Exec| {
            let mut engine = PemEngine::new(d, config).unwrap();
            let comm = engine
                .execute_round(eps, plan, SliceSource::new(&items))
                .unwrap();
            (engine, comm)
        };
        let (reference, reference_comm) = run(&plans[0].1);
        for (plan_name, plan) in &plans[1..] {
            let what = format!("validity={validity} [{plan_name}]");
            let (engine, comm) = run(plan);
            assert_eq!(reference_comm, comm, "{what} comm");
            assert_eq!(reference.candidates(), engine.candidates(), "{what}");
            assert_eq!(reference.prefix_len(), engine.prefix_len(), "{what}");
        }
    }
}

#[test]
fn pem_execute_is_mode_invariant() {
    let d = 128u32;
    let eps = Eps::new(4.0).unwrap();
    let seed = 0xE0_5222;
    let items: Vec<Option<u32>> = (0..SHARD + 2200)
        .map(|u| {
            if u % 5 == 0 {
                None
            } else {
                Some(((u * 31) % 40) as u32)
            }
        })
        .collect();
    for config in [PemConfig::new(4), PemConfig::new(4).with_validity()] {
        let pem = Pem::new(d, config).unwrap();
        let plans = grid(seed, items.len());
        let run = |plan: &Exec| pem.execute(eps, plan, SliceSource::new(&items)).unwrap();
        let reference = run(&plans[0].1);
        for (plan_name, plan) in &plans[1..] {
            let what = format!("validity={} [{plan_name}]", config.validity);
            let out = run(plan);
            assert_eq!(reference.top, out.top, "{what}");
            assert_eq!(reference.comm, out.comm, "{what}");
        }
    }
}

#[test]
fn topk_execute_is_mode_invariant() {
    let domains = Domains::new(3, 64).unwrap();
    let data = sample_pairs(domains, 14_000);
    let config = TopKConfig::new(3, Eps::new(6.0).unwrap());
    let seed = 0xE0_6333;
    for method in [
        TopKMethod::Hec,
        TopKMethod::PtjShuffled { validity: true },
        TopKMethod::PtsPem {
            validity: false,
            global: true,
        },
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
    ] {
        let plans = grid(seed, data.len());
        let run =
            |plan: &Exec| execute(method, config, domains, plan, SliceSource::new(&data)).unwrap();
        let reference = run(&plans[0].1);
        for (plan_name, plan) in &plans[1..] {
            let what = format!("{} [{plan_name}]", method.name());
            let out = run(plan);
            assert_eq!(reference.per_class, out.per_class, "{what}");
            assert_eq!(reference.comm, out.comm, "{what}");
            assert!(
                (reference.broadcast_bits_per_user - out.broadcast_bits_per_user).abs() == 0.0,
                "{what}"
            );
        }
    }
}

/// Under RNG-contract v3 a single-threaded run IS the sharded runtime
/// pinned to one worker — every plan shares one noise stream, so a
/// one-thread run and a two-thread whole-input run of the same seed must
/// agree bit-for-bit (pre-v2, the sequential path kept a separate
/// caller-RNG stream and this test asserted the opposite).
#[test]
fn sequential_and_sharded_modes_share_one_stream() {
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_pairs(domains, SHARD + 700);
    let eps = Eps::new(2.0).unwrap();
    let seq = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            eps,
            domains,
            &Exec::seeded(1).threads(1),
            SliceSource::new(&data),
        )
        .unwrap();
    let whole = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            eps,
            domains,
            &Exec::seeded(1).threads(2).chunk_size(data.len()),
            SliceSource::new(&data),
        )
        .unwrap();
    assert_eq!(seq.comm, whole.comm, "comm diverged");
    for l in 0..domains.classes() {
        for i in 0..domains.items() {
            assert!(
                seq.table.get(l, i) == whole.table.get(l, i),
                "one-thread and two-thread runs diverged at ({l},{i})"
            );
        }
    }
}
