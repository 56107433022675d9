//! Seeded-RNG determinism regression tests.
//!
//! Every pipeline in the workspace takes an explicit RNG, so identical seeds
//! must produce bit-identical outputs. HEC/PEM group users by position and
//! the shuffling scheme replays server seeds client-side, which makes seed
//! stability a correctness property, not a convenience — a refactor that
//! reorders RNG draws shows up here before it silently changes every
//! benchmark number.

use multiclass_ldp::core::CommStats;
use multiclass_ldp::oracles::exec::FnStage;
use multiclass_ldp::prelude::*;

fn slice<'a>(data: &'a [LabelItem]) -> SliceSource<'a, LabelItem> {
    SliceSource::new(data)
}

fn sample_data(domains: Domains, n: usize) -> Vec<LabelItem> {
    (0..n)
        .map(|u| {
            LabelItem::new(
                (u % domains.classes() as usize) as u32,
                ((u * 7919) % domains.items() as usize) as u32,
            )
        })
        .collect()
}

#[test]
fn pts_cp_tables_identical_for_identical_seeds() {
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_data(domains, 20_000);
    let eps = Eps::new(2.0).unwrap();
    let fw = Framework::PtsCp { label_frac: 0.5 };

    let run = |seed: u64| {
        fw.execute(eps, domains, &Exec::seeded(seed).threads(1), slice(&data))
            .unwrap()
    };
    let a = run(12345);
    let b = run(12345);
    for label in 0..domains.classes() {
        for item in 0..domains.items() {
            let (x, y) = (a.table.get(label, item), b.table.get(label, item));
            assert!(
                x == y,
                "seed-identical runs diverged at ({label},{item}): {x} vs {y}"
            );
        }
    }

    // And a different seed must actually change the noise (guards against a
    // run() that ignores the caller's RNG).
    let c = run(54321);
    let differs = (0..domains.classes())
        .any(|l| (0..domains.items()).any(|i| a.table.get(l, i) != c.table.get(l, i)));
    assert!(differs, "different seeds produced identical noisy tables");
}

#[test]
fn topk_mining_identical_for_identical_seeds() {
    let domains = Domains::new(2, 64).unwrap();
    let data = sample_data(domains, 30_000);
    let config = TopKConfig::new(5, Eps::new(4.0).unwrap());
    let method = TopKMethod::PtsShuffled {
        validity: true,
        global: true,
        correlated: true,
    };

    let run = |seed: u64| {
        execute(
            method,
            config,
            domains,
            &Exec::seeded(seed).threads(1),
            slice(&data),
        )
        .unwrap()
    };
    assert_eq!(
        run(7).per_class,
        run(7).per_class,
        "seed-identical top-k runs diverged"
    );
}

/// The sharded runtime's headline guarantee: every `(threads, chunk)`
/// plan produces bit-identical estimates to one thread over one
/// whole-input chunk, for every framework. The CI thread matrix runs this
/// file under `MCIM_THREADS=1` and `MCIM_THREADS=4`, so
/// `configured_threads()` exercises a genuinely different worker count
/// against the single-threaded reference.
#[test]
fn batch_plan_thread_matrix_is_bit_identical_for_every_framework() {
    let domains = Domains::new(3, 48).unwrap();
    let data = sample_data(domains, 25_000);
    let n = data.len();
    let eps = Eps::new(2.0).unwrap();
    let threads = parallel::configured_threads();
    for fw in Framework::fig6_set() {
        let seq = fw
            .execute(
                eps,
                domains,
                &Exec::seeded(2024).threads(1).chunk_size(n),
                slice(&data),
            )
            .unwrap();
        for t in [2, threads] {
            for chunk in [n, parallel::SHARD_SIZE - 1] {
                let par = fw
                    .execute(
                        eps,
                        domains,
                        &Exec::seeded(2024).threads(t).chunk_size(chunk),
                        slice(&data),
                    )
                    .unwrap();
                for label in 0..domains.classes() {
                    for item in 0..domains.items() {
                        assert!(
                            par.table.get(label, item) == seq.table.get(label, item),
                            "{} threads={t} chunk={chunk} diverged at ({label},{item})",
                            fw.name()
                        );
                    }
                }
            }
        }
    }
}

/// Same guarantee for the standalone validity-perturbation pipeline (the
/// "VP" row of the acceptance matrix): a privatize+absorb stage folded
/// through the executor equals sequential per-shard privatize calls
/// absorbed one report at a time, bit-for-bit, for every thread count and
/// chunk size.
#[test]
fn vp_batch_thread_matrix_is_bit_identical() {
    let vp = ValidityPerturbation::new(Eps::new(1.5).unwrap(), 96).unwrap();
    let inputs: Vec<ValidityInput> = (0..20_000)
        .map(|u| {
            if u % 4 == 0 {
                ValidityInput::Invalid
            } else {
                ValidityInput::Valid(u as u32 % 96)
            }
        })
        .collect();

    // Reference: sequential privatize calls shard by shard, absorbed one
    // report at a time.
    let mut seq = VpAggregator::new(&vp);
    for (s, chunk) in inputs.chunks(parallel::SHARD_SIZE).enumerate() {
        let mut rng = parallel::shard_rng(9, s as u64);
        for &input in chunk {
            seq.absorb(&vp.privatize(input, &mut rng).unwrap()).unwrap();
        }
    }

    // Stream items are input positions; each fragment privatizes its
    // inputs with the shard's RNG and absorbs them as one block.
    let positions: Vec<u32> = (0..inputs.len() as u32).collect();
    let stage = FnStage::new(
        VpAggregator::new(&vp),
        |rng, _abs, items: &[u32], agg: &mut VpAggregator| {
            let block = items
                .iter()
                .map(|&i| vp.privatize(inputs[i as usize], rng))
                .collect::<Result<Vec<_>>>()?;
            agg.absorb_all(&block)
        },
        VpAggregator::merge,
    );
    for t in [1, 2, parallel::configured_threads()] {
        for chunk in [inputs.len(), parallel::SHARD_SIZE - 1] {
            let par = Exec::new()
                .threads(t)
                .chunk_size(chunk)
                .in_process()
                .fold(&mut SliceSource::new(&positions), 9, &stage)
                .unwrap();
            assert_eq!(
                par.raw_counts(),
                seq.raw_counts(),
                "threads={t} chunk={chunk}"
            );
            assert_eq!(par.raw_flag_count(), seq.raw_flag_count());
            assert_eq!(par.report_count(), seq.report_count());
            assert_eq!(par.estimate(), seq.estimate());
        }
    }
}

/// Top-k mining is a pure function of the base seed — neither the thread
/// count nor the chunk size changes the mined sets.
#[test]
fn topk_batch_plan_thread_matrix_is_bit_identical() {
    let domains = Domains::new(2, 64).unwrap();
    let data = sample_data(domains, 24_000);
    let n = data.len();
    let config = TopKConfig::new(4, Eps::new(4.0).unwrap());
    let threads = parallel::configured_threads();
    for method in [
        TopKMethod::Hec,
        TopKMethod::PtjShuffled { validity: true },
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
    ] {
        let seq = execute(
            method,
            config,
            domains,
            &Exec::seeded(77).threads(1).chunk_size(n),
            slice(&data),
        )
        .unwrap();
        for t in [2, threads] {
            for chunk in [n, parallel::SHARD_SIZE - 1] {
                let par = execute(
                    method,
                    config,
                    domains,
                    &Exec::seeded(77).threads(t).chunk_size(chunk),
                    slice(&data),
                )
                .unwrap();
                assert_eq!(
                    par.per_class,
                    seq.per_class,
                    "{} threads={t} chunk={chunk}",
                    method.name()
                );
                assert_eq!(par.comm, seq.comm, "{}", method.name());
            }
        }
    }
}

/// A skewed population: each class has its own heavy head, and the
/// quadratic rank map puts most users on a few items per class.
fn skewed_data(domains: Domains, n: usize) -> Vec<LabelItem> {
    let (c, d) = (domains.classes() as usize, domains.items() as usize);
    (0..n)
        .map(|u| {
            let label = u % c;
            let r = (u * 7919) % 1000;
            let rank = r * r * d / 1_000_000;
            LabelItem::new(label as u32, ((label * 17 + rank) % d) as u32)
        })
        .collect()
}

/// Seeded top-k output pinned to constants. The other nets compare two
/// runs of one build, so they cannot see a change in seeded output
/// between builds; this one can. It covers the Fig. 7 methods plus the
/// Table III cells that run the VP PEM rounds and the non-VP shuffled
/// final round. Run under the `MCIM_THREADS` matrix, it also checks that
/// the constants hold at every thread count.
#[test]
fn topk_seeded_output_matches_golden() {
    struct Golden {
        method: TopKMethod,
        per_class: [&'static [u32]; 3],
        report_bits: u64,
        users: u64,
        broadcast_bits: f64,
    }
    let golden = [
        Golden {
            method: TopKMethod::Hec,
            per_class: [&[0, 1, 3, 2], &[17, 18, 19, 24], &[34, 35, 36, 38]],
            report_bits: 1_280_000,
            users: 40_000,
            broadcast_bits: 128.0,
        },
        Golden {
            method: TopKMethod::PtjPem { validity: false },
            per_class: [&[0, 1, 2, 6], &[17, 22, 19], &[34, 35, 51]],
            report_bits: 1_280_000,
            users: 40_000,
            broadcast_bits: 480.0,
        },
        Golden {
            method: TopKMethod::PtjShuffled { validity: true },
            per_class: [&[0, 2, 1, 13], &[17, 20, 18, 21], &[34, 37, 35, 36]],
            report_bits: 1_960_000,
            users: 40_000,
            broadcast_bits: 448.0,
        },
        Golden {
            method: TopKMethod::PtsPem {
                validity: false,
                global: false,
            },
            per_class: [&[0, 24, 2, 34], &[17, 54, 19, 18], &[34, 39, 35, 38]],
            report_bits: 1_360_000,
            users: 80_000,
            broadcast_bits: 128.0,
        },
        Golden {
            method: TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
            per_class: [&[30, 0, 97, 18], &[17, 18, 217, 38], &[34, 243, 35, 165]],
            report_bits: 1_019_546,
            users: 80_000,
            broadcast_bits: 384.0,
        },
        Golden {
            method: TopKMethod::PtjPem { validity: true },
            per_class: [&[0, 3, 2, 5], &[17, 18, 23], &[34, 41, 38]],
            report_bits: 1_960_000,
            users: 40_000,
            broadcast_bits: 480.0,
        },
        Golden {
            method: TopKMethod::PtjShuffled { validity: false },
            per_class: [&[0, 1, 4, 2], &[17, 18, 168, 20], &[34, 35, 38, 57]],
            report_bits: 1_280_000,
            users: 40_000,
            broadcast_bits: 448.0,
        },
        Golden {
            method: TopKMethod::PtsPem {
                validity: false,
                global: true,
            },
            per_class: [&[0, 110, 12, 1], &[17, 19, 29, 16], &[34, 1, 37, 35]],
            report_bits: 1_872_016,
            users: 80_000,
            broadcast_bits: 384.0,
        },
        Golden {
            method: TopKMethod::PtsPem {
                validity: true,
                global: false,
            },
            per_class: [&[0, 23, 56, 3], &[17, 18, 20, 19], &[34, 38, 33, 37]],
            report_bits: 760_000,
            users: 80_000,
            broadcast_bits: 128.0,
        },
        Golden {
            method: TopKMethod::PtsShuffled {
                validity: false,
                global: false,
                correlated: false,
            },
            per_class: [&[0, 75, 129, 27], &[17, 184, 244, 24], &[34, 126, 39, 16]],
            report_bits: 1_360_000,
            users: 80_000,
            broadcast_bits: 320.0,
        },
    ];
    for method in TopKMethod::fig7_set() {
        assert!(
            golden.iter().any(|g| g.method == method),
            "{} has no golden entry",
            method.name()
        );
    }

    let domains = Domains::new(3, 256).unwrap();
    let data = skewed_data(domains, 40_000);
    let config = TopKConfig::new(4, Eps::new(4.0).unwrap());
    let plan = Exec::seeded(15).threads(parallel::configured_threads());
    for g in &golden {
        let name = g.method.name();
        let out = execute(g.method, config, domains, &plan, slice(&data)).unwrap();
        assert_eq!(out.per_class, g.per_class, "{name}: per_class");
        assert_eq!(
            out.comm,
            CommStats {
                total_report_bits: g.report_bits,
                users: g.users,
            },
            "{name}: comm"
        );
        assert_eq!(
            out.broadcast_bits_per_user, g.broadcast_bits,
            "{name}: broadcast_bits_per_user"
        );
    }
}
