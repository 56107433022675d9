//! Streaming-ingestion equivalence: folding through `Stage` +
//! `Executor::fold` must produce **bit-identical** results to the
//! per-report reference, for every chunk size (including ones that split
//! shards) and every thread count. The CI thread matrix runs this file
//! under `MCIM_THREADS=1` and `=4`.

use multiclass_ldp::core::frameworks::{
    Hec, HecAggregator, HecReport, Ptj, PtjAggregator, Pts, PtsAggregator, PtsReport,
};
use multiclass_ldp::core::CpReport;
use multiclass_ldp::oracles::exec::FnStage;
use multiclass_ldp::oracles::wire::WireState;
use multiclass_ldp::oracles::{BitVec, Report, UnaryEncoding};
use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig};
use rand::rngs::StdRng;

const SHARD: usize = parallel::SHARD_SIZE;

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

/// Chunk sizes that hit every boundary case: single item, one short of a
/// shard, exactly a shard, one past, and the whole stream at once.
fn boundary_chunks(n: usize) -> [usize; 5] {
    [1, SHARD - 1, SHARD, SHARD + 1, n]
}

/// `n` reports privatized per user, shard `s` with `shard_rng(seed, s)`:
/// the streams a sharded privatize stage draws.
fn privatize_all<R>(n: usize, seed: u64, f: impl Fn(usize, &mut StdRng) -> R) -> Vec<R> {
    let mut reports = Vec::with_capacity(n);
    for shard in 0..n.div_ceil(SHARD) {
        let mut rng = parallel::shard_rng(seed, shard as u64);
        for user in shard * SHARD..((shard + 1) * SHARD).min(n) {
            reports.push(f(user, &mut rng));
        }
    }
    reports
}

/// The stage-level net for one aggregator: an `FnStage` of its block
/// `absorb_all` and `merge`, folded through `in_process().fold` over the
/// report stream, must equal per-report `absorb` — counters, report
/// tally and estimates — at every boundary chunk and at 1 and 4 threads.
fn assert_fold_matches_absorb<R, A>(
    name: &str,
    reports: &[R],
    template: &A,
    absorb: impl Fn(&mut A, &R) -> Result<()>,
    absorb_all: impl Fn(&mut A, &[R]) -> Result<()> + Sync,
    merge: impl Fn(&mut A, &A) -> Result<()> + Sync,
    estimate: impl Fn(&A) -> Vec<f64>,
) where
    R: Sync,
    A: Clone + Send + Sync + WireState,
{
    let state = |agg: &A| {
        let mut bytes = Vec::new();
        agg.save(&mut bytes);
        bytes
    };
    let mut reference = template.clone();
    for report in reports {
        absorb(&mut reference, report).unwrap();
    }
    // Stream items are report positions; each fragment absorbs the
    // reports it covers as one block.
    let positions: Vec<u32> = (0..reports.len() as u32).collect();
    let stage = FnStage::new(
        template.clone(),
        |_rng, abs, items: &[u32], agg: &mut A| {
            let start = abs as usize;
            absorb_all(agg, &reports[start..start + items.len()])
        },
        merge,
    );
    for chunk in boundary_chunks(reports.len()) {
        for threads in [1, 4] {
            let plan = Exec::seeded(0).threads(threads).chunk_size(chunk);
            let folded = plan
                .in_process()
                .fold(&mut SliceSource::new(&positions), 0, &stage)
                .unwrap();
            assert_eq!(
                state(&folded),
                state(&reference),
                "{name} chunk={chunk} threads={threads}"
            );
            assert!(
                estimate(&folded) == estimate(&reference),
                "{name} chunk={chunk} threads={threads}: estimates diverged"
            );
        }
    }
}

const N: usize = SHARD + 700;

#[test]
fn aggregator_absorb_stream_matches_batch_for_every_oracle() {
    let n = N;
    let eps = Eps::new(1.0).unwrap();
    for oracle in [
        Oracle::grr(eps, 6).unwrap(),
        Oracle::oue(eps, 200).unwrap(),
        Oracle::Ue(UnaryEncoding::symmetric(eps, 70).unwrap()),
        Oracle::olh(Eps::new(2.0).unwrap(), 32).unwrap(),
    ] {
        let d = oracle.domain_size();
        let reports: Vec<Report> = privatize_all(n, 8, |u, rng| {
            oracle.privatize((u as u32 * 13) % d, rng).unwrap()
        });
        assert_fold_matches_absorb(
            oracle.name(),
            &reports,
            &Aggregator::new(&oracle),
            Aggregator::absorb,
            |agg, block| agg.absorb_all(block),
            Aggregator::merge,
            Aggregator::estimate,
        );
    }
}

#[test]
fn vp_and_cp_absorb_stream_match_batch() {
    let n = N;
    let vp = ValidityPerturbation::new(Eps::new(1.5).unwrap(), 96).unwrap();
    let reports: Vec<BitVec> = privatize_all(n, 3, |u, rng| {
        let input = if u % 4 == 0 {
            ValidityInput::Invalid
        } else {
            ValidityInput::Valid(u as u32 % 96)
        };
        vp.privatize(input, rng).unwrap()
    });
    assert_fold_matches_absorb(
        "VP",
        &reports,
        &VpAggregator::new(&vp),
        VpAggregator::absorb,
        |agg, block| agg.absorb_all(block),
        VpAggregator::merge,
        VpAggregator::estimate,
    );

    let domains = Domains::new(4, 48).unwrap();
    let pairs = sample_data(domains, n);
    let cp = CorrelatedPerturbation::with_total(Eps::new(2.0).unwrap(), domains).unwrap();
    let reports: Vec<CpReport> = privatize_all(n, 5, |u, rng| cp.privatize(pairs[u], rng).unwrap());
    assert_fold_matches_absorb(
        "CP",
        &reports,
        &CpAggregator::new(&cp),
        CpAggregator::absorb,
        |agg, block| agg.absorb_all(block),
        CpAggregator::merge,
        |agg| agg.estimate().values().to_vec(),
    );
}

#[test]
fn pts_ptj_hec_absorb_stream_match_batch() {
    let n = N;
    let domains = Domains::new(3, 40).unwrap();
    let pairs = sample_data(domains, n);
    let pts = Pts::new(Eps::new(1.0).unwrap(), Eps::new(1.0).unwrap(), domains).unwrap();
    let reports: Vec<PtsReport> =
        privatize_all(n, 6, |u, rng| pts.privatize(pairs[u], rng).unwrap());
    assert_fold_matches_absorb(
        "PTS",
        &reports,
        &PtsAggregator::new(&pts),
        PtsAggregator::absorb,
        |agg, block| agg.absorb_all(block),
        PtsAggregator::merge,
        |agg| agg.estimate().values().to_vec(),
    );

    let ptj = Ptj::new(Eps::new(2.0).unwrap(), domains).unwrap();
    let reports: Vec<Report> = privatize_all(n, 7, |u, rng| ptj.privatize(pairs[u], rng).unwrap());
    assert_fold_matches_absorb(
        "PTJ",
        &reports,
        &PtjAggregator::new(&ptj),
        PtjAggregator::absorb,
        |agg, block| agg.absorb_all(block),
        PtjAggregator::merge,
        |agg| agg.estimate().values().to_vec(),
    );

    let hec = Hec::new(Eps::new(2.0).unwrap(), domains).unwrap();
    let reports: Vec<HecReport> = privatize_all(n, 9, |u, rng| {
        hec.privatize(u as u64, pairs[u], rng).unwrap()
    });
    assert_fold_matches_absorb(
        "HEC",
        &reports,
        &HecAggregator::new(&hec),
        HecAggregator::absorb,
        |agg, block| agg.absorb_all(block),
        HecAggregator::merge,
        |agg| agg.estimate().unwrap().values().to_vec(),
    );
}

/// The chunk-boundary property: a chunked plan equals the whole-input
/// plan bit-for-bit at chunk sizes 1, shard−1, shard, shard+1 and n, for
/// every framework (RNG state must carry correctly across split shards).
#[test]
fn stream_plans_match_batch_plans_at_every_chunk_boundary() {
    let domains = Domains::new(3, 32).unwrap();
    let n = 2 * SHARD + 537;
    let data = sample_data(domains, n);
    let eps = Eps::new(2.0).unwrap();
    let threads = parallel::configured_threads();
    for fw in Framework::fig6_set() {
        let batch = fw
            .execute(
                eps,
                domains,
                &Exec::seeded(2025).threads(threads).chunk_size(n),
                SliceSource::new(&data),
            )
            .unwrap();
        for chunk in boundary_chunks(n) {
            for t in [1, threads] {
                let plan = Exec::seeded(2025).threads(t).chunk_size(chunk);
                let streamed = fw
                    .execute(eps, domains, &plan, SliceSource::new(&data))
                    .unwrap();
                assert_eq!(
                    streamed.comm,
                    batch.comm,
                    "{} chunk={chunk} threads={t}",
                    fw.name()
                );
                for label in 0..domains.classes() {
                    for item in 0..domains.items() {
                        assert!(
                            streamed.table.get(label, item) == batch.table.get(label, item),
                            "{} chunk={chunk} threads={t} diverged at ({label},{item})",
                            fw.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pem_stream_plans_match_batch_plans() {
    let d = 128u32;
    let n = SHARD + 2200;
    let items: Vec<Option<u32>> = (0..n)
        .map(|u| {
            if u % 5 == 0 {
                None
            } else {
                Some(((u * 31) % 40) as u32)
            }
        })
        .collect();
    let eps = Eps::new(4.0).unwrap();
    for pem_config in [PemConfig::new(4), PemConfig::new(4).with_validity()] {
        let pem = Pem::new(d, pem_config).unwrap();
        let batch = pem
            .execute(
                eps,
                &Exec::seeded(55).threads(2).chunk_size(n),
                SliceSource::new(&items),
            )
            .unwrap();
        for chunk in [997, SHARD, n] {
            for threads in [1, 4] {
                let plan = Exec::seeded(55).threads(threads).chunk_size(chunk);
                let streamed = pem.execute(eps, &plan, SliceSource::new(&items)).unwrap();
                assert_eq!(
                    streamed.top, batch.top,
                    "validity={} chunk={chunk} threads={threads}",
                    pem_config.validity
                );
                assert_eq!(streamed.comm, batch.comm);
            }
        }
    }
}

#[test]
fn pem_sharded_execute_requires_sized_source() {
    struct Unsized;
    impl multiclass_ldp::oracles::stream::ReportSource for Unsized {
        type Item = Option<u32>;
        fn fill(&mut self, _: &mut Vec<Option<u32>>, _: usize) -> Result<usize> {
            Ok(0)
        }
    }
    let pem = Pem::new(64, PemConfig::new(2)).unwrap();
    let err = pem
        .execute(Eps::new(1.0).unwrap(), &Exec::seeded(1), Unsized)
        .unwrap_err();
    assert!(matches!(err, Error::InvalidParameter { .. }));
}

#[test]
fn topk_stream_plans_match_batch_plans() {
    let domains = Domains::new(3, 64).unwrap();
    let data = sample_data(domains, 18_000);
    let config_k = TopKConfig::new(3, Eps::new(6.0).unwrap());
    for method in [
        TopKMethod::Hec,
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
    ] {
        let batch = execute(
            method,
            config_k,
            domains,
            &Exec::seeded(31).threads(2).chunk_size(data.len()),
            SliceSource::new(&data),
        )
        .unwrap();
        for threads in [1, 4] {
            let plan = Exec::seeded(31).threads(threads).chunk_size(4096);
            let streamed =
                execute(method, config_k, domains, &plan, SliceSource::new(&data)).unwrap();
            assert_eq!(
                streamed.per_class,
                batch.per_class,
                "{} threads={threads}",
                method.name()
            );
            assert_eq!(streamed.comm, batch.comm);
        }
    }
}
