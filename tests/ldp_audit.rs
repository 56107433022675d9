//! Empirical ε-LDP audit of the unary-encoding mechanisms on small domains.
//!
//! Every privacy guarantee of OUE, SUE and validity perturbation (VP) rests
//! on one sampler: the contract-v3 noise plane (`UnaryEncoding::fill_plane`
//! and the fixed-depth `BitVec::fill_bernoulli_wordwise` behind it) plus
//! the hot-bit draw. A sampler bug would pass every bit-identity net, so
//! this audit looks at the output distribution itself. For every input `x`
//! it privatizes `N` times and counts each of the `2^bits` outputs `y`,
//! then checks, with Clopper–Pearson intervals at a family-wise error rate
//! of 10⁻³:
//!
//! * the ε bound: for every `y` and input pair `(x, x′)`, the smallest log
//!   ratio the intervals allow, `ln lo(y|x) − ln hi(y|x′)`, is at most ε;
//! * that the audit can see ε: the worst pair's largest allowed ratio
//!   reaches ε (the mechanisms are tight, so a passing audit is not
//!   vacuous);
//! * exactness: every closed-form `Pr[M(x) = y]` lies in its interval.

use multiclass_ldp::oracles::{BitVec, UnaryEncoding};
use multiclass_ldp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Privatizations per input.
const N: u64 = 200_000;
/// Family-wise error rate over every interval of the audit.
const FAMILY_ALPHA: f64 = 1e-3;
const EPSILONS: [f64; 3] = [0.5, 1.0, 2.0];

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, n = 9; ~15 significant digits).
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + G + 0.5;
    let series = COEF[1..]
        .iter()
        .enumerate()
        .fold(COEF[0], |acc, (i, &c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for num in [
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ] {
            d = 1.0 + num * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            return h;
        }
    }
    panic!("beta_cf did not converge for a={a} b={b} x={x}");
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// The `p` in `[0, 1]` where the monotone `f` crosses `target`.
fn solve(f: impl Fn(f64) -> f64, target: f64, increasing: bool) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if (f(mid) < target) == increasing {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Two-sided Clopper–Pearson interval for `k` successes in `n` trials.
fn clopper_pearson(k: u64, n: u64, alpha: f64) -> (f64, f64) {
    let (k, n) = (k as f64, n as f64);
    // Pr[Bin(n, p) ≥ k] = I_p(k, n−k+1), increasing in p.
    let lo = if k == 0.0 {
        0.0
    } else {
        solve(|p| inc_beta(k, n - k + 1.0, p), alpha / 2.0, true)
    };
    // Pr[Bin(n, p) ≤ k] = 1 − I_p(k+1, n−k), decreasing in p.
    let hi = if k == n {
        1.0
    } else {
        solve(|p| 1.0 - inc_beta(k + 1.0, n - k, p), alpha / 2.0, false)
    };
    (lo, hi)
}

/// Inputs of every audited mechanism.
const INPUTS: usize = 4;
/// Output bits of every audited mechanism.
const BITS: usize = 4;

/// A mechanism under audit: UE over d = 4, or VP over d = 3 items (three
/// valid inputs plus invalid; three item bits plus the flag).
enum Mechanism {
    Ue(UnaryEncoding),
    Vp(ValidityPerturbation),
}

impl Mechanism {
    fn vp_input(x: usize) -> ValidityInput {
        if x < 3 {
            ValidityInput::Valid(x as u32)
        } else {
            ValidityInput::Invalid
        }
    }

    fn name(&self) -> String {
        match self {
            Mechanism::Ue(m) => format!("{:?} UE", m.kind()),
            Mechanism::Vp(_) => "VP".to_string(),
        }
    }

    fn privatize(&self, x: usize, rng: &mut StdRng) -> BitVec {
        match self {
            Mechanism::Ue(m) => m.privatize(x as u32, rng).unwrap(),
            Mechanism::Vp(m) => m.privatize(Self::vp_input(x), rng).unwrap(),
        }
    }

    fn exact(&self, x: usize, y: &BitVec) -> f64 {
        match self {
            Mechanism::Ue(m) => m.response_probability(x as u32, y),
            Mechanism::Vp(m) => m.response_probability(Self::vp_input(x), y),
        }
    }
}

fn output_vec(y: usize) -> BitVec {
    let mut out = BitVec::zeros(BITS);
    for i in (0..BITS).filter(|i| (y >> i) & 1 == 1) {
        out.set(i, true);
    }
    out
}

fn audit(m: &Mechanism, eps: f64, alpha: f64, rng: &mut StdRng) {
    let name = format!("{} ε={eps}", m.name());
    const OUTPUTS: usize = 1 << BITS;
    // Clopper–Pearson interval of Pr[M(x) = y], indexed [x][y].
    let mut lo = [[0.0; OUTPUTS]; INPUTS];
    let mut hi = [[0.0; OUTPUTS]; INPUTS];
    for x in 0..INPUTS {
        let mut counts = [0u64; OUTPUTS];
        for _ in 0..N {
            counts[m.privatize(x, rng).words()[0] as usize] += 1;
        }
        for (y, &k) in counts.iter().enumerate() {
            let (l, h) = clopper_pearson(k, N, alpha);
            let exact = m.exact(x, &output_vec(y));
            assert!(
                (l..=h).contains(&exact),
                "{name}: Pr[M({x}) = {y:04b}] = {exact} outside [{l}, {h}] ({k}/{N})"
            );
            lo[x][y] = l;
            hi[x][y] = h;
        }
    }
    let mut lowest_max = f64::NEG_INFINITY;
    let mut highest_max = f64::NEG_INFINITY;
    for y in 0..OUTPUTS {
        for x in 0..INPUTS {
            for x2 in (0..INPUTS).filter(|&x2| x2 != x) {
                lowest_max = lowest_max.max(lo[x][y].ln() - hi[x2][y].ln());
                highest_max = highest_max.max(hi[x][y].ln() - lo[x2][y].ln());
            }
        }
    }
    assert!(
        lowest_max <= eps,
        "{name}: the intervals prove a log ratio of at least {lowest_max} > ε"
    );
    assert!(
        highest_max >= eps,
        "{name}: the worst allowed log ratio {highest_max} never reaches ε"
    );
}

#[test]
fn ue_and_vp_satisfy_eps_ldp_empirically() {
    let mut audited = Vec::new();
    for e in EPSILONS {
        let eps = Eps::new(e).unwrap();
        audited.push((e, Mechanism::Ue(UnaryEncoding::optimized(eps, 4).unwrap())));
        audited.push((e, Mechanism::Ue(UnaryEncoding::symmetric(eps, 4).unwrap())));
        audited.push((e, Mechanism::Vp(ValidityPerturbation::new(eps, 3).unwrap())));
    }
    let alpha = FAMILY_ALPHA / (audited.len() * INPUTS * (1 << BITS)) as f64;
    let mut rng = StdRng::seed_from_u64(4);
    for (eps, m) in &audited {
        audit(m, *eps, alpha, &mut rng);
    }
}

/// The interval helper itself: known Clopper–Pearson values.
#[test]
fn clopper_pearson_matches_reference_values() {
    // 95% interval for 5/10: [0.187086, 0.812914].
    let (lo, hi) = clopper_pearson(5, 10, 0.05);
    assert!((lo - 0.187_086).abs() < 1e-5, "{lo}");
    assert!((hi - 0.812_914).abs() < 1e-5, "{hi}");
    // 0/20: [0, 1 − 0.025^(1/20)] = [0, 0.168433].
    let (lo, hi) = clopper_pearson(0, 20, 0.05);
    assert_eq!(lo, 0.0);
    assert!((hi - 0.168_433).abs() < 1e-5, "{hi}");
    // Large n (the audit's regime), 1000/200000 at 95%, from a direct
    // binomial-tail sum: [0.00469557, 0.00531891].
    let (lo, hi) = clopper_pearson(1000, 200_000, 0.05);
    assert!((lo - 0.004_695_57).abs() < 1e-7, "{lo}");
    assert!((hi - 0.005_318_91).abs() < 1e-7, "{hi}");
}
