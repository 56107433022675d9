//! Packed bit vectors used as unary-encoding reports.
//!
//! Unary-encoding mechanisms (SUE/OUE, and the paper's validity
//! perturbation) transmit one bit per domain value, so reports for realistic
//! domains (hundreds to tens of thousands of items) dominate both memory and
//! aggregation time. [`BitVec`] packs bits into `u64` words and provides the
//! hot operations:
//!
//! * [`BitVec::fill_bernoulli_wordwise`] — the RNG-contract v3 sampler for
//!   dense noise planes: set every bit independently with probability `q`,
//!   64 lanes per RNG word, through a fixed-depth bit-sliced walk over
//!   `q`'s exact 64-bit fixed point plus one tail draw per lane the walk
//!   leaves undecided (~7.5 draws per word, no `ln`).
//! * [`BitVec::fill_bernoulli`] — the same distribution by *geometric
//!   skipping*: instead of `len` Bernoulli draws it draws one geometric gap
//!   per set bit, i.e. `O(len·q)` RNG calls — cheaper for sparse planes
//!   (OUE at ε = 4).
//! * [`BitVec::iter_ones`] and [`BitVec::count_ones_into`] — word-at-a-time
//!   iteration over set bits for server-side aggregation.
//!
//! Pipelines reach both fillers only through `UnaryEncoding`'s plane
//! sampler, which picks one from `q` alone.

use rand::Rng;

/// Steps of [`BitVec::fill_bernoulli_wordwise`]'s unconditional bit-sliced
/// walk per output word. After `K` steps a lane is still undecided with
/// probability 2⁻ᴷ and then costs one tail draw, so a word costs
/// `K + 64·2⁻ᴷ` draws in expectation: 7.5 at `K = 7`, 8.25 at `K = 8`.
/// Part of RNG contract v3: changing it changes every seeded output.
const WALK_DEPTH: u32 = 7;

/// Smallest `q` whose `q·2⁶⁴` is an integer for every `f64` (its lowest
/// mantissa bit sits at 2⁻⁶⁴); [`BitVec::fill_bernoulli_wordwise`] fills
/// smaller `q` geometrically.
const FIXED_POINT_MIN_Q: f64 = 1.0 / 4096.0;

/// 2⁶⁴ as an `f64` (exact).
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// A fixed-length packed bit vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a vector with exactly one bit set at `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    pub fn one_hot(len: usize, pos: usize) -> Self {
        let mut v = Self::zeros(len);
        v.set(pos, true);
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.bit(i)
    }

    /// Reads bit `i` with a single word access and no length assert — for
    /// hot paths (e.g. validity-flag checks) that already validated the
    /// report length. Still memory-safe: the word index is bounds-checked
    /// by the slice.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Raw word view (low bit of `words[0]` is bit 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Increments `counts[i]` for every set bit `i`, scanning word-at-a-time
    /// so aggregation hot loops never take [`BitVec::get`]'s per-bit bounds
    /// check.
    ///
    /// `counts` may be shorter than the vector when the caller knows the
    /// tail columns are clear (e.g. a validity-perturbation report whose
    /// flag bit was already checked).
    ///
    /// # Panics
    /// Panics if any **set** bit's index is `>= counts.len()`.
    pub fn count_ones_into(&self, counts: &mut [u64]) {
        let mut chunks = counts.chunks_mut(64);
        for &word in &self.words {
            let chunk = chunks.next();
            if word == 0 {
                continue;
            }
            let Some(chunk) = chunk else {
                // mcim-lint: allow(panic-freedom, the documented # Panics contract for out-of-range set bits)
                panic!(
                    "set bit beyond counts length {} (vector holds {} bits)",
                    counts.len(),
                    self.len
                );
            };
            let mut bits = word;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                assert!(
                    j < chunk.len(),
                    "set bit beyond counts length {} (vector holds {} bits)",
                    counts.len(),
                    self.len
                );
                chunk[j] += 1;
                bits &= bits - 1; // clear lowest set bit
            }
        }
    }

    /// Replaces the bits selected by `mask` with the corresponding bits of
    /// `src`: `self = (self & !mask) | (src & mask)`, word-parallel.
    ///
    /// # Panics
    /// Panics if the three vectors have different lengths.
    pub fn merge_masked(&mut self, mask: &BitVec, src: &BitVec) {
        assert!(
            self.len == mask.len && self.len == src.len,
            "merge_masked length mismatch ({} / {} / {})",
            self.len,
            mask.len,
            src.len
        );
        for ((w, &m), &s) in self.words.iter_mut().zip(&mask.words).zip(&src.words) {
            *w = (*w & !m) | (s & m);
        }
    }

    /// Flips every bit (padding bits beyond `len` stay clear).
    pub fn toggle_all(&mut self) {
        for (idx, w) in self.words.iter_mut().enumerate() {
            let remaining = self.len - idx * 64;
            let live = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
            *w = !*w & live;
        }
    }

    /// Sets every bit independently to 1 with probability `q`, sampling
    /// **64 lanes at a time** — the RNG-contract v3 wordwise sampler.
    ///
    /// Each lane's bit is `[U < q]` for an independent uniform `U ∈ [0, 1)`,
    /// with `q` held as the exact 64-bit fixed-point fraction `q·2⁶⁴`
    /// (an integer for every `q ≥ 2⁻¹²`). Per output word:
    ///
    /// 1. **A fixed-depth bit-sliced walk.** Walking `q`'s binary
    ///    expansion MSB-first with one random word per step, a lane is
    ///    decided `U < q` at the first position where `U`'s bit is 0 and
    ///    `q`'s bit is 1, decided `U ≥ q` where `U`'s bit is 1 and `q`'s
    ///    bit is 0, and stays undecided while the prefixes agree. The walk
    ///    runs `WALK_DEPTH` steps unconditionally — no data-dependent
    ///    exit — or fewer when `q`'s expansion is shorter: a dyadic `q`
    ///    such as 1/2 costs exactly its expansion length in draws (one per
    ///    word for 1/2) and leaves every still-undecided lane equal to `q`,
    ///    hence 0.
    /// 2. **A one-draw tail per undecided lane.** A lane whose first
    ///    `WALK_DEPTH` bits matched `q`'s draws one more word and
    ///    compares its top `64 − WALK_DEPTH` bits with the rest of `q`'s
    ///    fixed-point bits. A tie means `U ≥ q` (those are all of `q`'s
    ///    bits), so the lane is 0.
    ///
    /// The result is **exactly** Bernoulli(`q`) for the `f64` `q`; there is
    /// no truncation. The expected cost is `WALK_DEPTH + 64·2^−WALK_DEPTH`
    /// (7.5) draws per word, independent of `q`, with no `ln` evaluations.
    /// Geometric skipping ([`BitVec::fill_bernoulli`]) costs one `f64`
    /// draw **and one `ln`** per set bit, i.e. `O(64·q)` per word — cheaper
    /// only for sparse fills; `UnaryEncoding`'s plane sampler picks between
    /// the two by `q` alone. Both are exact; they only consume the RNG
    /// stream differently. A `q` below 2⁻¹² (no exact 64-bit fixed point)
    /// is filled geometrically here as well.
    pub fn fill_bernoulli_wordwise<R: Rng + ?Sized>(&mut self, q: f64, rng: &mut R) {
        if self.len == 0 || !(FIXED_POINT_MIN_Q..1.0).contains(&q) {
            // Degenerate or sparse probabilities: the geometric filler is
            // exact for every q and handles the constant fills.
            self.fill_bernoulli(q.clamp(0.0, 1.0), rng);
            return;
        }
        // Exact: q ≥ 2⁻¹² has its lowest mantissa bit at or above 2⁻⁶⁴.
        let q_fix = (q * TWO_POW_64) as u64;
        // Positions of q's expansion the walk reads: at most WALK_DEPTH,
        // and never past q's last 1-bit.
        let depth = (u64::BITS - q_fix.trailing_zeros()).min(WALK_DEPTH);
        // q's bits below the walk; 0 exactly when the walk read all of q.
        let tail = (q_fix << depth) >> depth;
        let mut steps = [0u64; WALK_DEPTH as usize];
        for (i, step) in steps.iter_mut().enumerate() {
            // All-ones where q's bit i is 1.
            *step = ((q_fix >> (63 - i)) & 1).wrapping_neg();
        }
        let steps = &steps[..depth as usize];
        let n_words = self.words.len();
        for (idx, w) in self.words.iter_mut().enumerate() {
            let live = if idx + 1 < n_words || self.len % 64 == 0 {
                u64::MAX
            } else {
                (1u64 << (self.len % 64)) - 1
            };
            let mut result = 0u64;
            let mut undecided = live;
            for &q_bit in steps {
                let r = rng.next_u64();
                result |= undecided & !r & q_bit;
                undecided &= !(r ^ q_bit);
            }
            if tail != 0 {
                while undecided != 0 {
                    let lane = undecided.trailing_zeros();
                    undecided &= undecided - 1;
                    if (rng.next_u64() >> depth) < tail {
                        result |= 1u64 << lane;
                    }
                }
            }
            *w = result;
        }
    }

    /// Sets every bit independently to 1 with probability `q`.
    ///
    /// Existing contents are overwritten. Uses geometric skipping: the gap
    /// between consecutive set bits under i.i.d. Bernoulli(q) is geometric,
    /// so we sample gaps directly with one `f64` draw per set bit.
    pub fn fill_bernoulli<R: Rng + ?Sized>(&mut self, q: f64, rng: &mut R) {
        for w in &mut self.words {
            *w = 0;
        }
        if self.len == 0 || q <= 0.0 {
            return;
        }
        if q >= 1.0 {
            for (idx, w) in self.words.iter_mut().enumerate() {
                let remaining = self.len - idx * 64;
                *w = if remaining >= 64 {
                    u64::MAX
                } else {
                    (1u64 << remaining) - 1
                };
            }
            return;
        }
        // ln(1-q) is strictly negative here.
        let log1mq = (-q).ln_1p();
        let mut i = 0usize;
        loop {
            // gap ~ Geometric(q): number of zeros before the next one.
            let u: f64 = rng.random::<f64>();
            // Guard against u == 0 producing ln(0) = -inf (gap = +inf, ends fill).
            let gap = if u <= f64::MIN_POSITIVE {
                self.len // effectively "no more ones"
            } else {
                let g = (u.ln() / log1mq).floor();
                if g >= self.len as f64 {
                    self.len
                } else {
                    g as usize
                }
            };
            i = match i.checked_add(gap) {
                Some(next) if next < self.len => next,
                _ => break,
            };
            self.words[i / 64] |= 1u64 << (i % 64);
            i += 1;
            if i >= self.len {
                break;
            }
        }
    }
}

/// Iterator over set-bit indices of a [`BitVec`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_is_empty_of_ones() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.iter_ones().count(), 0);
    }

    #[test]
    fn one_hot_round_trip() {
        for len in [1usize, 63, 64, 65, 129] {
            for pos in [0, len / 2, len - 1] {
                let v = BitVec::one_hot(len, pos);
                assert_eq!(v.count_ones(), 1);
                assert!(v.get(pos));
                assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![pos]);
            }
        }
    }

    #[test]
    fn set_and_clear() {
        let mut v = BitVec::zeros(100);
        v.set(0, true);
        v.set(64, true);
        v.set(99, true);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 64, 99]);
        v.set(64, false);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 99]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn fill_bernoulli_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = BitVec::zeros(200);
        v.fill_bernoulli(0.0, &mut rng);
        assert_eq!(v.count_ones(), 0);
        v.fill_bernoulli(1.0, &mut rng);
        assert_eq!(v.count_ones(), 200);
        // Padding bits in the last word must stay clear so count_ones is exact.
        assert_eq!(v.words().last().unwrap().count_ones(), 200 - 3 * 64);
        v.fill_bernoulli(0.0, &mut rng);
        assert_eq!(v.count_ones(), 0, "refill overwrites previous contents");
    }

    #[test]
    fn fill_bernoulli_mean_matches_q() {
        let mut rng = StdRng::seed_from_u64(42);
        for q in [0.01, 0.1, 0.3, 0.5, 0.9] {
            let len = 10_000;
            let trials = 50;
            let mut total = 0usize;
            let mut v = BitVec::zeros(len);
            for _ in 0..trials {
                v.fill_bernoulli(q, &mut rng);
                total += v.count_ones();
            }
            let mean = total as f64 / (trials * len) as f64;
            // Binomial std for the pooled mean is sqrt(q(1-q)/(trials*len)) < 0.0011.
            assert!(
                (mean - q).abs() < 0.01,
                "q={q}: empirical mean {mean} too far off"
            );
        }
    }

    #[test]
    fn fill_bernoulli_wordwise_extremes_and_padding() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v = BitVec::zeros(200);
        v.fill_bernoulli_wordwise(0.0, &mut rng);
        assert_eq!(v.count_ones(), 0);
        v.fill_bernoulli_wordwise(1.0, &mut rng);
        assert_eq!(v.count_ones(), 200);
        // Padding bits beyond len must stay clear for every q.
        v.fill_bernoulli_wordwise(0.7, &mut rng);
        assert_eq!(v.words().last().unwrap() >> (200 - 3 * 64), 0);
        v.fill_bernoulli_wordwise(0.3, &mut rng);
        assert!(v.count_ones() <= 200);
    }

    #[test]
    fn fill_bernoulli_wordwise_mean_matches_q() {
        let mut rng = StdRng::seed_from_u64(17);
        // Includes dyadic q (0.5, 0.25: shortest expansions) and the OUE
        // values the batch privatizer actually uses.
        for q in [0.01, 0.1, 0.25, 1.0 / (1f64.exp() + 1.0), 0.5, 0.9] {
            let len = 10_000;
            let trials = 50;
            let mut total = 0usize;
            let mut v = BitVec::zeros(len);
            for _ in 0..trials {
                v.fill_bernoulli_wordwise(q, &mut rng);
                total += v.count_ones();
            }
            let mean = total as f64 / (trials * len) as f64;
            assert!(
                (mean - q).abs() < 0.01,
                "q={q}: empirical mean {mean} too far off"
            );
        }
    }

    #[test]
    fn fill_bernoulli_wordwise_is_unclustered() {
        // Bit-sliced sampling must still produce independent-looking bits,
        // both within a word and across the word boundary.
        let mut rng = StdRng::seed_from_u64(23);
        let q = 0.3;
        let len = 20_000;
        let mut v = BitVec::zeros(len);
        let mut pairs = 0usize;
        let mut boundary_pairs = 0usize;
        let mut boundary_n = 0usize;
        let trials = 20;
        for _ in 0..trials {
            v.fill_bernoulli_wordwise(q, &mut rng);
            for i in 0..len - 1 {
                if v.get(i) && v.get(i + 1) {
                    pairs += 1;
                    if i % 64 == 63 {
                        boundary_pairs += 1;
                    }
                }
                if i % 64 == 63 {
                    boundary_n += 1;
                }
            }
        }
        let rate = pairs as f64 / (trials * (len - 1)) as f64;
        assert!(
            (rate - q * q).abs() < 0.01,
            "pair rate {rate} vs q²={}",
            q * q
        );
        let boundary_rate = boundary_pairs as f64 / boundary_n as f64;
        assert!(
            (boundary_rate - q * q).abs() < 0.03,
            "word-boundary pair rate {boundary_rate} vs q²={}",
            q * q
        );
    }

    /// An `RngCore` that replays a fixed script of words; drawing past its
    /// end panics, so a test can pin the exact number of draws.
    struct Scripted {
        words: Vec<u64>,
        next: usize,
    }

    impl Scripted {
        fn new(words: Vec<u64>) -> Self {
            Scripted { words, next: 0 }
        }

        fn exhausted(&self) -> bool {
            self.next == self.words.len()
        }
    }

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.next];
            self.next += 1;
            w
        }
    }

    /// `q`'s bit `i` of its binary expansion (MSB first) as a lane mask.
    fn q_bit_mask(q: f64, i: u32) -> u64 {
        (((q * TWO_POW_64) as u64 >> (63 - i)) & 1).wrapping_neg()
    }

    /// The tail compares the top `64 − WALK_DEPTH` bits of one draw with
    /// the rest of `q`'s fixed point: below it → 1; a tie or above → 0.
    #[test]
    fn wordwise_tail_decides_ties_as_zero() {
        let q = 0.3; // non-dyadic: the walk leaves the tail non-empty
        let q_fix = (q * TWO_POW_64) as u64;
        let rem = (q_fix << WALK_DEPTH) >> WALK_DEPTH;
        // Three lanes. Each walk word equals q's bit in every lane, so all
        // three lanes stay undecided through the whole walk.
        let mut script: Vec<u64> = (0..WALK_DEPTH).map(|i| q_bit_mask(q, i)).collect();
        // One tail draw per lane, lowest lane first. The low WALK_DEPTH
        // bits are set to show they are discarded.
        let low = (1u64 << WALK_DEPTH) - 1;
        for c in [rem - 1, rem, rem + 1] {
            script.push((c << WALK_DEPTH) | low);
        }
        let mut rng = Scripted::new(script);
        let mut v = BitVec::zeros(3);
        v.fill_bernoulli_wordwise(q, &mut rng);
        assert!(rng.exhausted(), "walk + 3 tail draws, no more");
        assert_eq!(v.words(), &[0b001], "c = rem−1 → 1, rem → 0, rem+1 → 0");
    }

    /// A dyadic `q` costs exactly `min(WALK_DEPTH, expansion length)`
    /// draws per word and no tail, and each lane is 1 exactly when its
    /// bits across those draws (MSB first) read below `q`.
    #[test]
    fn wordwise_dyadic_q_costs_its_expansion_length() {
        for (q, expansion) in [(0.5, 1u32), (0.25, 2), (0.375, 3)] {
            let steps = expansion.min(WALK_DEPTH) as usize;
            let len = 130; // three words, the last one partial
            let mut seeded = StdRng::seed_from_u64(5);
            let words: Vec<u64> = (0..3 * steps).map(|_| seeded.random()).collect();
            let mut rng = Scripted::new(words.clone());
            let mut v = BitVec::zeros(len);
            v.fill_bernoulli_wordwise(q, &mut rng);
            assert!(rng.exhausted(), "q={q}: fewer than {steps} draws per word");
            let threshold = (q * f64::from(1u32 << steps)) as u64;
            for i in 0..len {
                let draws = &words[(i / 64) * steps..(i / 64 + 1) * steps];
                let u = draws
                    .iter()
                    .fold(0u64, |acc, &r| (acc << 1) | ((r >> (i % 64)) & 1));
                assert_eq!(v.get(i), u < threshold, "q={q} bit {i}");
            }
        }
    }

    /// Padding lanes beyond `len` are never set, even when the tail sets
    /// every live lane.
    #[test]
    fn wordwise_tail_keeps_padding_clear() {
        let q = 0.3;
        let len = 70; // one full word plus six live lanes
        let mut script = Vec::new();
        for live in [64u32, 6] {
            script.extend((0..WALK_DEPTH).map(|i| q_bit_mask(q, i)));
            // Tail word 0 is below q's remainder: the lane is 1.
            script.extend(std::iter::repeat_n(0, live as usize));
        }
        let mut rng = Scripted::new(script);
        let mut v = BitVec::zeros(len);
        v.fill_bernoulli_wordwise(q, &mut rng);
        assert!(rng.exhausted(), "one tail draw per live lane only");
        assert_eq!(v.words(), &[u64::MAX, (1 << 6) - 1]);
        assert_eq!(v.count_ones(), len);
    }

    /// Seeded statistical check of the wordwise sampler: the rate at
    /// every lane position 0..63, and the rate of adjacent pairs that
    /// straddle a word boundary, each within 5 standard errors.
    #[test]
    fn wordwise_lane_and_boundary_rates() {
        let oue_q = |e: f64| 1.0 / (e.exp() + 1.0);
        let qs = [
            oue_q(0.5),
            oue_q(1.0),
            oue_q(2.0),
            oue_q(4.0),
            1.0 / 16.0,
            1.0 / 3.0,
            0.9,
        ];
        const WORDS: usize = 256;
        const TRIALS: usize = 160;
        let mut rng = StdRng::seed_from_u64(2024);
        let mut v = BitVec::zeros(WORDS * 64);
        for q in qs {
            let mut lane = [0u64; 64];
            let mut boundary = 0u64;
            for _ in 0..TRIALS {
                v.fill_bernoulli_wordwise(q, &mut rng);
                for (j, count) in lane.iter_mut().enumerate() {
                    *count += v.words().iter().map(|w| (w >> j) & 1).sum::<u64>();
                }
                boundary += v
                    .words()
                    .windows(2)
                    .map(|w| (w[0] >> 63) & w[1] & 1)
                    .sum::<u64>();
            }
            let n = (WORDS * TRIALS) as f64;
            let se = (q * (1.0 - q) / n).sqrt();
            for (j, &count) in lane.iter().enumerate() {
                let rate = count as f64 / n;
                assert!(
                    (rate - q).abs() < 5.0 * se,
                    "q={q} lane {j}: rate {rate} (se {se})"
                );
            }
            let pairs = ((WORDS - 1) * TRIALS) as f64;
            let q2 = q * q;
            let rate = boundary as f64 / pairs;
            let se = (q2 * (1.0 - q2) / pairs).sqrt();
            assert!(
                (rate - q2).abs() < 5.0 * se,
                "q={q}: boundary pair rate {rate} vs q² {q2} (se {se})"
            );
        }
    }

    #[test]
    fn fill_bernoulli_is_unclustered() {
        // Geometric skipping must produce independent-looking bits: adjacent
        // pairs should both be set with probability ~q².
        let mut rng = StdRng::seed_from_u64(7);
        let q = 0.3;
        let len = 20_000;
        let mut v = BitVec::zeros(len);
        let mut pairs = 0usize;
        let trials = 20;
        for _ in 0..trials {
            v.fill_bernoulli(q, &mut rng);
            for i in 0..len - 1 {
                if v.get(i) && v.get(i + 1) {
                    pairs += 1;
                }
            }
        }
        let rate = pairs as f64 / (trials * (len - 1)) as f64;
        assert!(
            (rate - q * q).abs() < 0.01,
            "pair rate {rate} vs q²={}",
            q * q
        );
    }

    #[test]
    fn count_ones_into_matches_iter_ones() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1usize, 64, 65, 200] {
            let mut v = BitVec::zeros(len);
            v.fill_bernoulli(0.4, &mut rng);
            let mut fast = vec![0u64; len + 3]; // longer slice is allowed
            v.count_ones_into(&mut fast);
            let mut slow = vec![0u64; len + 3];
            for i in v.iter_ones() {
                slow[i] += 1;
            }
            assert_eq!(fast, slow, "len={len}");
        }
    }

    #[test]
    fn count_ones_into_allows_clear_tail_columns() {
        // Flag-style layout: 65 bits, counts only cover the first 64, and
        // the tail bit is clear — allowed.
        let mut v = BitVec::zeros(65);
        v.set(63, true);
        let mut counts = [0u64; 64];
        v.count_ones_into(&mut counts);
        assert_eq!(counts[63], 1);
    }

    #[test]
    #[should_panic(expected = "set bit beyond counts length")]
    fn count_ones_into_rejects_set_bit_past_slice() {
        let mut v = BitVec::zeros(65);
        v.set(64, true);
        v.count_ones_into(&mut [0u64; 64]);
    }

    #[test]
    #[should_panic(expected = "set bit beyond counts length")]
    fn count_ones_into_rejects_set_bit_past_partial_chunk() {
        // counts ends mid-word: a set bit just past it must still panic.
        let mut v = BitVec::zeros(40);
        v.set(39, true);
        v.count_ones_into(&mut [0u64; 39]);
    }

    #[test]
    fn merge_masked_selects_per_bit() {
        let len = 130;
        let mut rng = StdRng::seed_from_u64(5);
        let mut dst = BitVec::zeros(len);
        let mut mask = BitVec::zeros(len);
        let mut src = BitVec::zeros(len);
        dst.fill_bernoulli(0.5, &mut rng);
        mask.fill_bernoulli(0.5, &mut rng);
        src.fill_bernoulli(0.5, &mut rng);
        let expect: Vec<bool> = (0..len)
            .map(|i| if mask.get(i) { src.get(i) } else { dst.get(i) })
            .collect();
        dst.merge_masked(&mask, &src);
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(dst.get(i), e, "bit {i}");
        }
    }

    #[test]
    fn toggle_all_keeps_padding_clear() {
        let mut v = BitVec::zeros(70);
        v.set(3, true);
        v.toggle_all();
        assert_eq!(v.count_ones(), 69);
        assert!(!v.get(3));
        v.toggle_all();
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let mut v = BitVec::zeros(256);
        let positions = [0usize, 1, 63, 64, 127, 128, 200, 255];
        for &p in &positions {
            v.set(p, true);
        }
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), positions);
    }
}
