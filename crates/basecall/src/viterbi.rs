//! Viterbi decoding over the k-mer state space.
//!
//! The HMM has one state per pore k-mer. At every signal sample the strand
//! either *stays* (the same k-mer keeps occupying the pore) or *advances* by
//! one base (the k-mer shifts left and a new base enters). The decoder finds
//! the maximum-likelihood state path and reports, per sample, the state and
//! whether the path advanced — which is all the basecaller needs to emit
//! bases.
//!
//! # Hot-path organization
//!
//! The decode is the dominant kernel of the whole pipeline (n·n_states DP
//! cells per chunk). Every DP row after the first goes through one exact
//! row kernel that is vectorised across the **state** axis:
//!
//! * **Layout.** Let `G = n_states / 4`. State `s = 4g + b` advances from
//!   the four predecessors `c·G + g` (`c` = the base that drops off the
//!   front of the k-mer), so the advance predecessors depend only on the
//!   group `g = s >> 2`, and the predecessors of group `g` sit at offset `g`
//!   of four contiguous `G`-long slices of the previous row.
//! * **Pass 1 (per group)** takes the elementwise best of those four slices
//!   and adds `log_advance`, remembering which slice won (choice `1 + c`).
//!   It is an elementwise operation over `g`. Each group's result is then
//!   copied to its four states, so pass 2 reads it at stride 1 (a
//!   `s / 4`-indexed read inside pass 2 keeps the loop from vectorising).
//! * **Pass 2 (per state)** fuses the emission MVM into the row:
//!   `e = w0[s]·x² + w1[s]·x + w2[s]` from the structure-of-arrays weight
//!   columns, then the branch-free stay-vs-advance select
//!   `curr[s] = (take ? adv[g] : prev[s] + log_stay) + e` with
//!   `take = adv[g] > prev[s] + log_stay`, and the backpointer
//!   `take ? choice[g] : 0` (written as a byte mask, so it stays a select
//!   rather than a branch).
//! * **Monomorphised.** The row loop is instantiated for every pore k in
//!   `1..=6` (`S` = 4…4096 states, `G = S / 4`) behind one `match` on the
//!   state count, so every loop has a compile-time trip count and the row
//!   buffers are `&[f32; S]` without bounds checks.
//! * **Dispatch.** On x86_64 the row loop is compiled a second time with
//!   AVX2 enabled and chosen at run time when the CPU supports it; the
//!   portable instantiation is the fallback.
//!
//! **Exactness.** Both instantiations produce exactly the bits of the plain
//! per-sample scalar Viterbi (kept verbatim as the oracle in
//! `tests/viterbi_oracle.rs`):
//!
//! * pass 1 compares with strict `>` in `c` order, so ties go to the lowest
//!   `c`, as in a scalar loop over the four predecessors;
//! * in pass 2 the stay wins ties (`take` is a strict `>`);
//! * every value is computed by the same operations in the same order: the
//!   emission is [`EmissionModel::log_likelihoods`]' `w0·(x·x) + w1·x +
//!   w2·1` (and `w2·1 == w2`), and the score adds it to the selected
//!   candidate;
//! * there is no FMA: Rust never contracts a multiply and an add, and the
//!   AVX2 build does not enable `fma`, so both targets round identically.
//!
//! All working memory lives in a caller-owned [`DecodeScratch`], so
//! decoding a stream of equally sized chunks performs **zero heap
//! allocations** after the first chunk warms the buffers.

use crate::emission::EmissionModel;

/// Result of decoding one chunk of samples (owning variant, produced by
/// [`decode`]; the allocation-free path is [`decode_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutcome {
    /// Decoded state per sample.
    pub states: Vec<u16>,
    /// `true` at sample `t` if the path advanced into a new k-mer at `t`
    /// (always `false` at sample 0: the initial state "appears" rather than
    /// advances).
    pub advanced: Vec<bool>,
    /// Log-probability score of the winning path (emissions + transitions).
    pub score: f64,
    /// Number of emission MVMs performed (= number of samples).
    pub mvm_ops: usize,
    /// Number of Viterbi DP cells computed (= samples × states).
    pub cells: usize,
}

impl DecodeOutcome {
    /// The state occupying the pore after the last sample; feed this into the
    /// next chunk's decode as `init_state` to stitch chunks together.
    pub fn final_state(&self) -> Option<u16> {
        self.states.last().copied()
    }
}

/// Scalar results of an in-place decode; the state path lives in the
/// [`DecodeScratch`] that was passed in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecodeStats {
    /// Log-probability score of the winning path.
    pub score: f64,
    /// Emission MVMs performed (= number of samples).
    pub mvm_ops: usize,
    /// Viterbi DP cells computed (= samples × states).
    pub cells: usize,
}

/// Reusable decode workspace.
///
/// Holds every buffer the DP needs (backpointers, the two score rows, the
/// advance candidates per group and per state, and the output state path). Buffers grow to the
/// largest chunk seen and are then reused, so a steady-state stream of
/// chunks decodes without touching the allocator.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    backptr: Vec<u8>,
    prev: Vec<f32>,
    curr: Vec<f32>,
    group_best: Vec<f32>,
    group_choice: Vec<u8>,
    adv_best: Vec<f32>,
    adv_choice: Vec<u8>,
    states: Vec<u16>,
    advanced: Vec<bool>,
}

impl DecodeScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }

    /// Decoded state per sample of the most recent [`decode_with`] call.
    pub fn states(&self) -> &[u16] {
        &self.states
    }

    /// Per-sample advance flags of the most recent [`decode_with`] call.
    pub fn advanced(&self) -> &[bool] {
        &self.advanced
    }

    /// The state occupying the pore after the last decoded sample.
    pub fn final_state(&self) -> Option<u16> {
        self.states.last().copied()
    }

    /// Sizes every buffer for an `n`-sample, `n_states`-state decode.
    ///
    /// No buffer is cleared: the decode overwrites every entry it reads
    /// back, except backpointer row 0, which the stitched init writes
    /// sparsely and [`decode_on`] zeroes itself. `resize` reuses existing
    /// capacity, so this allocates only when a larger chunk than ever
    /// before arrives.
    fn prepare(&mut self, n: usize, n_states: usize) {
        self.backptr.resize(n * n_states, 0);
        self.prev.resize(n_states, 0.0);
        self.curr.resize(n_states, 0.0);
        self.group_best.resize(n_states / 4, 0.0);
        self.group_choice.resize(n_states / 4, 0);
        self.adv_best.resize(n_states, 0.0);
        self.adv_choice.resize(n_states, 0);
        self.states.resize(n, 0);
        self.advanced.resize(n, false);
    }
}

/// Viterbi decoder configuration: the transition log-probabilities derived
/// from the mean dwell time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transitions {
    /// log P(stay in current k-mer for one more sample).
    pub log_stay: f32,
    /// log P(advance to one specific successor k-mer).
    pub log_advance: f32,
}

impl Transitions {
    /// Builds transitions from a mean dwell time in samples per base.
    ///
    /// `P(advance) = 1/mean_dwell`, split uniformly over the 4 successor
    /// k-mers.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_dwell > 1` (a dwell of exactly 1 leaves zero
    /// probability of staying, which degenerates the HMM).
    pub fn from_mean_dwell(mean_dwell: f64) -> Transitions {
        assert!(mean_dwell > 1.0, "mean dwell must be > 1 sample/base");
        let p_adv = 1.0 / mean_dwell;
        Transitions {
            log_stay: (1.0 - p_adv).ln() as f32,
            log_advance: (p_adv / 4.0).ln() as f32,
        }
    }
}

/// Decodes `samples` into the maximum-likelihood state path, allocating the
/// result.
///
/// Convenience wrapper over [`decode_with`] for one-shot callers; hot loops
/// should own a [`DecodeScratch`] and call [`decode_with`] instead.
pub fn decode(
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
) -> DecodeOutcome {
    let mut scratch = DecodeScratch::new();
    let stats = decode_with(emission, samples, transitions, init_state, &mut scratch);
    DecodeOutcome {
        states: scratch.states,
        advanced: scratch.advanced,
        score: stats.score,
        mvm_ops: stats.mvm_ops,
        cells: stats.cells,
    }
}

/// Decodes `samples` into the maximum-likelihood state path, writing the
/// per-sample states and advance flags into `scratch`.
///
/// `init_state`, when present, pins the path's first state to the final state
/// of the previous chunk (chunk stitching); otherwise the initial state is
/// free (uniform prior).
///
/// Returns an empty outcome for an empty sample slice. In steady state
/// (chunks no larger than previously decoded ones) this performs no heap
/// allocation — verified by `tests/alloc_free.rs`.
pub fn decode_with(
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
    scratch: &mut DecodeScratch,
) -> DecodeStats {
    decode_on(
        Target::detect(),
        emission,
        samples,
        transitions,
        init_state,
        scratch,
    )
}

/// The instruction set a row kernel instantiation is compiled for.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The baseline target of the build.
    Portable,
    /// x86_64 with AVX2. Only constructed once the running CPU is known to
    /// support AVX2 ([`Target::detect`], or a test that checked first).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Target {
    /// The fastest target the running CPU supports.
    fn detect() -> Target {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Target::Avx2;
        }
        Target::Portable
    }
}

/// [`decode_with`] on an explicit row-kernel target.
fn decode_on(
    target: Target,
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
    scratch: &mut DecodeScratch,
) -> DecodeStats {
    let n_states = emission.states();
    debug_assert!(n_states.is_power_of_two() && n_states >= 4);
    let n = samples.len();
    scratch.prepare(n, n_states);
    if n == 0 {
        return DecodeStats::default();
    }
    let k_shift = (n_states.trailing_zeros() - 2) as usize; // 2(k-1) bits
    let log_stay = transitions.log_stay;
    let log_advance = transitions.log_advance;

    // Row 0. `curr` holds its emissions until row 1 overwrites it.
    // Backpointers: 0 = stay, 1 + c = advance where the dropped leading base
    // was c (predecessor = (s >> 2) | (c << k_shift)).
    let DecodeScratch {
        backptr,
        prev,
        curr,
        ..
    } = scratch;
    emission.log_likelihoods(samples[0], curr);
    backptr[..n_states].fill(0);
    match init_state {
        Some(s0) => {
            // The previous chunk ended in s0; crossing the chunk boundary is
            // one ordinary HMM step, so the first sample either stays in s0
            // or advances into one of its successors.
            let s0 = s0 as usize;
            prev.fill(f32::NEG_INFINITY);
            prev[s0] = curr[s0] + log_stay;
            for b in 0..4usize {
                let succ = ((s0 << 2) | b) & (n_states - 1);
                let cand = curr[succ] + log_advance;
                if cand > prev[succ] {
                    prev[succ] = cand;
                    // Dropped leading base of the advance = s0's top 2 bits.
                    backptr[succ] = 1 + (s0 >> k_shift) as u8;
                }
            }
        }
        None => prev.copy_from_slice(curr),
    }

    // Rows 1..n.
    match n_states {
        4 => dp_rows_on::<1, 4>(target, emission, transitions, samples, scratch),
        16 => dp_rows_on::<4, 16>(target, emission, transitions, samples, scratch),
        64 => dp_rows_on::<16, 64>(target, emission, transitions, samples, scratch),
        256 => dp_rows_on::<64, 256>(target, emission, transitions, samples, scratch),
        1024 => dp_rows_on::<256, 1024>(target, emission, transitions, samples, scratch),
        4096 => dp_rows_on::<1024, 4096>(target, emission, transitions, samples, scratch),
        _ => panic!("unsupported state count {n_states}: pore k must be in 1..=6"),
    }
    let DecodeScratch {
        backptr,
        prev,
        curr,
        states,
        advanced,
        ..
    } = scratch;
    // The row loop alternates its two buffers; after an odd number of rows
    // the last row sits in `curr`.
    if (n - 1) % 2 == 1 {
        std::mem::swap(prev, curr);
    }

    // Traceback.
    let (mut state, score) = prev
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map(|(s, &v)| (s, v as f64))
        .expect("non-empty state space");
    for t in (1..n).rev() {
        states[t] = state as u16;
        let choice = backptr[t * n_states + state];
        if choice == 0 {
            advanced[t] = false;
        } else {
            advanced[t] = true;
            let c = (choice - 1) as usize;
            state = (state >> 2) | (c << k_shift);
        }
    }
    states[0] = state as u16;
    // Sample 0 advanced only if we were stitched to a previous chunk and the
    // winning path took the boundary-advance branch. states[0] then already
    // holds the advanced-into state, which is what callers emit from.
    advanced[0] = init_state.is_some() && backptr[state] != 0;

    DecodeStats {
        score,
        mvm_ops: n,
        cells: n * n_states,
    }
}

/// Runs rows `1..samples.len()` through the row kernel instantiation for
/// `target`.
fn dp_rows_on<const G: usize, const S: usize>(
    target: Target,
    emission: &EmissionModel,
    transitions: Transitions,
    samples: &[f32],
    scratch: &mut DecodeScratch,
) {
    match target {
        Target::Portable => dp_rows::<G, S>(emission, transitions, samples, scratch),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Target::Avx2` only exists once AVX2 support was detected.
        Target::Avx2 => unsafe { dp_rows_avx2::<G, S>(emission, transitions, samples, scratch) },
    }
}

/// [`dp_rows`] compiled with AVX2 enabled. `fma` stays off on purpose: the
/// rows must round exactly like the portable build (see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dp_rows_avx2<const G: usize, const S: usize>(
    emission: &EmissionModel,
    transitions: Transitions,
    samples: &[f32],
    scratch: &mut DecodeScratch,
) {
    dp_rows::<G, S>(emission, transitions, samples, scratch)
}

/// Computes DP rows `1..samples.len()` from row 0 in `scratch.prev`,
/// alternating the two score buffers: row `t` lands in `prev` for even `t`
/// and in `curr` for odd `t`. `S` is the state count and `G = S / 4`.
#[inline(always)]
fn dp_rows<const G: usize, const S: usize>(
    emission: &EmissionModel,
    transitions: Transitions,
    samples: &[f32],
    scratch: &mut DecodeScratch,
) {
    let [w0, w1, w2] = emission.columns().map(as_row::<f32, S>);
    let mut prev: &mut [f32; S] = as_row_mut(&mut scratch.prev);
    let mut curr: &mut [f32; S] = as_row_mut(&mut scratch.curr);
    let group_best: &mut [f32; G] = as_row_mut(&mut scratch.group_best);
    let group_choice: &mut [u8; G] = as_row_mut(&mut scratch.group_choice);
    let adv_best: &mut [f32; S] = as_row_mut(&mut scratch.adv_best);
    let adv_choice: &mut [u8; S] = as_row_mut(&mut scratch.adv_choice);
    let (bp_rows, _) = scratch.backptr.as_chunks_mut::<S>();
    for (&x, bp) in samples[1..].iter().zip(&mut bp_rows[1..]) {
        dp_row::<G, S>(
            x,
            transitions,
            w0,
            w1,
            w2,
            prev,
            group_best,
            group_choice,
            adv_best,
            adv_choice,
            curr,
            bp,
        );
        std::mem::swap(&mut prev, &mut curr);
    }
}

/// One DP row: `curr` and its backpointers `bp` from the previous row
/// `prev` and the sample `x`, with `w0..w2` the emission weight columns. The
/// advance candidates pass through `group_*` (per group) and `adv_*` (the
/// same values broadcast to each group's four states).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dp_row<const G: usize, const S: usize>(
    x: f32,
    transitions: Transitions,
    w0: &[f32; S],
    w1: &[f32; S],
    w2: &[f32; S],
    prev: &[f32; S],
    group_best: &mut [f32; G],
    group_choice: &mut [u8; G],
    adv_best: &mut [f32; S],
    adv_choice: &mut [u8; S],
    curr: &mut [f32; S],
    bp: &mut [u8; S],
) {
    let Transitions {
        log_stay,
        log_advance,
    } = transitions;

    // Pass 1: per group g, the best of the four advance predecessors c·G + g
    // — the same offset in four contiguous quarters of `prev`.
    let (quarters, _) = prev.as_chunks::<G>();
    let (p0, p1, p2, p3) = (&quarters[0], &quarters[1], &quarters[2], &quarters[3]);
    for g in 0..G {
        let mut best = p0[g];
        let mut choice = 1u8;
        if p1[g] > best {
            best = p1[g];
            choice = 2;
        }
        if p2[g] > best {
            best = p2[g];
            choice = 3;
        }
        if p3[g] > best {
            best = p3[g];
            choice = 4;
        }
        group_best[g] = best + log_advance;
        group_choice[g] = choice;
    }
    // Broadcast each group's candidate to its states 4g..4g+4, so pass 2 is
    // one elementwise loop (a stride-¼ read inside it does not vectorise).
    for g in 0..G {
        for b in 0..4 {
            adv_best[4 * g + b] = group_best[g];
            adv_choice[4 * g + b] = group_choice[g];
        }
    }

    // Pass 2: per state, the fused emission and the stay-vs-advance select
    // (the stay wins ties). The backpointer is `take ? choice : 0` as a byte
    // mask: written as an `if`, it compiles to a branch that blocks
    // vectorisation.
    let x2 = x * x;
    for s in 0..S {
        let e = w0[s] * x2 + w1[s] * x + w2[s];
        let stay = prev[s] + log_stay;
        let adv = adv_best[s];
        let take = adv > stay;
        curr[s] = if take { adv } else { stay } + e;
        bp[s] = adv_choice[s] & 0u8.wrapping_sub(take as u8);
    }
}

/// Views a buffer sized by [`DecodeScratch::prepare`] as one `N`-long row.
#[inline(always)]
fn as_row<T, const N: usize>(buf: &[T]) -> &[T; N] {
    buf.try_into()
        .expect("row buffer sized for the state count")
}

/// Mutable twin of [`as_row`].
#[inline(always)]
fn as_row_mut<T, const N: usize>(buf: &mut [T]) -> &mut [T; N] {
    buf.try_into()
        .expect("row buffer sized for the state count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_signal::PoreModel;

    fn setup() -> (PoreModel, EmissionModel, Transitions) {
        let pore = PoreModel::synthetic(3, 7);
        let em = EmissionModel::from_pore_model(&pore);
        (pore, em, Transitions::from_mean_dwell(8.0))
    }

    /// Builds a clean signal that dwells `dwell` samples in each state of
    /// `path` (which must be a valid k-mer walk).
    fn signal_for(pore: &PoreModel, path: &[u16], dwell: usize) -> Vec<f32> {
        let mut out = Vec::new();
        for &s in path {
            for _ in 0..dwell {
                out.push(pore.level_bits(s as u64));
            }
        }
        out
    }

    #[test]
    fn empty_input_empty_output() {
        let (_, em, tr) = setup();
        let out = decode(&em, &[], tr, None);
        assert!(out.states.is_empty());
        assert_eq!(out.mvm_ops, 0);
        assert_eq!(out.final_state(), None);
    }

    #[test]
    fn clean_signal_recovers_state_path() {
        let (pore, em, tr) = setup();
        // Walk: AAA -> AAC -> ACG -> CGT (states 0b000000, 0b000001, ...).
        let path = [0b000000u16, 0b000001, 0b000110, 0b011011];
        // Validate it's a legal walk.
        for w in path.windows(2) {
            assert_eq!((w[1] >> 2), w[0] & 0b001111);
        }
        let samples = signal_for(&pore, &path, 8);
        let out = decode(&em, &samples, tr, None);
        // Decoded dwell blocks must match the path.
        let mut decoded_path = vec![out.states[0]];
        for t in 1..out.states.len() {
            if out.advanced[t] {
                decoded_path.push(out.states[t]);
            }
        }
        assert_eq!(decoded_path, path);
        assert_eq!(out.mvm_ops, samples.len());
        assert_eq!(out.cells, samples.len() * em.states());
    }

    #[test]
    fn advance_count_matches_transitions() {
        let (pore, em, tr) = setup();
        let path = [3u16, 12, 48, 65 & 63, 7];
        // Make the path legal by construction instead: random walk.
        let mut legal = vec![path[0]];
        let mut s = path[0];
        for b in [1u16, 3, 0, 2, 1, 0] {
            s = ((s << 2) | b) & 63;
            legal.push(s);
        }
        let samples = signal_for(&pore, &legal, 10);
        let out = decode(&em, &samples, tr, None);
        let advances = out.advanced.iter().filter(|&&a| a).count();
        assert_eq!(advances, legal.len() - 1);
    }

    #[test]
    fn stitched_decode_continues_path() {
        let (pore, em, tr) = setup();
        let mut states = vec![9u16];
        let mut s = 9u16;
        for b in [0u16, 2, 3, 1, 1, 0, 2] {
            s = ((s << 2) | b) & 63;
            states.push(s);
        }
        let samples = signal_for(&pore, &states, 8);
        let (first, second) = samples.split_at(samples.len() / 2);
        let a = decode(&em, first, tr, None);
        let b = decode(&em, second, tr, a.final_state());
        // The stitched decode must start where the previous chunk ended (or
        // one advance past it).
        let boundary_state = a.final_state().unwrap();
        let succs: Vec<u16> = (0..4).map(|c| ((boundary_state << 2) | c) & 63).collect();
        assert!(
            b.states[0] == boundary_state || succs.contains(&b.states[0]),
            "chunk 2 starts at {} which is neither {} nor its successor",
            b.states[0],
            boundary_state
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_decode() {
        // The same scratch driven across chunks of varying sizes and noise
        // must give results identical to a fresh allocation each time.
        let (pore, em, tr) = setup();
        let mut scratch = DecodeScratch::new();
        let mut carry: Option<u16> = None;
        for seed in 0..12u16 {
            let mut path = vec![seed % 64];
            let mut s = path[0];
            for b in 0..(4 + seed % 7) {
                s = ((s << 2) | (b % 4)) & 63;
                path.push(s);
            }
            let mut samples = signal_for(&pore, &path, 6 + (seed as usize % 5));
            // Perturb the signal deterministically so ties and near-ties
            // occur in both code paths identically.
            for (i, x) in samples.iter_mut().enumerate() {
                *x += ((i * 2654435761) % 97) as f32 * 0.01 - 0.48;
            }
            let fresh = decode(&em, &samples, tr, carry);
            let stats = decode_with(&em, &samples, tr, carry, &mut scratch);
            assert_eq!(scratch.states(), &fresh.states[..], "seed {seed}");
            assert_eq!(scratch.advanced(), &fresh.advanced[..], "seed {seed}");
            assert_eq!(stats.score, fresh.score, "seed {seed}");
            assert_eq!(stats.mvm_ops, fresh.mvm_ops);
            assert_eq!(stats.cells, fresh.cells);
            assert_eq!(scratch.final_state(), fresh.final_state());
            carry = fresh.final_state();
        }
    }

    #[test]
    fn viterbi_matches_brute_force_on_tiny_input() {
        let (pore, em, tr) = setup();
        // 4 noisy samples; brute-force all 64 * 5^3 paths.
        let samples = [
            pore.level_bits(5) + 0.3,
            pore.level_bits(5) - 0.2,
            pore.level_bits(((5 << 2) | 1) & 63) + 0.1,
            pore.level_bits(((5 << 2) | 1) & 63) - 0.4,
        ];
        let out = decode(&em, &samples, tr, None);

        // Brute force: enumerate all state sequences where each step is stay
        // or one of the 4 advances.
        let mut best = f64::NEG_INFINITY;
        let n_states = em.states();
        let mut stack: Vec<(usize, usize, f64)> = (0..n_states)
            .map(|s| (1usize, s, em.log_likelihood(samples[0], s) as f64))
            .collect();
        while let Some((t, s, score)) = stack.pop() {
            if t == samples.len() {
                best = best.max(score);
                continue;
            }
            let e = |s2: usize| em.log_likelihood(samples[t], s2) as f64;
            stack.push((t + 1, s, score + tr.log_stay as f64 + e(s)));
            for b in 0..4usize {
                let s2 = ((s << 2) | b) & (n_states - 1);
                stack.push((t + 1, s2, score + tr.log_advance as f64 + e(s2)));
            }
        }
        assert!(
            (out.score - best).abs() < 1e-3,
            "viterbi {} vs brute force {}",
            out.score,
            best
        );
    }

    #[test]
    #[should_panic(expected = "mean dwell")]
    fn transitions_reject_dwell_of_one() {
        let _ = Transitions::from_mean_dwell(1.0);
    }

    /// Every row-kernel target this host can run: the dispatcher picks only
    /// one of them, so each is exercised here explicitly.
    fn host_targets() -> Vec<Target> {
        #[allow(unused_mut)]
        let mut targets = vec![Target::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            targets.push(Target::Avx2);
        }
        targets
    }

    #[test]
    fn every_target_decodes_bit_identically() {
        let targets = host_targets();
        for k in 1..=6usize {
            let pore = PoreModel::synthetic(k, 5);
            let em = EmissionModel::from_pore_model(&pore);
            let n_states = em.states() as u16;
            let tr = Transitions::from_mean_dwell(7.0);
            for seed in 0..8u16 {
                // A legal walk with deterministic perturbation (ties and
                // near-ties included), stitched or free, of odd and even
                // lengths so the final row lands in either score buffer.
                let mut path = vec![seed.wrapping_mul(37) % n_states];
                for b in 0..(3 + seed % 5) {
                    let s = *path.last().unwrap();
                    path.push(((s << 2) | (b % 4)) & (n_states - 1));
                }
                let mut samples = signal_for(&pore, &path, 4 + seed as usize % 3);
                for (i, x) in samples.iter_mut().enumerate() {
                    *x += ((i * 2654435761) % 97) as f32 * 0.03 - 1.4;
                }
                samples.truncate(samples.len() - seed as usize % 2);
                let init = (seed % 3 != 0).then_some(seed.wrapping_mul(11) % n_states);

                let want = decode(&em, &samples, tr, init);
                for &target in &targets {
                    let mut scratch = DecodeScratch::new();
                    let stats = decode_on(target, &em, &samples, tr, init, &mut scratch);
                    let label = format!("{target:?} k {k} seed {seed}");
                    assert_eq!(scratch.states(), &want.states[..], "{label}");
                    assert_eq!(scratch.advanced(), &want.advanced[..], "{label}");
                    assert_eq!(stats.score.to_bits(), want.score.to_bits(), "{label}");
                    assert_eq!((stats.mvm_ops, stats.cells), (want.mvm_ops, want.cells));
                }
            }
        }
    }
}
