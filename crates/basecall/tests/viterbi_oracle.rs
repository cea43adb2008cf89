//! Oracle suite for the Viterbi row kernel: `viterbi::decode_with` must
//! reproduce, bit for bit, the straightforward per-sample scalar decode it
//! replaced. [`oracle_decode`] is that scalar decode, kept verbatim (its
//! blocked emission call inlined as the same `w0·x² + w1·x + w2·1` sum over
//! the row-major weight matrix), so any change to the kernel's operation
//! order, tie-breaking or backpointer encoding shows up here as a mismatch.

use genpip_basecall::viterbi::{decode_with, DecodeScratch, Transitions};
use genpip_basecall::EmissionModel;
use genpip_genomics::rng::{self, Rng, SeededRng};
use genpip_signal::PoreModel;

/// The scalar decode's result, field for field what `decode_with` reports.
#[derive(Debug, PartialEq)]
struct Oracle {
    states: Vec<u16>,
    advanced: Vec<bool>,
    score: f64,
    mvm_ops: usize,
    cells: usize,
}

/// The pre-vectorisation `decode_with`: one DP row per sample, emissions in
/// strided blocks of 8 samples, the 4-predecessor gather hoisted per group.
fn oracle_decode(
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
) -> Oracle {
    const BLOCK: usize = 8;
    let n_states = emission.states();
    let n = samples.len();
    let mut backptr = vec![0u8; n * n_states];
    let mut prev = vec![0.0f32; n_states];
    let mut curr = vec![0.0f32; n_states];
    let mut emit = vec![0.0f32; BLOCK * n_states];
    let mut adv_best = vec![0.0f32; n_states / 4];
    let mut adv_choice = vec![0u8; n_states / 4];
    let mut states = vec![0u16; n];
    let mut advanced = vec![false; n];
    if n == 0 {
        return Oracle {
            states,
            advanced,
            score: 0.0,
            mvm_ops: 0,
            cells: 0,
        };
    }
    let k_shift = (n_states.trailing_zeros() - 2) as usize; // 2(k-1) bits
    let n_groups = n_states >> 2;
    let neg_inf = f32::NEG_INFINITY;
    let log_stay = transitions.log_stay;
    let log_advance = transitions.log_advance;

    // Backpointers: 0 = stay, 1 + c = advance where the dropped leading base
    // was c (predecessor = (s >> 2) | (c << k_shift)).
    emission.log_likelihoods(samples[0], &mut emit[..n_states]);
    match init_state {
        Some(s0) => {
            let s0 = s0 as usize;
            prev.fill(neg_inf);
            prev[s0] = emit[s0] + log_stay;
            for b in 0..4usize {
                let succ = ((s0 << 2) | b) & (n_states - 1);
                let cand = emit[succ] + log_advance;
                if cand > prev[succ] {
                    prev[succ] = cand;
                    backptr[succ] = 1 + (s0 >> k_shift) as u8;
                }
            }
        }
        None => {
            prev.copy_from_slice(&emit[..n_states]);
        }
    }

    let weights = emission.weights();
    let mut t0 = 1usize;
    while t0 < n {
        let len = BLOCK.min(n - t0);
        // The blocked emission MVM, inlined.
        let mut features = [[0.0f32; 3]; BLOCK];
        for (f, &x) in features.iter_mut().zip(&samples[t0..t0 + len]) {
            *f = EmissionModel::features(x);
        }
        for s in 0..n_states {
            let row = &weights[s * EmissionModel::FEATURES..(s + 1) * EmissionModel::FEATURES];
            let (w0, w1, w2) = (row[0], row[1], row[2]);
            for (i, f) in features[..len].iter().enumerate() {
                emit[i * n_states + s] = w0 * f[0] + w1 * f[1] + w2 * f[2];
            }
        }
        for i in 0..len {
            let t = t0 + i;
            let emit_row = &emit[i * n_states..(i + 1) * n_states];
            let bp = &mut backptr[t * n_states..(t + 1) * n_states];
            for low in 0..n_groups {
                let mut best = prev[low];
                let mut choice = 1u8; // c = 0
                for c in 1..4usize {
                    let v = prev[low | (c << k_shift)];
                    if v > best {
                        best = v;
                        choice = 1 + c as u8;
                    }
                }
                adv_best[low] = best + log_advance;
                adv_choice[low] = choice;
            }
            for s in 0..n_states {
                let stay = prev[s] + log_stay;
                let adv = adv_best[s >> 2];
                if adv > stay {
                    curr[s] = adv + emit_row[s];
                    bp[s] = adv_choice[s >> 2];
                } else {
                    curr[s] = stay + emit_row[s];
                    bp[s] = 0;
                }
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        t0 += len;
    }

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
    if init_state.is_some() {
        advanced[0] = backptr[state] != 0;
    }
    Oracle {
        states,
        advanced,
        score,
        mvm_ops: n,
        cells: n * n_states,
    }
}

/// Decodes one chunk with both implementations (through a reused scratch on
/// the kernel side) and asserts every output field is identical.
fn assert_matches_oracle(
    emission: &EmissionModel,
    samples: &[f32],
    transitions: Transitions,
    init_state: Option<u16>,
    scratch: &mut DecodeScratch,
    label: &str,
) {
    let want = oracle_decode(emission, samples, transitions, init_state);
    let stats = decode_with(emission, samples, transitions, init_state, scratch);
    let got = Oracle {
        states: scratch.states().to_vec(),
        advanced: scratch.advanced().to_vec(),
        score: stats.score,
        mvm_ops: stats.mvm_ops,
        cells: stats.cells,
    };
    assert_eq!(
        got.score.to_bits(),
        want.score.to_bits(),
        "{label}: score {} vs oracle {}",
        got.score,
        want.score
    );
    assert_eq!(got, want, "{label}");
}

/// A noisy signal along a random k-mer walk: geometric dwells around
/// `mean_dwell` samples, Gaussian noise of `noise` × the model's event std.
fn walk_signal(
    pore: &PoreModel,
    rng: &mut SeededRng,
    len: usize,
    noise: f64,
    mean_dwell: f64,
) -> Vec<f32> {
    let mask = pore.states() as u64 - 1;
    let mut state = rng.random_range(0..pore.states() as u64);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let dwell = 1 + rng::geometric(rng, 1.0 / mean_dwell) as usize;
        let level = pore.level_bits(state) as f64;
        for _ in 0..dwell.min(len - out.len()) {
            out.push(rng::normal(rng, level, noise * pore.event_std() as f64) as f32);
        }
        state = ((state << 2) | rng.random_range(0..4u64)) & mask;
    }
    out
}

/// Draws the carried state: `None` for a first chunk, otherwise any state
/// (a stitched first row is −∞ everywhere except `s0` and its successors).
fn draw_init(rng: &mut SeededRng, n_states: usize) -> Option<u16> {
    if rng.random_range(0..3u32) == 0 {
        None
    } else {
        Some(rng.random_range(0..n_states as u64) as u16)
    }
}

#[test]
fn kernel_matches_scalar_oracle_on_seeded_chunks() {
    // (pore k, chunks): large state spaces get fewer chunks so the suite
    // stays within a few seconds; every k still sees every length class.
    let plan = [
        (1usize, 400usize),
        (2, 450),
        (3, 500),
        (4, 450),
        (5, 200),
        (6, 60),
    ];
    let edge_lengths = [1usize, 2, 7, 9];
    let mut total = 0usize;
    for (k, chunks) in plan {
        let pore = PoreModel::synthetic(k, 7 + k as u64);
        let emission = EmissionModel::from_pore_model(&pore);
        let n_states = emission.states();
        let mut rng = rng::derive(0x0bace11, k as u64);
        let mut scratch = DecodeScratch::new();
        for i in 0..chunks {
            let len = if i % 5 == 0 {
                edge_lengths[(i / 5) % edge_lengths.len()]
            } else if k == 6 && i % 3 != 0 {
                rng.random_range(300..700usize)
            } else {
                rng.random_range(300..=3_000usize)
            };
            let noise = rng.random_range(0.5..4.0f64);
            let mean_dwell = rng.random_range(2.0..12.0f64);
            let transitions = Transitions::from_mean_dwell(mean_dwell);
            let samples = walk_signal(&pore, &mut rng, len, noise, mean_dwell);
            let init = draw_init(&mut rng, n_states);
            let label = format!("k {k} chunk {i} len {len} noise {noise:.2} init {init:?}");
            assert_matches_oracle(&emission, &samples, transitions, init, &mut scratch, &label);
            total += 1;
        }
    }
    assert!(total >= 2_000, "only {total} chunks checked");
}

#[test]
fn stitched_first_rows_match_the_oracle_for_every_carried_state() {
    // Every carried state s0 of the small models, and a spread of them for
    // the large ones: the first row is −∞ except s0 and its successors, so
    // the gather compares −∞ ties on nearly every group of row 1. Equal stay
    // and advance log-probabilities also make a homopolymer s0's stay and
    // self-advance tie exactly in the first row.
    let equal = Transitions {
        log_stay: -1.5,
        log_advance: -1.5,
    };
    for k in 1..=6usize {
        let pore = PoreModel::synthetic(k, 3);
        let emission = EmissionModel::from_pore_model(&pore);
        let n_states = emission.states();
        let mut rng = rng::derive(0x5717c4, k as u64);
        let mut scratch = DecodeScratch::new();
        let step = (n_states / 64).max(1);
        for transitions in [Transitions::from_mean_dwell(6.0), equal] {
            for s0 in (0..n_states).step_by(step) {
                let len = [1usize, 2, 3, 9, 40][s0 % 5];
                let samples = walk_signal(&pore, &mut rng, len, 1.5, 6.0);
                let label = format!("k {k} s0 {s0} len {len} {transitions:?}");
                assert_matches_oracle(
                    &emission,
                    &samples,
                    transitions,
                    Some(s0 as u16),
                    &mut scratch,
                    &label,
                );
            }
        }
    }
}

#[test]
fn tie_heavy_inputs_match_the_oracle() {
    for k in 1..=6usize {
        let synthetic = PoreModel::synthetic(k, 11);
        let n_states = synthetic.states();
        // A model whose level depends only on the k-mer's last base: states
        // that differ only in their first base score identically along any
        // signal, so every gather sees an exact four-way tie and the winner
        // decides which states the traceback reports.
        let quantized = PoreModel::from_parts(
            k,
            (0..n_states)
                .map(|s| 70.0 + 10.0 * (s % 4) as f32)
                .collect(),
            1.0,
        );
        for pore in [&synthetic, &quantized] {
            let emission = EmissionModel::from_pore_model(pore);
            let transitions = Transitions::from_mean_dwell(8.0);
            let mut scratch = DecodeScratch::new();
            let mut levels = pore.levels().to_vec();
            levels.sort_by(f32::total_cmp);
            levels.dedup();
            let len = if k == 6 { 120 } else { 400 };
            for (j, pair) in levels.windows(2).take(6).enumerate() {
                // Constant samples exactly midway between two adjacent levels.
                let midway = vec![(pair[0] + pair[1]) / 2.0; len];
                // Constant samples exactly on a level.
                let on_level = vec![pair[0]; len];
                // A walk over the levels, so advances (and their tied
                // predecessors) land on the winning path.
                let mut rng = rng::derive(0x71e5, (k * 8 + j) as u64);
                let walk = walk_signal(pore, &mut rng, len, 0.5, 6.0);
                for (name, samples) in [
                    ("midway", &midway),
                    ("on-level", &on_level),
                    ("walk", &walk),
                ] {
                    for init in [None, Some(0u16), Some((n_states - 1) as u16)] {
                        let label = format!("k {k} {name} pair {j} init {init:?}");
                        assert_matches_oracle(
                            &emission,
                            samples,
                            transitions,
                            init,
                            &mut scratch,
                            &label,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_chunk_matches_the_oracle() {
    let pore = PoreModel::synthetic(3, 7);
    let emission = EmissionModel::from_pore_model(&pore);
    let transitions = Transitions::from_mean_dwell(8.0);
    let mut scratch = DecodeScratch::new();
    for init in [None, Some(5u16)] {
        assert_matches_oracle(&emission, &[], transitions, init, &mut scratch, "empty");
    }
}
