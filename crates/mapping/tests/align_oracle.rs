//! Oracle suite for the banded alignment kernel.
//!
//! `oracle_banded_global` below is the original one-pass Gotoh kernel,
//! kept verbatim as test-only code: three full-width score rows per matrix,
//! explicit band checks on every cell, and a byte-per-cell traceback. The
//! production kernel (`genpip_mapping::align::banded_global`, a two-pass
//! row recurrence with a packed traceback) must return an `Alignment` equal
//! to it — score, CIGAR, matches, columns and cells — on every case here.

use genpip_genomics::rng::{seeded, Rng, SeededRng};
use genpip_genomics::{Base, DnaSeq, ErrorModel, GenomeBuilder};
use genpip_mapping::align::{banded_global, AlignScratch, Alignment, AlignmentParams, CigarOp};

fn oracle_banded_global(
    query: &DnaSeq,
    reference: &DnaSeq,
    params: &AlignmentParams,
    band_center: i64,
    band_halfwidth: usize,
) -> Alignment {
    let q: Vec<Base> = query.to_bases();
    let r: Vec<Base> = reference.to_bases();
    let (n, m) = (q.len(), r.len());

    // Widen the band to keep (0,0) and (n,m) inside it.
    let need_start = band_center.unsigned_abs() as usize;
    let need_end = (m as i64 - n as i64 - band_center).unsigned_abs() as usize;
    let hw = band_halfwidth.max(need_start).max(need_end) + 1;
    let width = 2 * hw + 1;

    const NEG: i32 = i32::MIN / 4;
    let lo_of = |i: usize| -> usize {
        let lo = i as i64 + band_center - hw as i64;
        lo.clamp(0, m as i64) as usize
    };
    let hi_of = |i: usize| -> usize {
        let hi = i as i64 + band_center + hw as i64;
        hi.clamp(0, m as i64) as usize
    };

    // Rolling rows indexed by (j - lo) would complicate window shifts; rows
    // are short (≤ width), so index them by absolute j with reallocation-free
    // window slices.
    let mut h_prev = vec![NEG; m + 1];
    let mut ix_prev = vec![NEG; m + 1];
    let mut iy_prev = vec![NEG; m + 1];
    let mut h_curr = vec![NEG; m + 1];
    let mut ix_curr = vec![NEG; m + 1];
    let mut iy_curr = vec![NEG; m + 1];

    // Traceback: per cell, bits 0..1 = H source (0 diag, 1 Ix, 2 Iy, 3 origin),
    // bit 2 = Ix extended, bit 3 = Iy extended.
    let mut tb = vec![0u8; (n + 1) * width];
    let tb_index = |i: usize, j: usize, lo: usize| i * width + (j - lo);

    let mut cells = 0usize;

    // Row 0: leading deletions.
    {
        let lo = lo_of(0);
        let hi = hi_of(0);
        h_prev[0] = 0;
        tb[tb_index(0, 0, lo)] = 3;
        for j in 1..=hi {
            iy_prev[j] = params.gap_open + params.gap_extend * j as i32;
            h_prev[j] = iy_prev[j];
            let mut flags = 2u8; // H from Iy
            if j > 1 {
                flags |= 0b1000; // Iy extended
            }
            tb[tb_index(0, j, lo)] = flags;
            cells += 1;
        }
    }

    for i in 1..=n {
        let lo = lo_of(i);
        let hi = hi_of(i);
        let prev_lo = lo_of(i - 1);
        let prev_hi = hi_of(i - 1);
        for j in lo..=hi {
            h_curr[j] = NEG;
            ix_curr[j] = NEG;
            iy_curr[j] = NEG;
        }
        for j in lo..=hi {
            cells += 1;
            let mut flags = 0u8;

            // Ix: consume a query base (gap in reference).
            let up_ok = (prev_lo..=prev_hi).contains(&j);
            let ix = if up_ok {
                let open = h_prev[j] + params.gap_open + params.gap_extend;
                let extend = ix_prev[j] + params.gap_extend;
                if extend > open {
                    flags |= 0b0100;
                    extend
                } else {
                    open
                }
            } else {
                NEG
            };
            ix_curr[j] = ix;

            // Iy: consume a reference base (gap in query).
            let iy = if j > lo {
                let open = h_curr[j - 1] + params.gap_open + params.gap_extend;
                let extend = iy_curr[j - 1] + params.gap_extend;
                if extend > open {
                    flags |= 0b1000;
                    extend
                } else {
                    open
                }
            } else {
                NEG
            };
            iy_curr[j] = iy;

            // H: diagonal, or close a gap.
            let diag_ok = j >= 1 && (prev_lo..=prev_hi).contains(&(j - 1));
            let diag = if diag_ok {
                let s = if q[i - 1] == r[j - 1] {
                    params.match_score
                } else {
                    params.mismatch
                };
                h_prev[j - 1] + s
            } else {
                NEG
            };
            let mut h = diag;
            let mut src = 0u8;
            if ix > h {
                h = ix;
                src = 1;
            }
            if iy > h {
                h = iy;
                src = 2;
            }
            h_curr[j] = h;
            tb[tb_index(i, j, lo)] = flags | src;
        }
        std::mem::swap(&mut h_prev, &mut h_curr);
        std::mem::swap(&mut ix_prev, &mut ix_curr);
        std::mem::swap(&mut iy_prev, &mut iy_curr);
    }

    let score = h_prev[m];

    // Traceback.
    let mut ops_rev: Vec<(u8, u32)> = Vec::new(); // (kind: 0=M,1=I,2=D, len)
    let push = |kind: u8, ops_rev: &mut Vec<(u8, u32)>| {
        if let Some(last) = ops_rev.last_mut() {
            if last.0 == kind {
                last.1 += 1;
                return;
            }
        }
        ops_rev.push((kind, 1));
    };
    let mut matches = 0usize;
    let (mut i, mut j) = (n, m);
    // Which matrix we are currently in: 0=H, 1=Ix, 2=Iy.
    let mut state = 0u8;
    while i > 0 || j > 0 {
        let lo = lo_of(i);
        let flags = tb[tb_index(i, j, lo)];
        match state {
            0 => {
                let src = flags & 0b11;
                match src {
                    0 => {
                        // Diagonal step.
                        push(0, &mut ops_rev);
                        if query.get(i - 1) == reference.get(j - 1) {
                            matches += 1;
                        }
                        i -= 1;
                        j -= 1;
                    }
                    1 => state = 1,
                    2 => state = 2,
                    _ => break, // origin
                }
            }
            1 => {
                push(1, &mut ops_rev);
                let extended = flags & 0b0100 != 0;
                i -= 1;
                state = if extended { 1 } else { 0 };
            }
            _ => {
                push(2, &mut ops_rev);
                let extended = flags & 0b1000 != 0;
                j -= 1;
                state = if extended { 2 } else { 0 };
            }
        }
    }
    ops_rev.reverse();
    let mut columns = 0usize;
    let cigar: Vec<CigarOp> = ops_rev
        .into_iter()
        .map(|(kind, len)| {
            columns += len as usize;
            match kind {
                0 => CigarOp::Match(len),
                1 => CigarOp::Ins(len),
                _ => CigarOp::Del(len),
            }
        })
        .collect();

    Alignment {
        score,
        cigar,
        matches,
        columns,
        cells,
    }
}

fn random_seq(rng: &mut SeededRng, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4u8)))
        .collect()
}

/// The production kernel through a reused scratch, as the mapper drives it.
fn scratch_align(
    scratch: &mut AlignScratch,
    q: &DnaSeq,
    r: &DnaSeq,
    p: &AlignmentParams,
    center: i64,
    hw: usize,
) -> Alignment {
    scratch.load_query(q);
    scratch.load_window(r, 0, r.len(), genpip_mapping::Strand::Forward);
    let stats = scratch.align(p, center, hw);
    Alignment {
        score: stats.score,
        cigar: scratch.cigar().to_vec(),
        matches: stats.matches,
        columns: stats.columns,
        cells: stats.cells,
    }
}

fn assert_matches_oracle(
    scratch: &mut AlignScratch,
    q: &DnaSeq,
    r: &DnaSeq,
    p: &AlignmentParams,
    center: i64,
    hw: usize,
    what: &str,
) {
    let want = oracle_banded_global(q, r, p, center, hw);
    assert_eq!(banded_global(q, r, p, center, hw), want, "{what}");
    assert_eq!(
        scratch_align(scratch, q, r, p, center, hw),
        want,
        "{what} (reused scratch)"
    );
}

#[test]
fn two_pass_kernel_equals_the_one_pass_oracle_on_random_pairs() {
    // One scratch across every case, so problem sizes shrink and grow
    // between calls and stale buffer contents would show.
    let mut scratch = AlignScratch::new();
    let mut cases = 0;
    for gap_open in [-4, 0, 3] {
        for case in 0..700u64 {
            let mut rng = seeded(0xA11C ^ (case << 8) ^ (gap_open as u64 & 0xFF));
            let p = AlignmentParams {
                match_score: rng.random_range(1..=3),
                mismatch: rng.random_range(-6..=-1),
                gap_open,
                gap_extend: rng.random_range(-3..=-1),
            };
            let n = rng.random_range(1..300usize);
            let truth = random_seq(&mut rng, n);
            let rate = rng.random_range(0.0..0.6);
            let (mut r, _) = ErrorModel::with_total_rate(rate).apply(&truth, &mut rng);
            // Every fourth reference is cut shorter than the query, so most
            // rows clamp the band's right end to the last column. (The left
            // end never reaches it: the band is widened to hold (n, m) with
            // one column to spare.)
            if case % 4 == 0 && r.len() > 2 {
                let keep = rng.random_range(1..r.len());
                r = r.subseq(0, keep);
            }
            let center = rng.random_range(-20..=20i64);
            let hw = match case % 5 {
                0 => 0,
                1 => rng.random_range(1..4usize),
                _ => rng.random_range(4..80usize),
            };
            let what = format!("gap_open {gap_open} case {case} n {n} m {}", r.len());
            assert_matches_oracle(&mut scratch, &truth, &r, &p, center, hw, &what);
            cases += 1;
        }
    }
    assert!(cases >= 2_000);
}

#[test]
fn two_pass_kernel_equals_the_oracle_on_edge_shapes() {
    let mut scratch = AlignScratch::new();
    let mut rng = seeded(0xED6E);
    let empty = DnaSeq::new();
    for gap_open in [-4, 0, 3] {
        let p = AlignmentParams {
            gap_open,
            ..AlignmentParams::default()
        };
        for len in [0usize, 1, 2, 7, 40] {
            let s = random_seq(&mut rng, len);
            for center in [-20i64, -3, 0, 5, 20] {
                for hw in [0usize, 1, 6] {
                    let what = format!("gap_open {gap_open} len {len} center {center} hw {hw}");
                    assert_matches_oracle(&mut scratch, &empty, &s, &p, center, hw, &what);
                    assert_matches_oracle(&mut scratch, &s, &empty, &p, center, hw, &what);
                    assert_matches_oracle(&mut scratch, &s, &s, &p, center, hw, &what);
                    let short = s.subseq(0, len / 3);
                    assert_matches_oracle(&mut scratch, &s, &short, &p, center, hw, &what);
                }
            }
        }
    }
}

#[test]
fn two_pass_kernel_equals_the_oracle_on_mapper_sized_reads() {
    // Long reads at the band the mapper uses: 32 + a chain spread + n / 20.
    let mut scratch = AlignScratch::new();
    let p = AlignmentParams::default();
    for (seed, n) in [(1u64, 1_500usize), (2, 3_000), (3, 2_200)] {
        let mut rng = seeded(seed);
        let g = GenomeBuilder::new(n + 400).seed(seed).build();
        let truth = g.sequence().subseq(100, n);
        let (obs, _) = ErrorModel::with_total_rate(0.12).apply(&truth, &mut rng);
        let window = g.sequence().subseq(80, n + 60);
        let hw = 32 + 10 + obs.len() / 20;
        let what = format!("seed {seed} n {n}");
        assert_matches_oracle(&mut scratch, &obs, &window, &p, 20, hw, &what);
    }
}

#[test]
fn reverse_window_is_the_reverse_complement_in_code_space() {
    let mut rng = seeded(0x5EED);
    let g = random_seq(&mut rng, 500);
    let q = random_seq(&mut rng, 120);
    let p = AlignmentParams::default();
    let mut scratch = AlignScratch::new();
    for (start, len) in [(0usize, 500usize), (37, 150), (400, 100), (250, 0)] {
        scratch.load_query(&q);
        scratch.load_window(&g, start, len, genpip_mapping::Strand::Reverse);
        let stats = scratch.align(&p, 3, 24);
        let want = oracle_banded_global(&q, &g.subseq(start, len).reverse_complement(), &p, 3, 24);
        assert_eq!(
            (stats.score, stats.matches, stats.columns, stats.cells),
            (want.score, want.matches, want.columns, want.cells),
            "window [{start}, {start}+{len})"
        );
        assert_eq!(scratch.cigar(), want.cigar.as_slice());
    }
}
