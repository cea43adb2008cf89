//! Banded affine-gap global alignment (Gotoh's algorithm).
//!
//! The paper's Figure 1 ⓓ: sequence alignment quantifies the similarity
//! between the read and the candidate reference region selected by chaining,
//! via a computationally expensive dynamic program. GenPIP executes this DP
//! on the same PIM units as chaining (PARC-style, Section 4.1); this module
//! is the functional implementation, and its cell count drives the hardware
//! cost model.
//!
//! Gap cost model: a gap of length `L` costs `gap_open + L · gap_extend`.
//!
//! # The two-pass row kernel
//!
//! Each DP cell `(i, j)` holds three scores: `H`, the best alignment of
//! `q[..i]` against `r[..j]`; `E`, the best one ending in a vertical gap (a
//! query base against no reference base, CIGAR `I`); and `F`, the best one
//! ending in a horizontal gap (CIGAR `D`). With `ge = gap_extend` and
//! `oe = gap_open + ge`:
//!
//! ```text
//! E[i][j] = max(H[i-1][j] + oe, E[i-1][j] + ge)
//! F[i][j] = max(H[i][j-1] + oe, F[i][j-1] + ge)
//! H[i][j] = max(H[i-1][j-1] + s(q[i-1], r[j-1]), E[i][j], F[i][j])
//! ```
//!
//! Only `F` depends on a cell of the same row, so [`AlignScratch::align`]
//! computes each band row in two passes:
//!
//! 1. **Pass 1** runs over the row with no dependency between cells. It
//!    takes `E` and the diagonal from the previous row and sets the
//!    provisional `H' = max(diag, E)`. The interior of the row is plain
//!    equal-length slices without band checks, so the loop auto-vectorises.
//! 2. **Pass 2** is the row's one serial scan, for `F`. `F` opens from the
//!    left cell's *final* `H = max(H', F)`; substituting that in gives
//!    `F[j] = max(H'[j-1] + oe, F[j-1] + max(oe, ge))`, so the loop carries
//!    one add and one max. An element-wise sweep then sets `H = F` where
//!    `F > H'`, plus the F-extend bits, and vectorises again.
//!
//! The split is exact: every cell gets the score and the traceback bits of
//! the one-pass recurrence, for any gap penalties.
//!
//! * Ties resolve diag > E > F. Pass 1 takes `E` only when it is strictly
//!   above the diagonal, and pass 2 takes `F` only when it is strictly
//!   above `H'`, which is the one-pass order of comparisons.
//! * The extend flags are strict (`extend > open`), so a tie between
//!   opening and extending a gap records an open. For `F` the one-pass test
//!   is `F[j-1] + ge > H[j-1] + oe`; with `H = max(H', F)` that is
//!   `F[j-1] + ge > H'[j-1] + oe` and `ge > oe`, the test pass 2 applies.
//! * `F` opens from the final `H`, not from `H'`: the substitution rewrites
//!   `max(H', F) + oe` as `max(H' + oe, F + oe)`, which is equal in integer
//!   arithmetic (no score comes near overflow), so no condition on
//!   `gap_open` is needed.
//!
//! The band's first and last cell in a row keep explicit checks against the
//! previous row's band. Interior cells need none: the band's ends never
//! move left from one row to the next and move right by at most one.
//!
//! The traceback keeps four bits per cell (H's source and one extend flag
//! per gap matrix). Each row is staged one byte per cell and then packed
//! two cells per byte. All buffers live in a reusable [`AlignScratch`], so
//! steady-state alignment allocates nothing.

use crate::seed::Strand;
use genpip_genomics::{Base, DnaSeq};
use std::fmt;

/// Score of cells the recurrence cannot reach: far below any real score,
/// yet far enough above `i32::MIN` that adding penalties cannot overflow.
const NEG: i32 = i32::MIN / 4;

// Traceback nibble: bits 0–1 are H's source, bits 2 and 3 the E and F
// extend flags.
const SRC_DIAG: u8 = 0;
const SRC_E: u8 = 1;
const SRC_F: u8 = 2;
const SRC_ORIGIN: u8 = 3;
const SRC_MASK: u8 = 0b0011;
const E_EXT: u8 = 0b0100;
const F_EXT: u8 = 0b1000;

/// Alignment scoring parameters (minimap2-like defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignmentParams {
    /// Score for a matching column (positive).
    pub match_score: i32,
    /// Score for a mismatching column (negative).
    pub mismatch: i32,
    /// One-off cost of opening a gap (negative).
    pub gap_open: i32,
    /// Per-base cost of a gap, charged for every gapped column including the
    /// first (negative).
    pub gap_extend: i32,
}

impl Default for AlignmentParams {
    fn default() -> AlignmentParams {
        AlignmentParams {
            match_score: 2,
            mismatch: -4,
            gap_open: -4,
            gap_extend: -2,
        }
    }
}

/// One CIGAR run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CigarOp {
    /// `len` aligned columns (match or mismatch).
    Match(u32),
    /// `len` query bases absent from the reference.
    Ins(u32),
    /// `len` reference bases absent from the query.
    Del(u32),
}

impl fmt::Display for CigarOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CigarOp::Match(n) => write!(f, "{n}M"),
            CigarOp::Ins(n) => write!(f, "{n}I"),
            CigarOp::Del(n) => write!(f, "{n}D"),
        }
    }
}

/// Renders a CIGAR vector as the conventional compact string.
pub fn cigar_string(cigar: &[CigarOp]) -> String {
    cigar.iter().map(CigarOp::to_string).collect()
}

/// A finished global alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Total alignment score.
    pub score: i32,
    /// CIGAR operations, query-leading.
    pub cigar: Vec<CigarOp>,
    /// Number of exactly matching columns.
    pub matches: usize,
    /// Total alignment columns (M + I + D).
    pub columns: usize,
    /// DP cells computed (the workload counter).
    pub cells: usize,
}

impl Alignment {
    /// BLAST-style identity: matching columns over all alignment columns.
    pub fn identity(&self) -> f64 {
        blast_identity(self.matches, self.columns)
    }
}

fn blast_identity(matches: usize, columns: usize) -> f64 {
    if columns == 0 {
        1.0
    } else {
        matches as f64 / columns as f64
    }
}

/// Score and counters of one [`AlignScratch::align`] run. The CIGAR stays in
/// the scratch ([`AlignScratch::cigar`]) until the next run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignStats {
    /// Total alignment score.
    pub score: i32,
    /// Number of exactly matching columns.
    pub matches: usize,
    /// Total alignment columns (M + I + D).
    pub columns: usize,
    /// DP cells computed (the workload counter).
    pub cells: usize,
}

impl AlignStats {
    /// BLAST-style identity: matching columns over all alignment columns.
    pub fn identity(&self) -> f64 {
        blast_identity(self.matches, self.columns)
    }
}

/// Reusable working memory for the banded kernel ([`AlignScratch::align`]).
///
/// It holds the query and the reference window as 2-bit base codes, the
/// window's substitution scores per query base, two rolling H/E score rows,
/// one band row's staged H', F and traceback, the packed traceback and the
/// CIGAR of the last alignment. Buffers grow to the largest problem seen and
/// are then reused, so one instance per worker thread keeps steady-state
/// alignment free of heap allocations.
#[derive(Debug, Clone, Default)]
pub struct AlignScratch {
    query: Vec<u8>,
    window: Vec<u8>,
    profile: Vec<i32>,
    h_prev: Vec<i32>,
    h_curr: Vec<i32>,
    e_prev: Vec<i32>,
    e_curr: Vec<i32>,
    hp_row: Vec<i32>,
    f_row: Vec<i32>,
    tb_row: Vec<u8>,
    tb: Vec<u8>,
    cigar: Vec<CigarOp>,
}

impl AlignScratch {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// Loads the query (the DP rows) as base codes.
    pub fn load_query(&mut self, query: &DnaSeq) {
        self.query.clear();
        self.query.extend(query.iter().map(Base::code));
    }

    /// Loads the reference window (the DP columns) as base codes: `len`
    /// bases of `seq` from `start`, reverse-complemented for
    /// [`Strand::Reverse`].
    ///
    /// # Panics
    ///
    /// Panics if `start + len > seq.len()`.
    pub fn load_window(&mut self, seq: &DnaSeq, start: usize, len: usize, strand: Strand) {
        assert!(
            start + len <= seq.len(),
            "window [{start}, {start}+{len}) out of bounds (len {})",
            seq.len()
        );
        let span = start..start + len;
        self.window.clear();
        match strand {
            Strand::Forward => self.window.extend(span.map(|i| seq.get(i).code())),
            Strand::Reverse => self
                .window
                .extend(span.rev().map(|i| 3 - seq.get(i).code())),
        }
    }

    /// The CIGAR of the last [`AlignScratch::align`] run, query-leading.
    pub fn cigar(&self) -> &[CigarOp] {
        &self.cigar
    }

    /// Aligns the loaded query against the loaded window globally within a
    /// diagonal band, leaving the CIGAR in the scratch.
    ///
    /// The band covers columns `j ∈ [i + band_center − hw, i + band_center + hw]`
    /// for each query row `i`; `hw` is widened automatically so the band
    /// always contains both the origin and the terminal cell, making the
    /// function total. See the [module docs](self) for the recurrence.
    pub fn align(
        &mut self,
        params: &AlignmentParams,
        band_center: i64,
        band_halfwidth: usize,
    ) -> AlignStats {
        let AlignScratch {
            query,
            window,
            profile,
            h_prev,
            h_curr,
            e_prev,
            e_curr,
            hp_row,
            f_row,
            tb_row,
            tb,
            cigar,
        } = self;
        let (query, window): (&[u8], &[u8]) = (query, window);
        let (n, m) = (query.len(), window.len());

        // Widen the band to keep (0,0) and (n,m) inside it.
        let need_start = band_center.unsigned_abs() as usize;
        let need_end = (m as i64 - n as i64 - band_center).unsigned_abs() as usize;
        let hw = band_halfwidth.max(need_start).max(need_end) + 1;
        let width = 2 * hw + 1;
        // Packed traceback bytes per row: two 4-bit cells per byte.
        let stride = width.div_ceil(2);
        let lo_of = |i: usize| -> usize {
            let lo = i as i64 + band_center - hw as i64;
            lo.clamp(0, m as i64) as usize
        };
        let hi_of = |i: usize| -> usize {
            let hi = i as i64 + band_center + hw as i64;
            hi.clamp(0, m as i64) as usize
        };

        // H/E rows are indexed by absolute column j and only the band's span
        // of each is ever read; H' and F are staged per band row.
        for row in [&mut *h_prev, &mut *h_curr, &mut *e_prev, &mut *e_curr] {
            row.clear();
            row.resize(m + 1, NEG);
        }
        for row in [&mut *hp_row, &mut *f_row] {
            row.clear();
            row.resize(width, NEG);
        }
        tb_row.clear();
        tb_row.resize(2 * stride, 0);
        tb.clear();
        tb.resize((n + 1) * stride, 0);

        let (go, ge) = (params.gap_open, params.gap_extend);
        let gaps = Gaps::new(params);
        // Substitution scores per query base over the window:
        // profile[b * m + c] = s(b, r[c]).
        profile.clear();
        for b in 0..4u8 {
            profile.extend(window.iter().map(|&r| {
                if r == b {
                    params.match_score
                } else {
                    params.mismatch
                }
            }));
        }

        // Row 0: leading deletions.
        debug_assert_eq!(lo_of(0), 0, "the widened band always holds the origin");
        let hi0 = hi_of(0);
        h_prev[0] = 0;
        tb_row[0] = SRC_ORIGIN;
        for j in 1..=hi0 {
            h_prev[j] = go + ge * j as i32;
            tb_row[j] = SRC_F | if j > 1 { F_EXT } else { 0 };
        }
        pack_row(tb_row, hi0 + 1, &mut tb[..stride]);
        let mut cells = hi0;

        for i in 1..=n {
            let (lo, hi) = (lo_of(i), hi_of(i));
            let row_cells = hi - lo + 1;
            let prev_band = lo_of(i - 1)..=hi_of(i - 1);
            let (hp, ep): (&[i32], &[i32]) = (h_prev, e_prev);
            let sub = &profile[usize::from(query[i - 1]) * m..][..m];

            // Pass 1 at a band edge: E, the diagonal and H' with explicit
            // checks against the previous row's band.
            let edge = move |j: usize| -> (i32, i32, u8) {
                let mut flags = 0u8;
                let e = if prev_band.contains(&j) {
                    let open = hp[j] + gaps.oe;
                    let extend = ep[j] + gaps.ge;
                    if extend > open {
                        flags |= E_EXT;
                        extend
                    } else {
                        open
                    }
                } else {
                    NEG
                };
                let diag = if j >= 1 && prev_band.contains(&(j - 1)) {
                    hp[j - 1] + sub[j - 1]
                } else {
                    NEG
                };
                if e > diag {
                    (e, e, flags | SRC_E)
                } else {
                    (diag, e, flags | SRC_DIAG)
                }
            };

            (hp_row[0], e_curr[lo], tb_row[0]) = edge(lo);
            if hi > lo {
                // Pass 1 over the interior lo < j < hi: every read is inside
                // the previous row's band, so no checks are needed.
                let len = row_cells - 2;
                row_interior(
                    &hp[lo..lo + len + 1],
                    &ep[lo + 1..lo + 1 + len],
                    &sub[lo..lo + len],
                    &mut hp_row[1..1 + len],
                    &mut e_curr[lo + 1..lo + 1 + len],
                    &mut tb_row[1..1 + len],
                    gaps,
                );
                (hp_row[row_cells - 1], e_curr[hi], tb_row[row_cells - 1]) = edge(hi);
            }

            // Pass 2: the serial F scan, then F applied to H and the flags.
            scan_f(&hp_row[..row_cells], &mut f_row[..row_cells], gaps);
            apply_f(
                &hp_row[..row_cells],
                &f_row[..row_cells],
                &mut h_curr[lo..=hi],
                &mut tb_row[..row_cells],
                gaps,
            );

            pack_row(tb_row, row_cells, &mut tb[i * stride..(i + 1) * stride]);
            cells += row_cells;
            std::mem::swap(h_prev, h_curr);
            std::mem::swap(e_prev, e_curr);
        }

        let score = h_prev[m];

        // Traceback over the packed nibbles, collecting runs back to front.
        let nibble = |i: usize, j: usize| -> u8 {
            let k = j - lo_of(i);
            (tb[i * stride + k / 2] >> ((k & 1) * 4)) & 0xF
        };
        cigar.clear();
        let (mut matches, mut columns) = (0usize, 0usize);
        let (mut i, mut j) = (n, m);
        // Which matrix the path is in: H (`SRC_DIAG`), E (`SRC_E`) or F
        // (`SRC_F`).
        let mut state = SRC_DIAG;
        while i > 0 || j > 0 {
            let flags = nibble(i, j);
            match state {
                SRC_DIAG => match flags & SRC_MASK {
                    SRC_DIAG => {
                        push_column(cigar, CigarOp::Match(1));
                        columns += 1;
                        if query[i - 1] == window[j - 1] {
                            matches += 1;
                        }
                        i -= 1;
                        j -= 1;
                    }
                    SRC_E => state = SRC_E,
                    SRC_F => state = SRC_F,
                    _ => break, // origin
                },
                SRC_E => {
                    push_column(cigar, CigarOp::Ins(1));
                    columns += 1;
                    i -= 1;
                    if flags & E_EXT == 0 {
                        state = SRC_DIAG;
                    }
                }
                _ => {
                    push_column(cigar, CigarOp::Del(1));
                    columns += 1;
                    j -= 1;
                    if flags & F_EXT == 0 {
                        state = SRC_DIAG;
                    }
                }
            }
        }
        cigar.reverse();

        AlignStats {
            score,
            matches,
            columns,
            cells,
        }
    }
}

/// Gap penalties in the forms the row passes use.
#[derive(Clone, Copy)]
struct Gaps {
    /// Cost of a gap's first column, `gap_open + gap_extend`.
    oe: i32,
    /// Cost of each further column.
    ge: i32,
    /// F's per-column step once H = max(H', F) is substituted into its
    /// recurrence: `max(oe, ge)`.
    f_step: i32,
    /// Whether extending F can ever beat reopening from the F cell itself,
    /// i.e. `ge > oe` (`gap_open < 0`).
    f_can_extend: bool,
}

impl Gaps {
    fn new(params: &AlignmentParams) -> Gaps {
        let oe = params.gap_open + params.gap_extend;
        let ge = params.gap_extend;
        Gaps {
            oe,
            ge,
            f_step: oe.max(ge),
            f_can_extend: ge > oe,
        }
    }
}

/// Pass 1 over a row's interior cells: E, the diagonal and H' = max(diag, E)
/// (diag wins ties), with the E-extend and source bits. `h_prev` is the
/// previous row's final H from the column left of the first cell, so cell
/// `k` reads its diagonal at `h_prev[k]` and the cell above at
/// `h_prev[k + 1]`. No cell depends on another, so the loop vectorises.
fn row_interior(
    h_prev: &[i32],
    e_prev: &[i32],
    sub: &[i32],
    hp_out: &mut [i32],
    e_out: &mut [i32],
    t_out: &mut [u8],
    gaps: Gaps,
) {
    let len = hp_out.len();
    let (h_diag, h_up) = (&h_prev[..len], &h_prev[1..=len]);
    let (e_prev, sub, e_out, t_out) = (
        &e_prev[..len],
        &sub[..len],
        &mut e_out[..len],
        &mut t_out[..len],
    );
    for k in 0..len {
        let open = h_up[k] + gaps.oe;
        let extend = e_prev[k] + gaps.ge;
        let e = open.max(extend);
        let diag = h_diag[k] + sub[k];
        e_out[k] = e;
        hp_out[k] = diag.max(e);
        t_out[k] = (u8::from(extend > open) * E_EXT) | (u8::from(e > diag) * SRC_E);
    }
}

/// Pass 2, the row's one serial scan: F for every cell from the staged H'.
/// The first cell has no left neighbour, so its F is NEG.
fn scan_f(hp: &[i32], f_out: &mut [i32], gaps: Gaps) {
    let mut f = NEG;
    f_out[0] = f;
    for (out, &h) in f_out[1..].iter_mut().zip(hp) {
        f = (h + gaps.oe).max(f + gaps.f_step);
        *out = f;
    }
}

/// Applies a row's F: the final H is F only where F > H', which takes the
/// source bits; a cell's F-extend bit is set where extending the left
/// cell's F beats opening from its final H. Cells are independent again,
/// so the loop vectorises.
fn apply_f(hp: &[i32], f: &[i32], h_out: &mut [i32], t_out: &mut [u8], gaps: Gaps) {
    let cells = hp.len();
    let (f, h_out, t_out) = (&f[..cells], &mut h_out[..cells], &mut t_out[..cells]);
    h_out[0] = hp[0].max(f[0]);
    if f[0] > hp[0] {
        t_out[0] = (t_out[0] & !SRC_MASK) | SRC_F;
    }
    let (hp_left, f_left) = (&hp[..cells - 1], &f[..cells - 1]);
    let (hp, f, h_out, t_out) = (&hp[1..], &f[1..], &mut h_out[1..], &mut t_out[1..]);
    for k in 0..cells - 1 {
        let f_wins = u8::from(f[k] > hp[k]);
        // extend > open, with open = max(H', F) + oe of the left cell.
        let f_ext = u8::from(gaps.f_can_extend & (f_left[k] + gaps.ge > hp_left[k] + gaps.oe));
        h_out[k] = hp[k].max(f[k]);
        t_out[k] = (t_out[k] & !(f_wins * SRC_MASK)) | (f_wins * SRC_F) | (f_ext * F_EXT);
    }
}

/// Packs the first `cells` staged traceback nibbles of `row` into `dst`, two
/// cells per byte (even cell in the low nibble).
fn pack_row(row: &mut [u8], cells: usize, dst: &mut [u8]) {
    if cells % 2 == 1 {
        // Clear the stale high nibble of the last byte.
        row[cells] = 0;
    }
    for (byte, pair) in dst
        .iter_mut()
        .zip(row[..cells.div_ceil(2) * 2].chunks_exact(2))
    {
        let both = u16::from_le_bytes([pair[0], pair[1]]);
        *byte = (both | (both >> 4)) as u8;
    }
}

/// Appends one unit-length column to a back-to-front CIGAR, merging it into
/// the last run when the operation repeats.
fn push_column(cigar: &mut Vec<CigarOp>, op: CigarOp) {
    match (cigar.last_mut(), op) {
        (Some(CigarOp::Match(len)), CigarOp::Match(_))
        | (Some(CigarOp::Ins(len)), CigarOp::Ins(_))
        | (Some(CigarOp::Del(len)), CigarOp::Del(_)) => *len += 1,
        _ => cigar.push(op),
    }
}

/// Aligns `query` against `reference` globally within a diagonal band.
///
/// The band covers columns `j ∈ [i + band_center − hw, i + band_center + hw]`
/// for each query row `i`; `hw` is widened automatically so the band always
/// contains both the origin and the terminal cell, making the function total.
///
/// Convenience wrapper over [`AlignScratch::align`] with a fresh workspace;
/// hot loops should own an [`AlignScratch`] instead.
///
/// # Example
///
/// ```
/// use genpip_genomics::DnaSeq;
/// use genpip_mapping::align::{banded_global, AlignmentParams};
///
/// let q: DnaSeq = "ACGTACGTAC".parse()?;
/// let r: DnaSeq = "ACGTTCGTAC".parse()?;
/// let aln = banded_global(&q, &r, &AlignmentParams::default(), 0, 4);
/// assert_eq!(aln.matches, 9);
/// assert_eq!(aln.columns, 10);
/// # Ok::<(), genpip_genomics::base::ParseBaseError>(())
/// ```
pub fn banded_global(
    query: &DnaSeq,
    reference: &DnaSeq,
    params: &AlignmentParams,
    band_center: i64,
    band_halfwidth: usize,
) -> Alignment {
    let mut scratch = AlignScratch::new();
    scratch.load_query(query);
    scratch.load_window(reference, 0, reference.len(), Strand::Forward);
    let stats = scratch.align(params, band_center, band_halfwidth);
    Alignment {
        score: stats.score,
        cigar: scratch.cigar,
        matches: stats.matches,
        columns: stats.columns,
        cells: stats.cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::rng::seeded;
    use genpip_genomics::rng::Rng;
    use genpip_genomics::{ErrorModel, GenomeBuilder};

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    /// Full (unbanded) Gotoh reference implementation, score only.
    fn full_gotoh_score(q: &DnaSeq, r: &DnaSeq, p: &AlignmentParams) -> i32 {
        const NEG: i32 = i32::MIN / 4;
        let (n, m) = (q.len(), r.len());
        let mut h = vec![vec![NEG; m + 1]; n + 1];
        let mut ix = vec![vec![NEG; m + 1]; n + 1];
        let mut iy = vec![vec![NEG; m + 1]; n + 1];
        h[0][0] = 0;
        for j in 1..=m {
            iy[0][j] = p.gap_open + p.gap_extend * j as i32;
            h[0][j] = iy[0][j];
        }
        for i in 1..=n {
            ix[i][0] = p.gap_open + p.gap_extend * i as i32;
            h[i][0] = ix[i][0];
            for j in 1..=m {
                ix[i][j] =
                    (h[i - 1][j] + p.gap_open + p.gap_extend).max(ix[i - 1][j] + p.gap_extend);
                iy[i][j] =
                    (h[i][j - 1] + p.gap_open + p.gap_extend).max(iy[i][j - 1] + p.gap_extend);
                let s = if q.get(i - 1) == r.get(j - 1) {
                    p.match_score
                } else {
                    p.mismatch
                };
                h[i][j] = (h[i - 1][j - 1] + s).max(ix[i][j]).max(iy[i][j]);
            }
        }
        h[n][m]
    }

    fn cigar_consumes(aln: &Alignment) -> (usize, usize) {
        let mut qc = 0;
        let mut rc = 0;
        for op in &aln.cigar {
            match op {
                CigarOp::Match(l) => {
                    qc += *l as usize;
                    rc += *l as usize;
                }
                CigarOp::Ins(l) => qc += *l as usize,
                CigarOp::Del(l) => rc += *l as usize,
            }
        }
        (qc, rc)
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let p = AlignmentParams::default();
        let a = seq("ACGTACGTACGTACGT");
        let aln = banded_global(&a, &a, &p, 0, 8);
        assert_eq!(aln.score, 16 * p.match_score);
        assert_eq!(aln.matches, 16);
        assert_eq!(aln.identity(), 1.0);
        assert_eq!(cigar_string(&aln.cigar), "16M");
    }

    #[test]
    fn single_mismatch() {
        let p = AlignmentParams::default();
        let aln = banded_global(&seq("ACGTACGT"), &seq("ACGTTCGT"), &p, 0, 4);
        assert_eq!(aln.score, 7 * p.match_score + p.mismatch);
        assert_eq!(aln.matches, 7);
        assert_eq!(cigar_string(&aln.cigar), "8M");
    }

    #[test]
    fn single_insertion_and_deletion() {
        let p = AlignmentParams::default();
        let ins = banded_global(&seq("ACGTTACGT"), &seq("ACGTACGT"), &p, 0, 4);
        assert_eq!(ins.score, 8 * p.match_score + p.gap_open + p.gap_extend);
        let (qc, rc) = cigar_consumes(&ins);
        assert_eq!((qc, rc), (9, 8));

        let del = banded_global(&seq("ACGTACGT"), &seq("ACGTTACGT"), &p, 0, 4);
        assert_eq!(del.score, ins.score);
        let (qc, rc) = cigar_consumes(&del);
        assert_eq!((qc, rc), (8, 9));
    }

    #[test]
    fn affine_gaps_prefer_one_long_gap() {
        let p = AlignmentParams::default();
        // Removing 4 consecutive bases: expect a single 4-long deletion run.
        let r = seq("ACGGCAATCGGTTACG");
        let q = seq("ACGGCGGTTACG"); // drop "AATC" at position 5..9
        let aln = banded_global(&q, &r, &p, 0, 8);
        let dels: Vec<u32> = aln
            .cigar
            .iter()
            .filter_map(|op| match op {
                CigarOp::Del(l) => Some(*l),
                _ => None,
            })
            .collect();
        assert_eq!(dels, vec![4]);
        assert_eq!(
            aln.score,
            12 * p.match_score + p.gap_open + 4 * p.gap_extend
        );
    }

    #[test]
    fn empty_inputs() {
        let p = AlignmentParams::default();
        let e = DnaSeq::new();
        let a = seq("ACGT");
        let aln = banded_global(&e, &e, &p, 0, 2);
        assert_eq!(aln.score, 0);
        assert!(aln.cigar.is_empty());
        let aln = banded_global(&e, &a, &p, 0, 2);
        assert_eq!(aln.score, p.gap_open + 4 * p.gap_extend);
        assert_eq!(cigar_string(&aln.cigar), "4D");
        let aln = banded_global(&a, &e, &p, 0, 2);
        assert_eq!(cigar_string(&aln.cigar), "4I");
    }

    #[test]
    fn banded_matches_full_gotoh_on_random_pairs() {
        let p = AlignmentParams::default();
        let mut rng = seeded(7);
        for trial in 0..25 {
            let n = rng.random_range(5..120usize);
            let truth = GenomeBuilder::new(n)
                .seed(trial as u64)
                .build()
                .sequence()
                .clone();
            let (obs, _) = ErrorModel::with_total_rate(0.2).apply(&truth, &mut rng);
            let banded = banded_global(&obs, &truth, &p, 0, 48.max(n / 2));
            let full = full_gotoh_score(&obs, &truth, &p);
            assert_eq!(banded.score, full, "trial {trial}");
            // CIGAR must consume exactly both sequences.
            let (qc, rc) = cigar_consumes(&banded);
            assert_eq!((qc, rc), (obs.len(), truth.len()), "trial {trial}");
        }
    }

    #[test]
    fn cigar_score_is_consistent() {
        // Recomputing the score from the traceback path must reproduce the
        // DP score (catches traceback bugs).
        let p = AlignmentParams::default();
        let mut rng = seeded(9);
        let truth = GenomeBuilder::new(200).seed(5).build().sequence().clone();
        let (obs, _) = ErrorModel::with_total_rate(0.15).apply(&truth, &mut rng);
        let aln = banded_global(&obs, &truth, &p, 0, 64);
        let mut score = 0i32;
        let (mut qi, mut ri) = (0usize, 0usize);
        for op in &aln.cigar {
            match op {
                CigarOp::Match(l) => {
                    for _ in 0..*l {
                        score += if obs.get(qi) == truth.get(ri) {
                            p.match_score
                        } else {
                            p.mismatch
                        };
                        qi += 1;
                        ri += 1;
                    }
                }
                CigarOp::Ins(l) => {
                    score += p.gap_open + p.gap_extend * *l as i32;
                    qi += *l as usize;
                }
                CigarOp::Del(l) => {
                    score += p.gap_open + p.gap_extend * *l as i32;
                    ri += *l as usize;
                }
            }
        }
        assert_eq!(score, aln.score);
    }

    #[test]
    fn narrow_band_still_terminates_with_offset_center() {
        let p = AlignmentParams::default();
        let g = GenomeBuilder::new(400).seed(11).build().sequence().clone();
        let q = g.subseq(100, 200);
        // Center the band on the true diagonal offset (query starts at 100).
        let aln = banded_global(&q, &g, &p, 100, 16);
        assert!(aln.matches >= 190, "matches {}", aln.matches);
    }

    #[test]
    fn cells_respect_band() {
        let p = AlignmentParams::default();
        let a = GenomeBuilder::new(500).seed(12).build().sequence().clone();
        let narrow = banded_global(&a, &a, &p, 0, 8);
        let wide = banded_global(&a, &a, &p, 0, 128);
        assert!(narrow.cells < wide.cells);
        assert_eq!(narrow.score, wide.score);
    }
}
