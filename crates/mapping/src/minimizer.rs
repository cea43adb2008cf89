//! `(w, k)` minimizer sketching.
//!
//! A minimizer is the k-mer with the smallest hash value in each window of
//! `w` consecutive k-mers (Roberts et al. 2004, the sketch minimap2 builds
//! on). Hashing canonical k-mers makes the sketch strand-symmetric;
//! winnowing guarantees that any two sequences sharing a window-length
//! substring share a minimizer, which is what makes seeding complete.

use crate::RefPos;
use genpip_genomics::{DnaSeq, Kmer, KmerIter};

/// One selected minimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Minimizer {
    /// Invertible hash of the canonical k-mer (the hash-table key).
    pub hash: u64,
    /// Position of the k-mer's first base in the sequence.
    ///
    /// [`RefPos`] (64-bit), so the sketchable sequence length is bounded by
    /// addressable memory, not the old 4 Gbp `u32` horizon.
    pub pos: RefPos,
    /// `true` if the canonical k-mer is the reverse complement of the
    /// sequence's forward k-mer at `pos`.
    pub reverse: bool,
}

/// Thomas Wang / minimap2-style invertible 64-bit integer hash.
///
/// Invertibility matters: it guarantees distinct k-mers never collide, so the
/// hash table needs no key verification — mirroring the exact-match
/// semantics of the CAM lookup in GenPIP's in-memory seeding unit.
#[inline]
pub fn hash64(key: u64) -> u64 {
    let mut k = key;
    k = (!k).wrapping_add(k << 21);
    k ^= k >> 24;
    k = k.wrapping_add(k << 3).wrapping_add(k << 8);
    k ^= k >> 14;
    k = k.wrapping_add(k << 2).wrapping_add(k << 4);
    k ^= k >> 28;
    k = k.wrapping_add(k << 31);
    k
}

/// Extracts the `(w, k)` minimizers of `seq`, in position order.
///
/// Palindromic k-mers (their own reverse complement) are skipped because
/// their strand is ambiguous, following minimap2. Consecutive windows that
/// select the same occurrence yield one entry.
///
/// Returns an empty vector if the sequence has fewer than `k` bases.
///
/// # Panics
///
/// Panics if `k` is outside `1..=32` or `w` is 0.
///
/// # Example
///
/// ```
/// use genpip_genomics::DnaSeq;
/// use genpip_mapping::minimizers;
///
/// let seq: DnaSeq = "ACGTTGCATTGCAGGCATTA".parse()?;
/// let mins = minimizers(&seq, 5, 4);
/// assert!(!mins.is_empty());
/// // Positions are strictly increasing.
/// assert!(mins.windows(2).all(|m| m[0].pos < m[1].pos));
/// # Ok::<(), genpip_genomics::base::ParseBaseError>(())
/// ```
pub fn minimizers(seq: &DnaSeq, k: usize, w: usize) -> Vec<Minimizer> {
    let mut out = Vec::new();
    minimizers_into(seq, k, w, &mut MinimizerScratch::default(), &mut out);
    out
}

/// Reusable winnowing working memory for [`minimizers_into`]; one instance
/// per worker keeps steady-state sketching free of per-chunk allocations.
#[derive(Debug, Clone, Default)]
pub struct MinimizerScratch {
    hashed: Vec<Option<(u64, bool)>>,
    deque: std::collections::VecDeque<(usize, u64, bool)>,
}

/// Extracts the `(w, k)` minimizers of `seq` into `out` (cleared first),
/// reusing `scratch` for all intermediate buffers. Behaviour is identical to
/// [`minimizers`]; see its docs for the contract.
pub fn minimizers_into(
    seq: &DnaSeq,
    k: usize,
    w: usize,
    scratch: &mut MinimizerScratch,
    out: &mut Vec<Minimizer>,
) {
    assert!(w >= 1, "window size must be >= 1");
    out.clear();
    let MinimizerScratch { hashed, deque } = scratch;
    deque.clear();
    let mut kmers = KmerIter::new(seq, k);
    let mut base = 0;
    loop {
        // Hash the next block of k-mers (canonical form; `None` for
        // palindromes) in one tight loop. Blocks bound the buffer, so a
        // whole reference sketches in as little memory as a read does.
        hashed.clear();
        hashed.extend(
            kmers
                .by_ref()
                .take(HASH_BLOCK)
                .map(|(_, kmer)| canonical_hash(kmer)),
        );
        if hashed.is_empty() {
            return;
        }
        winnow(hashed, base, w, deque, out);
        base += hashed.len();
    }
}

/// K-mers hashed per block by [`minimizers_into`].
const HASH_BLOCK: usize = 4096;

/// Monotone-deque winnowing over one block of k-mer hashes, the first at
/// k-mer index `base`; `deque` carries the window across blocks. For each
/// window of `w` k-mers it picks the entry with the smallest hash (rightmost
/// on ties, the standard choice that guarantees window coverage).
fn winnow(
    hashed: &[Option<(u64, bool)>],
    base: usize,
    w: usize,
    deque: &mut std::collections::VecDeque<(usize, u64, bool)>,
    out: &mut Vec<Minimizer>,
) {
    for (i, h) in (base..).zip(hashed) {
        if let Some((hash, rev)) = *h {
            while let Some(&(_, back_hash, _)) = deque.back() {
                if back_hash >= hash {
                    deque.pop_back();
                } else {
                    break;
                }
            }
            deque.push_back((i, hash, rev));
        }
        // Evict entries that slid out of the window ending at i.
        while let Some(&(front_i, _, _)) = deque.front() {
            if front_i + w <= i {
                deque.pop_front();
            } else {
                break;
            }
        }
        if i + 1 >= w {
            if let Some(&(pos, hash, rev)) = deque.front() {
                let candidate = Minimizer {
                    hash,
                    pos: pos as RefPos,
                    reverse: rev,
                };
                if out.last() != Some(&candidate) {
                    out.push(candidate);
                }
            }
        }
    }
}

/// Hash of the canonical form of a k-mer, with the strand flag; `None` for
/// palindromes.
#[inline]
pub fn canonical_hash(kmer: Kmer) -> Option<(u64, bool)> {
    let rc = kmer.reverse_complement();
    match kmer.bits().cmp(&rc.bits()) {
        std::cmp::Ordering::Less => Some((hash64(kmer.bits()), false)),
        std::cmp::Ordering::Greater => Some((hash64(rc.bits()), true)),
        std::cmp::Ordering::Equal => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::GenomeBuilder;

    fn seq(n: usize, s: u64) -> DnaSeq {
        GenomeBuilder::new(n)
            .seed(s)
            .repeat_fraction(0.0)
            .build()
            .sequence()
            .clone()
    }

    #[test]
    fn hash64_is_injective_on_a_sample() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(hash64(i)), "collision at {i}");
        }
    }

    #[test]
    fn positions_strictly_increase() {
        let s = seq(5_000, 1);
        let mins = minimizers(&s, 15, 10);
        assert!(mins.windows(2).all(|m| m[0].pos < m[1].pos));
    }

    #[test]
    fn sketch_matches_a_window_by_window_reference() {
        // Spans several hash blocks, so the window carries across block
        // boundaries; a repeat-rich sequence gives equal-hash ties.
        let s = GenomeBuilder::new(3 * HASH_BLOCK + 777)
            .seed(9)
            .repeat_fraction(0.5)
            .build()
            .sequence()
            .clone();
        let k = 15;
        let hashes: Vec<_> = KmerIter::new(&s, k)
            .map(|(_, kmer)| canonical_hash(kmer))
            .collect();
        for w in [1usize, 5, 10] {
            let mut want: Vec<Minimizer> = Vec::new();
            for end in w - 1..hashes.len() {
                // Smallest hash in the window, rightmost on ties.
                let best = (end + 1 - w..=end)
                    .filter_map(|i| hashes[i].map(|(hash, reverse)| (hash, i, reverse)))
                    .min_by_key(|&(hash, i, _)| (hash, std::cmp::Reverse(i)));
                if let Some((hash, pos, reverse)) = best {
                    let m = Minimizer {
                        hash,
                        pos: pos as RefPos,
                        reverse,
                    };
                    if want.last() != Some(&m) {
                        want.push(m);
                    }
                }
            }
            assert_eq!(minimizers(&s, k, w), want, "w {w}");
        }
    }

    #[test]
    fn every_window_is_covered() {
        // Winnowing invariant: every window of w consecutive k-mers contains
        // at least one selected minimizer (ignoring palindrome-only windows,
        // which are vanishingly rare at k=15).
        let s = seq(3_000, 2);
        let (k, w) = (15, 10);
        let mins = minimizers(&s, k, w);
        let positions: Vec<usize> = mins.iter().map(|m| m.pos as usize).collect();
        let n_kmers = s.len() - k + 1;
        for start in 0..n_kmers.saturating_sub(w - 1) {
            let covered = positions.iter().any(|&p| p >= start && p < start + w);
            assert!(covered, "window at {start} has no minimizer");
        }
    }

    #[test]
    fn density_is_about_two_over_w_plus_one() {
        let s = seq(50_000, 3);
        let (k, w) = (15, 10);
        let mins = minimizers(&s, k, w);
        let density = mins.len() as f64 / (s.len() - k + 1) as f64;
        let expected = 2.0 / (w as f64 + 1.0);
        assert!(
            (density - expected).abs() / expected < 0.25,
            "density {density}, expected ~{expected}"
        );
    }

    #[test]
    fn sketch_is_strand_symmetric() {
        use std::collections::HashSet;
        let s = seq(2_000, 4);
        let rc = s.reverse_complement();
        let fwd: HashSet<u64> = minimizers(&s, 15, 10).iter().map(|m| m.hash).collect();
        let rev: HashSet<u64> = minimizers(&rc, 15, 10).iter().map(|m| m.hash).collect();
        // The hash *sets* must be identical on both strands.
        assert_eq!(fwd, rev);
    }

    #[test]
    fn w_equals_one_selects_every_kmer() {
        let s = seq(300, 5);
        let k = 15;
        let mins = minimizers(&s, k, 1);
        // Every non-palindromic k-mer is selected.
        assert_eq!(mins.len(), s.len() - k + 1);
    }

    #[test]
    fn short_sequence_yields_nothing() {
        let s: DnaSeq = "ACGT".parse().unwrap();
        assert!(minimizers(&s, 15, 10).is_empty());
    }

    #[test]
    fn shared_substring_shares_a_minimizer() {
        // Two sequences sharing a 100 bp substring must share a minimizer
        // from that region (the winnowing guarantee seeding relies on).
        let a = seq(1_000, 6);
        let core = a.subseq(400, 100);
        let mut b = seq(500, 7);
        b.extend_from_seq(&core);
        b.extend_from_seq(&seq(500, 8));
        let (k, w) = (15, 10);
        use std::collections::HashSet;
        let ha: HashSet<u64> = minimizers(&a, k, w)
            .iter()
            .filter(|m| (400..500).contains(&(m.pos as usize)))
            .map(|m| m.hash)
            .collect();
        let hb: HashSet<u64> = minimizers(&b, k, w).iter().map(|m| m.hash).collect();
        assert!(!ha.is_disjoint(&hb));
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_rejected() {
        let s: DnaSeq = "ACGTACGTACGT".parse().unwrap();
        let _ = minimizers(&s, 4, 0);
    }
}
