//! The reference minimizer index.
//!
//! The paper's Figure 1 ⓐ: an offline pass extracts minimizers from the
//! reference genome and stores them in a key–value hash table (minimizer →
//! locations). GenPIP materializes this table inside ReRAM CAM (keys) and
//! RAM (values) arrays; this module is the functional reference whose
//! contents get "programmed" into the `genpip-pim` seeding-unit model.

use crate::minimizer::{minimizers, Minimizer};
use crate::RefPos;
use genpip_genomics::Genome;
use std::collections::HashMap;
use std::ops::Range;

/// One reference hit: where a minimizer occurs in the genome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefHit {
    /// Position of the k-mer's first base in the reference coordinate space:
    /// the index's [`ReferenceIndex::base_offset`] plus the position within
    /// the indexed sequence. [`RefPos`] is 64-bit, so references are no
    /// longer capped at the 4 Gbp `u32` horizon.
    pub pos: RefPos,
    /// Strand flag of the canonical k-mer at that position.
    pub reverse: bool,
}

/// Hash table from minimizer hash to reference locations.
///
/// The locations of every key live in one flat array, grouped by key in
/// ascending position order; the table maps each hash to its range of that
/// array. Two allocations hold the whole index, instead of one small vector
/// per distinct minimizer.
#[derive(Debug, Clone)]
pub struct ReferenceIndex {
    k: usize,
    w: usize,
    genome_len: usize,
    base_offset: RefPos,
    table: HashMap<u64, (usize, usize)>,
    hits: Vec<RefHit>,
    max_occurrences: usize,
}

impl ReferenceIndex {
    /// Default cap on hits per minimizer: more frequent minimizers are
    /// treated as repetitive and skipped at query time (minimap2's
    /// `--mask-level` analogue).
    pub const DEFAULT_MAX_OCCURRENCES: usize = 128;

    /// Builds the index of `genome` with minimizer parameters `(k, w)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=32` or `w` is 0.
    pub fn build(genome: &Genome, k: usize, w: usize) -> ReferenceIndex {
        Self::build_at(genome, k, w, 0)
    }

    /// Builds the index of `genome` with its coordinate space starting at
    /// `base_offset` instead of 0: every stored hit position is
    /// `base_offset + position-in-genome`. This is how a sharded build places
    /// each slice of a long reference into one global `u64` coordinate space
    /// without ever materializing the whole sequence.
    pub fn build_at(genome: &Genome, k: usize, w: usize, base_offset: RefPos) -> ReferenceIndex {
        let mins = minimizers(genome.sequence(), k, w);
        Self::from_minimizers(k, w, genome.len(), base_offset, mins)
    }

    /// Groups `mins` (in ascending position order, positions within the
    /// indexed sequence) by hash, each key's hits in ascending position
    /// order.
    fn from_minimizers(
        k: usize,
        w: usize,
        genome_len: usize,
        base_offset: RefPos,
        mins: Vec<Minimizer>,
    ) -> ReferenceIndex {
        // Pass 1: hits per key. A key's entry is (start, count) until pass 2
        // places it, then (start, cursor), which ends as (start, end).
        let mut table: HashMap<u64, (usize, usize)> = HashMap::with_capacity(mins.len());
        for m in &mins {
            table.entry(m.hash).or_insert((usize::MAX, 0)).1 += 1;
        }
        // Pass 2: keys are laid out in order of first occurrence, so the hit
        // lists of nearby reference minimizers — which one query looks up in
        // a row — sit next to each other in memory.
        let mut hits = vec![
            RefHit {
                pos: 0,
                reverse: false
            };
            mins.len()
        ];
        let mut next = 0;
        for m in &mins {
            let (start, cursor) = table.get_mut(&m.hash).expect("counted in pass 1");
            if *start == usize::MAX {
                *start = next;
                next += *cursor;
                *cursor = *start;
            }
            hits[*cursor] = RefHit {
                pos: base_offset + m.pos,
                reverse: m.reverse,
            };
            *cursor += 1;
        }
        ReferenceIndex {
            k,
            w,
            genome_len,
            base_offset,
            table,
            hits,
            max_occurrences: Self::DEFAULT_MAX_OCCURRENCES,
        }
    }

    /// Builds the index over only the minimizers **owned** by `span`
    /// (a position range of the genome) — one shard of a
    /// [`crate::ShardedReferenceIndex`].
    ///
    /// The sketched subsequence extends `w + k - 1` bases beyond each end of
    /// `span` (clamped to the genome), so every winnowing window that could
    /// witness an owned position exists in the shard exactly as it does in a
    /// whole-genome sketch; hits are then filtered to `span`. The union of
    /// the indexes built from a partition of `0..genome.len()` therefore
    /// holds precisely the whole-genome minimizer set, each hit exactly
    /// once.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ReferenceIndex::build`], or if
    /// `span` exceeds the genome.
    pub fn build_span(genome: &Genome, k: usize, w: usize, span: Range<usize>) -> ReferenceIndex {
        Self::build_span_at(genome, k, w, span, 0)
    }

    /// [`ReferenceIndex::build_span`] with the genome's coordinate space
    /// starting at `base_offset`: `span` stays a range of positions within
    /// the genome, while stored hits carry `base_offset + position`.
    pub fn build_span_at(
        genome: &Genome,
        k: usize,
        w: usize,
        span: Range<usize>,
        base_offset: RefPos,
    ) -> ReferenceIndex {
        assert!(
            span.start <= span.end && span.end <= genome.len(),
            "shard span {span:?} exceeds genome of {} bases",
            genome.len()
        );
        let halo = w + k - 1;
        let ext_start = span.start.saturating_sub(halo);
        let ext_end = (span.end + halo).min(genome.len());
        let sub = genome.sequence().subseq(ext_start, ext_end - ext_start);
        let mut mins = minimizers(&sub, k, w);
        mins.retain_mut(|m| {
            m.pos += ext_start as RefPos;
            span.contains(&(m.pos as usize))
        });
        Self::from_minimizers(k, w, genome.len(), base_offset, mins)
    }

    /// Adjusts the repetitive-minimizer cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn with_max_occurrences(mut self, cap: usize) -> ReferenceIndex {
        assert!(cap > 0, "occurrence cap must be positive");
        self.max_occurrences = cap;
        self
    }

    /// Minimizer k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Minimizer window size.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Length of the indexed genome.
    pub fn genome_len(&self) -> usize {
        self.genome_len
    }

    /// First coordinate of the index's position space (0 unless built with
    /// [`ReferenceIndex::build_at`]/[`ReferenceIndex::build_span_at`]).
    pub fn base_offset(&self) -> RefPos {
        self.base_offset
    }

    /// One past the last coordinate of the index's position space:
    /// `base_offset + genome_len`.
    pub fn coord_end(&self) -> RefPos {
        self.base_offset + self.genome_len as RefPos
    }

    /// Number of distinct minimizer keys.
    pub fn distinct_minimizers(&self) -> usize {
        self.table.len()
    }

    /// Total number of (key, location) entries.
    pub fn total_entries(&self) -> usize {
        self.hits.len()
    }

    /// The repetitive-minimizer cap ([`ReferenceIndex::with_max_occurrences`]).
    pub fn max_occurrences(&self) -> usize {
        self.max_occurrences
    }

    /// Number of (key, location) entries hidden by the repetitive cap — keys
    /// with more than `max_occurrences` hits, which [`ReferenceIndex::lookup`]
    /// reports as empty.
    pub fn masked_entries(&self) -> usize {
        self.iter()
            .map(|(_, hits)| hits.len())
            .filter(|&n| n > self.max_occurrences)
            .sum()
    }

    /// Looks up a query minimizer, returning its reference hits, or an empty
    /// slice if the key is absent **or** more frequent than the repetitive
    /// cap.
    pub fn lookup(&self, m: &Minimizer) -> &[RefHit] {
        self.lookup_hash(m.hash)
    }

    /// Looks up by raw hash (used by the PIM CAM model, which stores hashes
    /// directly).
    pub fn lookup_hash(&self, hash: u64) -> &[RefHit] {
        match self.table.get(&hash) {
            Some(&(start, end)) if end - start <= self.max_occurrences => &self.hits[start..end],
            _ => &[],
        }
    }

    /// Iterates over all `(hash, hits)` pairs, **including** keys above the
    /// repetitive cap that [`ReferenceIndex::lookup`] masks. Loaders that
    /// program query-visible state (the PIM CAM/RAM image) must use
    /// [`ReferenceIndex::iter_unmasked`] instead, or they will count rows the
    /// functional model never reads.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &[RefHit])> {
        self.table
            .iter()
            .map(|(hash, &(start, end))| (hash, &self.hits[start..end]))
    }

    /// Iterates over exactly the `(hash, hits)` pairs [`ReferenceIndex::lookup`]
    /// can return — keys at or below the repetitive cap.
    pub fn iter_unmasked(&self) -> impl Iterator<Item = (&u64, &[RefHit])> {
        self.iter()
            .filter(|(_, hits)| hits.len() <= self.max_occurrences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpip_genomics::GenomeBuilder;

    fn genome(n: usize, seed: u64) -> Genome {
        GenomeBuilder::new(n).seed(seed).build()
    }

    #[test]
    fn index_contains_every_reference_minimizer() {
        let g = genome(10_000, 1);
        let idx = ReferenceIndex::build(&g, 15, 10);
        for m in minimizers(g.sequence(), 15, 10) {
            let hits = idx.lookup(&m);
            assert!(
                hits.iter().any(|h| h.pos == m.pos),
                "minimizer at {} missing from index",
                m.pos
            );
        }
    }

    #[test]
    fn entry_count_matches_sketch_size() {
        let g = genome(10_000, 2);
        let idx = ReferenceIndex::build(&g, 15, 10);
        let sketch = minimizers(g.sequence(), 15, 10);
        assert_eq!(idx.total_entries(), sketch.len());
        assert!(idx.distinct_minimizers() <= sketch.len());
        assert_eq!(idx.genome_len(), 10_000);
        assert_eq!((idx.k(), idx.w()), (15, 10));
    }

    #[test]
    fn hits_group_the_sketch_by_key_in_position_order() {
        // Reference layout: one vector per key, pushed in sketch order. A
        // repeated unit gives many keys several hits.
        let (unit, spacer) = (genome(700, 4), genome(900, 5));
        let mut seq = unit.sequence().clone();
        for part in [&spacer, &unit, &unit] {
            seq.extend_from_seq(part.sequence());
        }
        let g = Genome::from_seq("repeats", seq);
        let offset: RefPos = 1 << 40;
        let span = 500..2_600;
        for (idx, lo, hi) in [
            (ReferenceIndex::build_at(&g, 15, 10, offset), 0, g.len()),
            (
                ReferenceIndex::build_span_at(&g, 15, 10, span.clone(), offset),
                span.start,
                span.end,
            ),
        ] {
            let mut want: HashMap<u64, Vec<RefHit>> = HashMap::new();
            for m in minimizers(g.sequence(), 15, 10) {
                if (lo..hi).contains(&(m.pos as usize)) {
                    want.entry(m.hash).or_default().push(RefHit {
                        pos: offset + m.pos,
                        reverse: m.reverse,
                    });
                }
            }
            assert!(want.values().any(|hits| hits.len() > 1));
            let got: HashMap<u64, Vec<RefHit>> =
                idx.iter().map(|(&h, hits)| (h, hits.to_vec())).collect();
            assert_eq!(got, want);
            assert_eq!(idx.distinct_minimizers(), want.len());
            for (hash, hits) in &want {
                assert_eq!(idx.lookup_hash(*hash), &hits[..]);
            }
        }
    }

    #[test]
    fn absent_key_returns_empty() {
        let g = genome(1_000, 3);
        let idx = ReferenceIndex::build(&g, 15, 10);
        let phantom = Minimizer {
            hash: 0xDEAD_BEEF_DEAD_BEEF,
            pos: 0,
            reverse: false,
        };
        assert!(idx.lookup(&phantom).is_empty());
        assert!(idx.lookup_hash(0xDEAD_BEEF_DEAD_BEEF).is_empty());
    }

    #[test]
    fn repetitive_minimizers_are_masked() {
        // A genome that is one repeated unit makes every minimizer highly
        // repetitive; with a low cap all lookups come back empty.
        let unit = genome(400, 4);
        let mut seq = genpip_genomics::DnaSeq::new();
        for _ in 0..50 {
            seq.extend_from_seq(unit.sequence());
        }
        let g = Genome::from_seq("repeats", seq);
        let idx = ReferenceIndex::build(&g, 15, 10).with_max_occurrences(4);
        let masked = minimizers(g.sequence(), 15, 10)
            .iter()
            .filter(|m| idx.lookup(m).is_empty())
            .count();
        let total = minimizers(g.sequence(), 15, 10).len();
        assert!(
            masked as f64 / total as f64 > 0.9,
            "only {masked}/{total} masked"
        );
    }

    #[test]
    fn iter_visits_all_entries() {
        let g = genome(5_000, 5);
        let idx = ReferenceIndex::build(&g, 15, 10);
        let visited: usize = idx.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(visited, idx.total_entries());
    }

    #[test]
    fn iter_unmasked_visits_exactly_the_queryable_entries() {
        // Repeat-heavy genome with a low cap: `iter` still sees everything,
        // `iter_unmasked` sees only what `lookup` can return.
        let unit = genome(400, 6);
        let mut seq = genpip_genomics::DnaSeq::new();
        for _ in 0..20 {
            seq.extend_from_seq(unit.sequence());
        }
        let g = Genome::from_seq("repeats", seq);
        let idx = ReferenceIndex::build(&g, 15, 10).with_max_occurrences(4);
        assert!(idx.masked_entries() > 0, "test genome must mask something");
        let unmasked: usize = idx.iter_unmasked().map(|(_, v)| v.len()).sum();
        assert_eq!(unmasked, idx.total_entries() - idx.masked_entries());
        for (hash, hits) in idx.iter_unmasked() {
            assert!(hits.len() <= idx.max_occurrences());
            assert_eq!(idx.lookup_hash(*hash).len(), hits.len());
        }
    }

    #[test]
    fn span_shards_partition_the_whole_genome_sketch() {
        use std::collections::HashSet;
        let g = genome(10_000, 7);
        let (k, w) = (15, 10);
        let whole = ReferenceIndex::build(&g, k, w);
        let mut whole_entries: HashSet<(u64, RefPos, bool)> = HashSet::new();
        for (hash, hits) in whole.iter() {
            for h in hits {
                whole_entries.insert((*hash, h.pos, h.reverse));
            }
        }
        for n in [2usize, 3, 7] {
            let step = g.len().div_ceil(n);
            let mut seen: HashSet<(u64, RefPos, bool)> = HashSet::new();
            for s in 0..n {
                let span = (s * step).min(g.len())..((s + 1) * step).min(g.len());
                let shard = ReferenceIndex::build_span(&g, k, w, span.clone());
                for (hash, hits) in shard.iter() {
                    for h in hits {
                        assert!(
                            span.contains(&(h.pos as usize)),
                            "hit {} escaped span {span:?}",
                            h.pos
                        );
                        assert!(
                            seen.insert((*hash, h.pos, h.reverse)),
                            "duplicate hit at {} across shards",
                            h.pos
                        );
                    }
                }
            }
            assert_eq!(seen, whole_entries, "{n} shards lost or invented hits");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds genome")]
    fn out_of_range_span_rejected() {
        let g = genome(1_000, 8);
        let _ = ReferenceIndex::build_span(&g, 15, 10, 500..2_000);
    }

    #[test]
    fn base_offset_shifts_every_hit_past_the_u32_horizon() {
        // An index whose coordinate space starts beyond 4 Gbp: every stored
        // hit is the plain-index hit plus the offset, nothing truncates.
        let g = genome(5_000, 9);
        let offset: RefPos = 5_000_000_000; // > u32::MAX
        let plain = ReferenceIndex::build(&g, 15, 10);
        let shifted = ReferenceIndex::build_at(&g, 15, 10, offset);
        assert_eq!(shifted.base_offset(), offset);
        assert_eq!(shifted.coord_end(), offset + 5_000);
        assert_eq!(shifted.total_entries(), plain.total_entries());
        for (hash, hits) in plain.iter() {
            let moved = shifted.lookup_hash(*hash);
            assert_eq!(moved.len(), hits.len());
            for (a, b) in hits.iter().zip(moved) {
                assert_eq!(b.pos, offset + a.pos);
                assert!(b.pos > u32::MAX as RefPos);
                assert_eq!(b.reverse, a.reverse);
            }
        }
    }

    #[test]
    fn span_shards_agree_with_whole_index_under_offset() {
        let g = genome(4_000, 10);
        let offset: RefPos = (u32::MAX as RefPos) - 1_000; // straddles the boundary
        let whole = ReferenceIndex::build_at(&g, 15, 10, offset);
        let mut seen = 0usize;
        for span in [0..2_000usize, 2_000..4_000] {
            let shard = ReferenceIndex::build_span_at(&g, 15, 10, span.clone(), offset);
            for (hash, hits) in shard.iter() {
                for h in hits {
                    let local = (h.pos - offset) as usize;
                    assert!(span.contains(&local), "hit {local} escaped span {span:?}");
                    assert!(whole.lookup_hash(*hash).contains(h));
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, whole.total_entries());
    }
}
