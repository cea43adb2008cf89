//! Sharded reference index: the minimizer table partitioned by position.
//!
//! GenPIP's seeding unit holds the reference hash table in ReRAM CAM/RAM
//! arrays; the scalability story (and follow-on PIM mapping work that
//! partitions DNA indexes across subarrays queried in parallel) requires the
//! table to be split so no single unit — and, in this software model, no
//! single allocation — has to hold the whole genome's index.
//!
//! [`ShardedReferenceIndex`] partitions the genome into `S` contiguous
//! position ranges and builds one [`ReferenceIndex`] per range via
//! [`ReferenceIndex::build_span`] (halo-extended sketching, ownership
//! filtering). A seed lookup fans out to every shard and concatenates the
//! per-shard hit lists in shard order; because shard tables are built in
//! position order and shards are ordered by range, the merged stream is in
//! the exact order a monolithic index produces — so downstream chaining is
//! **bit-identical for every shard count**.
//!
//! Repetitive-minimizer masking uses the **global** occurrence count (summed
//! across shards), not the per-shard count: a minimizer occurring 200 times
//! spread over 8 shards is exactly as repetitive as one occurring 200 times
//! in one shard, and masking per shard would silently change mapping results
//! as the shard count grows.

use crate::index::{RefHit, ReferenceIndex};
use crate::minimizer::Minimizer;
use crate::RefPos;
use genpip_genomics::Genome;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// How many position-range shards a reference index is split into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Shards {
    /// One monolithic shard — the reference configuration.
    #[default]
    Single,
    /// A fixed shard count (clamped to `1..=`[`Shards::MAX_SHARDS`] at
    /// resolution, so a typo like `--shards 1000000` cannot build a
    /// million-way fan-out or exceed the modeled CAM subarray groups).
    Fixed(usize),
    /// One shard per [`Shards::AUTO_BASES_PER_SHARD`] bases of reference,
    /// capped at [`Shards::MAX_SHARDS`] (the paper's seeding-unit count).
    Auto,
}

impl Shards {
    /// `Auto` target: bases of reference per shard (256 Kbp).
    pub const AUTO_BASES_PER_SHARD: usize = 1 << 18;

    /// Upper bound on the resolved shard count — Table 2's 4096 seeding
    /// units, one CAM subarray group per shard.
    pub const MAX_SHARDS: usize = 4096;

    /// The concrete shard count this setting resolves to for a reference of
    /// `genome_len` bases (always in `1..=`[`Shards::MAX_SHARDS`]).
    pub fn resolve(self, genome_len: usize) -> usize {
        match self {
            Shards::Single => 1,
            Shards::Fixed(n) => n.clamp(1, Self::MAX_SHARDS),
            Shards::Auto => genome_len
                .div_ceil(Self::AUTO_BASES_PER_SHARD)
                .clamp(1, Self::MAX_SHARDS),
        }
    }

    /// Parses a shard-count spelling: `"single"`, `"auto"`, or a count
    /// (e.g. `"4"` → `Fixed(4)`). `None` for anything else, including `"0"`.
    pub fn parse(s: &str) -> Option<Shards> {
        match s.trim().to_ascii_lowercase().as_str() {
            "single" | "1" => Some(Shards::Single),
            "auto" => Some(Shards::Auto),
            n => match n.parse::<usize>() {
                Ok(count) if count > 0 => Some(Shards::Fixed(count)),
                _ => None,
            },
        }
    }
}

/// The reference minimizer index, partitioned into position-range shards
/// with fan-out seeding. See the [module docs](self) for the layout and the
/// bit-identity / global-masking guarantees.
///
/// Positions stored in every shard are **global** forward-strand coordinates:
/// [`RefPos`] (64-bit), starting at the index's
/// [`base_offset`](ShardedReferenceIndex::base_offset). Neither the shard nor
/// the whole reference is capped at the 4 Gbp `u32` horizon any more.
#[derive(Debug, Clone)]
pub struct ShardedReferenceIndex {
    k: usize,
    w: usize,
    genome_len: usize,
    base_offset: RefPos,
    max_occurrences: usize,
    spans: Vec<Range<RefPos>>,
    shards: Vec<ReferenceIndex>,
    /// Hashes whose summed-across-shards occurrence count exceeds the cap.
    masked: HashSet<u64>,
    /// Distinct minimizer hashes across all shards (union, not sum).
    distinct: usize,
    /// (key, location) entries belonging to globally-masked hashes.
    masked_entries: usize,
}

impl ShardedReferenceIndex {
    /// Builds the sharded index of `genome` with minimizer parameters
    /// `(k, w)`, the shard layout named by `shards`, and the default
    /// repetitive-minimizer cap. Use
    /// [`ShardedReferenceIndex::build_with_max_occurrences`] to set a
    /// non-default cap without recomputing the mask twice.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ReferenceIndex::build`].
    pub fn build(genome: &Genome, k: usize, w: usize, shards: Shards) -> ShardedReferenceIndex {
        Self::build_with_max_occurrences(
            genome,
            k,
            w,
            shards,
            ReferenceIndex::DEFAULT_MAX_OCCURRENCES,
        )
    }

    /// [`ShardedReferenceIndex::build`] with the genome's coordinate space
    /// starting at `base_offset`: every stored hit position and every span
    /// bound is `base_offset + position-in-genome`. This is how coordinate
    /// spaces beyond 4 Gbp are exercised (and how slices of a long reference
    /// can be indexed independently) without materializing 4 GB of sequence.
    pub fn build_at(
        genome: &Genome,
        k: usize,
        w: usize,
        shards: Shards,
        base_offset: RefPos,
    ) -> ShardedReferenceIndex {
        Self::build_full(
            genome,
            k,
            w,
            shards,
            ReferenceIndex::DEFAULT_MAX_OCCURRENCES,
            base_offset,
        )
    }

    /// [`ShardedReferenceIndex::build`] with an explicit repetitive cap, so
    /// the global mask is computed once with the final cap.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ReferenceIndex::build`], or if
    /// `cap` is 0.
    pub fn build_with_max_occurrences(
        genome: &Genome,
        k: usize,
        w: usize,
        shards: Shards,
        cap: usize,
    ) -> ShardedReferenceIndex {
        Self::build_full(genome, k, w, shards, cap, 0)
    }

    /// The full builder: explicit repetitive cap and base offset.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ReferenceIndex::build`], or if
    /// `cap` is 0.
    pub fn build_full(
        genome: &Genome,
        k: usize,
        w: usize,
        shards: Shards,
        cap: usize,
        base_offset: RefPos,
    ) -> ShardedReferenceIndex {
        assert!(cap > 0, "occurrence cap must be positive");
        let n = shards.resolve(genome.len());
        let local_spans = shard_spans(genome.len(), n);
        let shards: Vec<ReferenceIndex> = if n == 1 {
            // Single shard: sketch the genome directly, no halo subsequence.
            vec![ReferenceIndex::build_at(genome, k, w, base_offset).with_max_occurrences(cap)]
        } else {
            local_spans
                .iter()
                .map(|span| {
                    ReferenceIndex::build_span_at(genome, k, w, span.clone(), base_offset)
                        .with_max_occurrences(cap)
                })
                .collect()
        };
        let spans = local_spans
            .into_iter()
            .map(|s| base_offset + s.start as RefPos..base_offset + s.end as RefPos)
            .collect();
        let mut index = ShardedReferenceIndex {
            k,
            w,
            genome_len: genome.len(),
            base_offset,
            max_occurrences: cap,
            spans,
            shards,
            masked: HashSet::new(),
            distinct: 0,
            masked_entries: 0,
        };
        index.recompute_mask();
        index
    }

    /// Adjusts the repetitive-minimizer cap, recomputing the global mask.
    /// Prefer [`ShardedReferenceIndex::build_with_max_occurrences`] when the
    /// cap is known at build time — this builder exists for API parity with
    /// [`ReferenceIndex::with_max_occurrences`].
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn with_max_occurrences(mut self, cap: usize) -> ShardedReferenceIndex {
        assert!(cap > 0, "occurrence cap must be positive");
        self.max_occurrences = cap;
        self.shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|s| s.with_max_occurrences(cap))
            .collect();
        self.recompute_mask();
        self
    }

    /// Recomputes the globally-masked hash set from the per-shard tables:
    /// a hash is masked iff its occurrences **summed across shards** exceed
    /// the cap — identical semantics to a monolithic index's per-key cap.
    ///
    /// With a single shard the per-shard table *is* the global view, so the
    /// mask derives directly from it without the cross-shard counting map —
    /// the default `Shards::Single` configuration never pays for sharding.
    fn recompute_mask(&mut self) {
        if let [shard] = self.shards.as_slice() {
            self.distinct = shard.distinct_minimizers();
            let mut masked_entries = 0usize;
            self.masked = shard
                .iter()
                .filter(|(_, hits)| hits.len() > self.max_occurrences)
                .map(|(hash, hits)| {
                    masked_entries += hits.len();
                    *hash
                })
                .collect();
            self.masked_entries = masked_entries;
            return;
        }
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for shard in &self.shards {
            for (hash, hits) in shard.iter() {
                *counts.entry(*hash).or_default() += hits.len();
            }
        }
        self.distinct = counts.len();
        self.masked_entries = 0;
        self.masked = counts
            .into_iter()
            .filter(|&(_, count)| count > self.max_occurrences)
            .map(|(hash, count)| {
                self.masked_entries += count;
                hash
            })
            .collect();
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
    /// [`ShardedReferenceIndex::build_at`]).
    pub fn base_offset(&self) -> RefPos {
        self.base_offset
    }

    /// One past the last coordinate of the index's position space:
    /// `base_offset + genome_len`.
    pub fn coord_end(&self) -> RefPos {
        self.base_offset + self.genome_len as RefPos
    }

    /// The repetitive-minimizer cap, applied to global occurrence counts.
    pub fn max_occurrences(&self) -> usize {
        self.max_occurrences
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The owned (halo-free) coordinate range of each shard, in order
    /// (offset-applied [`RefPos`] bounds).
    pub fn spans(&self) -> &[Range<RefPos>] {
        &self.spans
    }

    /// One shard's index. Positions are global; the shard's own lookup
    /// applies the same cap to its (smaller) per-shard counts, so use
    /// [`ShardedReferenceIndex::lookup`] for query semantics and
    /// [`ShardedReferenceIndex::shard_iter_unmasked`] for loading hardware
    /// images.
    pub fn shard(&self, s: usize) -> &ReferenceIndex {
        &self.shards[s]
    }

    /// Distinct minimizer hashes across the whole reference (union over
    /// shards — a hash occurring in several shards counts once).
    pub fn distinct_minimizers(&self) -> usize {
        self.distinct
    }

    /// Total (key, location) entries across all shards.
    pub fn total_entries(&self) -> usize {
        self.shards.iter().map(ReferenceIndex::total_entries).sum()
    }

    /// Entries belonging to globally-masked hashes — what a query can never
    /// see, and what a CAM loader must not program.
    pub fn masked_entries(&self) -> usize {
        self.masked_entries
    }

    /// Number of globally-masked hashes.
    pub fn masked_keys(&self) -> usize {
        self.masked.len()
    }

    /// Entries of the largest shard — the per-shard memory bound that
    /// sharding exists to control (≈ `2/(w+1) ×` the shard's span length).
    pub fn max_shard_entries(&self) -> usize {
        self.shards
            .iter()
            .map(ReferenceIndex::total_entries)
            .max()
            .unwrap_or(0)
    }

    /// `true` if `hash` is masked by the global repetitive cap.
    pub fn is_masked(&self, hash: u64) -> bool {
        self.masked.contains(&hash)
    }

    /// Looks up a query minimizer, fanning out to every shard and chaining
    /// the per-shard hit lists in shard (= ascending position) order. Yields
    /// nothing if the key is absent **or** globally more frequent than the
    /// repetitive cap — exactly [`ReferenceIndex::lookup`]'s contract on a
    /// monolithic table.
    pub fn lookup<'a>(&'a self, m: &Minimizer) -> impl Iterator<Item = &'a RefHit> + 'a {
        self.lookup_hash(m.hash)
    }

    /// [`ShardedReferenceIndex::lookup`] by raw hash.
    pub fn lookup_hash(&self, hash: u64) -> impl Iterator<Item = &RefHit> + '_ {
        // With one shard the per-shard cap equals the global cap, so its own
        // lookup already masks correctly — skip the global-mask probe and
        // keep the default configuration's hot path at one hash lookup per
        // minimizer, same as a monolithic index.
        let masked = self.shards.len() > 1 && self.masked.contains(&hash);
        self.shards
            .iter()
            .filter(move |_| !masked)
            .flat_map(move |shard| shard.lookup_hash(hash).iter())
    }

    /// Iterates one shard's `(hash, hits)` pairs filtered by the **global**
    /// mask — the exact rows a per-shard CAM/RAM image must hold so the
    /// hardware model programs nothing the functional model refuses to
    /// query. (The shard's own [`ReferenceIndex::iter_unmasked`] would
    /// filter by per-shard counts, which under-masks split keys.)
    pub fn shard_iter_unmasked(&self, s: usize) -> impl Iterator<Item = (&u64, &[RefHit])> {
        self.shards[s]
            .iter()
            .filter(move |(hash, _)| !self.masked.contains(hash))
    }
}

/// Splits `0..genome_len` into `n` near-equal contiguous spans (the first
/// `genome_len % n` spans are one base longer). Always returns `n` spans;
/// trailing spans may be empty when `n > genome_len`.
fn shard_spans(genome_len: usize, n: usize) -> Vec<Range<usize>> {
    let n = n.max(1);
    let base = genome_len / n;
    let extra = genome_len % n;
    let mut spans = Vec::with_capacity(n);
    let mut start = 0usize;
    for s in 0..n {
        let len = base + usize::from(s < extra);
        spans.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, genome_len);
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::minimizers;
    use genpip_genomics::{DnaSeq, GenomeBuilder};

    fn genome(n: usize, seed: u64) -> Genome {
        GenomeBuilder::new(n).seed(seed).build()
    }

    /// A genome whose repeated unit crosses the masking cap only when
    /// occurrences are summed across shards.
    fn repeat_genome(copies: usize) -> Genome {
        let unit = GenomeBuilder::new(400)
            .seed(90)
            .repeat_fraction(0.0)
            .build();
        let mut seq = DnaSeq::new();
        for _ in 0..copies {
            seq.extend_from_seq(unit.sequence());
        }
        Genome::from_seq("repeats", seq)
    }

    #[test]
    fn spans_partition_the_genome() {
        for (len, n) in [(10_000usize, 1usize), (10_000, 3), (10_001, 7), (5, 9)] {
            let spans = shard_spans(len, n);
            assert_eq!(spans.len(), n);
            assert_eq!(spans[0].start, 0);
            assert_eq!(spans[n - 1].end, len);
            for pair in spans.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn shards_resolve_and_parse() {
        assert_eq!(Shards::Single.resolve(1 << 30), 1);
        assert_eq!(Shards::Fixed(7).resolve(100), 7);
        assert_eq!(Shards::Fixed(0).resolve(100), 1, "clamped to one shard");
        assert_eq!(
            Shards::Fixed(1_000_000).resolve(100),
            Shards::MAX_SHARDS,
            "clamped to the modeled CAM subarray groups"
        );
        assert_eq!(Shards::Auto.resolve(0), 1);
        assert_eq!(Shards::Auto.resolve(Shards::AUTO_BASES_PER_SHARD), 1);
        assert_eq!(Shards::Auto.resolve(Shards::AUTO_BASES_PER_SHARD + 1), 2);
        assert_eq!(Shards::Auto.resolve(usize::MAX), Shards::MAX_SHARDS);
        assert_eq!(Shards::parse("single"), Some(Shards::Single));
        assert_eq!(Shards::parse(" AUTO "), Some(Shards::Auto));
        assert_eq!(Shards::parse("1"), Some(Shards::Single));
        assert_eq!(Shards::parse("4"), Some(Shards::Fixed(4)));
        assert_eq!(Shards::parse("0"), None);
        assert_eq!(Shards::parse("bogus"), None);
        assert_eq!(Shards::default(), Shards::Single);
    }

    #[test]
    fn every_shard_count_answers_lookups_identically() {
        let g = genome(20_000, 1);
        let (k, w) = (15, 10);
        let single = ShardedReferenceIndex::build(&g, k, w, Shards::Single);
        for shards in [Shards::Fixed(2), Shards::Fixed(3), Shards::Fixed(8)] {
            let sharded = ShardedReferenceIndex::build(&g, k, w, shards);
            assert_eq!(sharded.total_entries(), single.total_entries());
            assert_eq!(sharded.distinct_minimizers(), single.distinct_minimizers());
            for m in minimizers(g.sequence(), k, w) {
                let a: Vec<RefHit> = single.lookup(&m).copied().collect();
                let b: Vec<RefHit> = sharded.lookup(&m).copied().collect();
                assert_eq!(a, b, "{shards:?}: lookup diverged at pos {}", m.pos);
            }
        }
    }

    #[test]
    fn single_shard_matches_the_monolithic_index() {
        let g = genome(10_000, 2);
        let mono = ReferenceIndex::build(&g, 15, 10);
        let sharded = ShardedReferenceIndex::build(&g, 15, 10, Shards::Single);
        assert_eq!(sharded.shard_count(), 1);
        for m in minimizers(g.sequence(), 15, 10) {
            let a: Vec<RefHit> = mono.lookup(&m).to_vec();
            let b: Vec<RefHit> = sharded.lookup(&m).copied().collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn masking_uses_the_global_occurrence_count() {
        // 60 copies of a 400 bp unit, cap 40, 7 shards: every unit minimizer
        // occurs ~60× globally (> cap) but only ~9× per shard (≤ cap). A
        // per-shard mask would let them through; the global mask must not.
        let g = repeat_genome(60);
        let (k, w) = (15, 10);
        // One index built with the cap up front, one through the builder
        // chain — both paths must agree.
        let sharded =
            ShardedReferenceIndex::build_with_max_occurrences(&g, k, w, Shards::Fixed(7), 40);
        let single =
            ShardedReferenceIndex::build(&g, k, w, Shards::Single).with_max_occurrences(40);
        let mut edge_case_hit = false;
        for m in minimizers(g.sequence(), k, w) {
            let a: Vec<RefHit> = single.lookup(&m).copied().collect();
            let b: Vec<RefHit> = sharded.lookup(&m).copied().collect();
            assert_eq!(a, b, "masking diverged at pos {}", m.pos);
            // The dangerous configuration: globally masked, but some shard
            // holds a below-cap hit list it would happily return on its own.
            if sharded.is_masked(m.hash) {
                assert!(b.is_empty());
                edge_case_hit |= (0..sharded.shard_count())
                    .any(|s| !sharded.shard(s).lookup_hash(m.hash).is_empty());
            }
        }
        assert!(
            edge_case_hit,
            "test genome never exercised the split-repeat masking edge case"
        );
        assert_eq!(sharded.masked_entries(), single.masked_entries());
        assert_eq!(sharded.masked_keys(), single.masked_keys());
    }

    #[test]
    fn shard_iter_unmasked_applies_the_global_mask() {
        let g = repeat_genome(60);
        let sharded =
            ShardedReferenceIndex::build_with_max_occurrences(&g, 15, 10, Shards::Fixed(5), 40);
        let mut visited = 0usize;
        for s in 0..sharded.shard_count() {
            for (hash, hits) in sharded.shard_iter_unmasked(s) {
                assert!(!sharded.is_masked(*hash));
                visited += hits.len();
            }
        }
        assert_eq!(visited, sharded.total_entries() - sharded.masked_entries());
        assert!(sharded.masked_entries() > 0);
    }

    #[test]
    fn more_shards_than_bases_is_harmless() {
        let g = genome(20_000, 3);
        let sharded = ShardedReferenceIndex::build(&g, 15, 10, Shards::Fixed(64));
        let single = ShardedReferenceIndex::build(&g, 15, 10, Shards::Single);
        assert_eq!(sharded.shard_count(), 64);
        assert_eq!(sharded.total_entries(), single.total_entries());
        assert!(sharded.max_shard_entries() < single.max_shard_entries());
    }

    #[test]
    fn max_shard_entries_shrinks_with_shard_count() {
        let g = genome(40_000, 4);
        let s1 = ShardedReferenceIndex::build(&g, 15, 10, Shards::Single);
        let s4 = ShardedReferenceIndex::build(&g, 15, 10, Shards::Fixed(4));
        assert_eq!(s1.max_shard_entries(), s1.total_entries());
        // Near-equal spans ⇒ the largest shard holds roughly a quarter.
        assert!(s4.max_shard_entries() < s1.total_entries() / 3);
    }
}
