//! The traced replay: the workload's reads driven one at a time, on one
//! thread, through each layer's public functions in the order the engine's
//! chunk-based pipeline calls them (GenPIP flow with full early rejection).
//!
//! Per read: pull through a `GscReadSource`; `chunk_boundaries`; the QSR
//! phase (`qsr_sample_indices`, `ReadDecoder::call_next` on the sampled
//! chunks, `qsr_check`); then chunk by chunk `call_next`,
//! `ReferenceSet::sketch_and_seed_into` and `IncrementalChainer::extend`,
//! with `cmr_check` once `N_cm` chunks are chained; finally the
//! `AqsAccumulator` verdict, `ReferenceSet::finalize_mapping` and, where the
//! workload writes FASTQ, `FastqWriter::write_record`. Each call is one
//! span; the per-read counters feed the correctness gate.

use crate::digest::{OutcomeKind, Placement, ReadDigest};
use crate::trace::{Span, Tracer, ROOT};
use crate::workload::Workload;
use genpip_basecall::{
    BasecalledChunk, Basecaller, CallScratch, CarryState, ChunkJob, LaneDecoder, LaneScratch,
    ReadDecoder,
};
use genpip_core::early_reject::{cmr_check, qsr_check, qsr_sample_indices};
use genpip_core::{GenPipConfig, Lanes};
use genpip_datasets::ReadSource;
use genpip_genomics::fastx::FastqWriter;
use genpip_genomics::quality::AqsAccumulator;
use genpip_genomics::{DnaSeq, Phred, ReadOrigin};
use genpip_io::{GscReadSource, GscReader};
use genpip_mapping::{IncrementalChainer, ReferenceSet, SeedScratch};
use genpip_signal::chunk_boundaries;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Raw samples of the workload's decoded chunks kept for the lane-decode
/// timing (the first chunks decoded, in replay order).
const LANE_SAMPLE_BUDGET: usize = 2_000_000;

/// Ground truth of one read, as the simulator recorded it.
#[derive(Debug, Clone, Copy)]
pub struct Truth {
    pub origin: ReadOrigin,
    pub low_quality: bool,
}

impl Truth {
    /// From the reference and not low quality: a read the pipeline should
    /// keep and place on its true locus.
    pub fn is_good(&self) -> bool {
        self.origin.is_reference() && !self.low_quality
    }
}

/// Work the replay did, per layer.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub basecall_calls: usize,
    pub basecall_samples: usize,
    pub qsr_rejects: usize,
    pub cmr_rejects: usize,
    /// Rejected reads that were truly low quality or contaminants.
    pub useful_rejects: usize,
    pub samples_offered: usize,
    pub minimizers: usize,
    pub anchors: usize,
    pub chain_evals: usize,
    pub finalize_calls: usize,
    pub dp_cells: usize,
    pub max_cells_per_read: usize,
    pub mapped: usize,
    pub fastq_records: usize,
}

impl LayerCounts {
    /// Adds the counts of another range of reads.
    fn merge(&mut self, o: &LayerCounts) {
        self.basecall_calls += o.basecall_calls;
        self.basecall_samples += o.basecall_samples;
        self.qsr_rejects += o.qsr_rejects;
        self.cmr_rejects += o.cmr_rejects;
        self.useful_rejects += o.useful_rejects;
        self.samples_offered += o.samples_offered;
        self.minimizers += o.minimizers;
        self.anchors += o.anchors;
        self.chain_evals += o.chain_evals;
        self.finalize_calls += o.finalize_calls;
        self.dp_cells += o.dp_cells;
        self.max_cells_per_read = self.max_cells_per_read.max(o.max_cells_per_read);
        self.mapped += o.mapped;
        self.fastq_records += o.fastq_records;
    }
}

/// Set-up costs of the replay's run context.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gsc_open_s: f64,
    pub index_build_s: f64,
    pub basecaller_s: f64,
}

/// Lane-batched decode of a sample of the workload's chunks.
#[derive(Debug, Clone, Copy)]
pub struct LaneTiming {
    pub width: usize,
    pub samples: usize,
    pub seconds: f64,
    /// Whether every lane-decoded chunk equals its scalar decode.
    pub identical: bool,
}

/// Everything one replay produced.
pub struct ReplayOutput {
    pub digests: Vec<ReadDigest>,
    pub truth: Vec<Truth>,
    pub counts: LayerCounts,
    pub setup: SetupTimes,
    /// Wall time of the per-read loop.
    pub wall_s: f64,
    /// Recorded spans (empty when untraced), timed from the loop's start.
    pub spans: Vec<Span>,
    pub gsc_file_bytes: u64,
    pub lane: Option<LaneTiming>,
    /// FASTQ files written, in read order.
    pub fastq_parts: Vec<PathBuf>,
}

/// One decoded chunk kept for the lane-decode timing: its samples, the
/// carry it was decoded from, and the scalar result to compare against.
struct KeptChunk {
    samples: Vec<f32>,
    carry: Option<CarryState>,
    scalar: BasecalledChunk,
}

/// The replay's immutable run context — what the engine builds per source.
struct Context {
    config: GenPipConfig,
    caller: Basecaller,
    refs: ReferenceSet,
    samples_per_chunk: usize,
}

/// The replay's working memory, reused across reads.
struct Scratch {
    call: CallScratch,
    seed: SeedScratch,
    batches: Vec<genpip_mapping::SeedBatch>,
    pairs: Vec<(IncrementalChainer, IncrementalChainer)>,
    kept: Vec<KeptChunk>,
    kept_samples: usize,
    keep_lane_chunks: bool,
    calls: usize,
}

/// Replays reads `reads` of the container at `gsc`. `fastq`, when given,
/// receives a FASTQ record per fully basecalled read (the workload must
/// keep bases). Tracing also keeps a sample of chunks and times their
/// lane-batched decode.
pub fn replay(
    gsc: &Path,
    workload: Workload,
    reads: Range<usize>,
    fastq: Option<PathBuf>,
    traced: bool,
) -> Result<ReplayOutput, String> {
    let mut setup = SetupTimes::default();

    let t = Instant::now();
    let mut source =
        GscReadSource::open_at(gsc, reads.start).map_err(|e| format!("open {gsc:?}: {e}"))?;
    setup.gsc_open_s = t.elapsed().as_secs_f64();
    let gsc_file_bytes = source.reader().file_bytes();

    let config = workload.config(1);
    let t = Instant::now();
    let caller = Basecaller::new(source.pore_model(), source.mean_dwell());
    setup.basecaller_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let genomes = vec![Arc::new(source.reference().clone())];
    let refs = ReferenceSet::build_shared(genomes, config.mapper);
    setup.index_build_s = t.elapsed().as_secs_f64();
    let ctx = Context {
        samples_per_chunk: config.samples_per_chunk(source.mean_dwell()),
        config,
        caller,
        refs,
    };

    let mut writer = match &fastq {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
            Some(FastqWriter::new(BufWriter::new(file)))
        }
        None => None,
    };
    let mut scratch = Scratch {
        call: CallScratch::new(),
        seed: SeedScratch::new(),
        batches: Vec::new(),
        pairs: ctx.refs.new_chainer_pairs(),
        kept: Vec::new(),
        kept_samples: 0,
        keep_lane_chunks: traced,
        calls: 0,
    };
    let mut counts = LayerCounts::default();
    let mut digests = Vec::new();
    let mut truth = Vec::new();

    let mut tracer = Tracer::new(traced);
    let loop_start = Instant::now();
    for ordinal in reads {
        let ordinal = u32::try_from(ordinal).expect("read index fits the read id type");
        tracer.enter(ROOT, "read", ordinal);
        tracer.enter("io", "gsc_read", ordinal);
        let read = source.next_read();
        tracer.exit();
        let Some(read) = read else {
            let why = source
                .status()
                .error()
                .unwrap_or_else(|| "early end".into());
            return Err(format!("container ended at read {ordinal}: {why}"));
        };
        tracer.tag_open(read.id);
        truth.push(Truth {
            origin: read.origin,
            low_quality: read.is_low_quality_truth(),
        });
        let (digest, bases) = replay_read(
            &ctx,
            read.id,
            &read.signal.samples,
            &mut scratch,
            &mut tracer,
        );
        if let (Some(w), Some((seq, quals))) = (writer.as_mut(), &bases) {
            tracer.enter("io", "fastq_write", read.id);
            let written = w.write_record(&format!("read{}", read.id), seq, quals);
            tracer.exit();
            written.map_err(|e| format!("fastq write: {e}"))?;
        }
        tracer.exit();
        count_read(&mut counts, &digest, truth.last().expect("pushed above"));
        digests.push(digest);
    }
    let wall_s = loop_start.elapsed().as_secs_f64();
    if let Some(e) = source.status().error() {
        return Err(format!("GSC decode failed mid-replay: {e}"));
    }
    counts.basecall_calls = scratch.calls;
    if let Some(w) = writer {
        counts.fastq_records = w.records();
        w.finish().map_err(|e| format!("fastq flush: {e}"))?;
    }

    let lane = traced.then(|| time_lane_decode(&ctx.caller, &scratch.kept));
    Ok(ReplayOutput {
        digests,
        truth,
        counts,
        setup,
        wall_s,
        spans: tracer.spans().to_vec(),
        gsc_file_bytes,
        lane,
        fastq_parts: fastq.into_iter().collect(),
    })
}

/// Replays every read of the container untraced, split into `threads`
/// contiguous ranges replayed concurrently (each with its own context), and
/// joins the results in read order. FASTQ goes to one part per range,
/// `fastq_part(i)`. The gate's fast path: same per-read results as
/// [`replay`], in a fraction of the wall time.
pub fn replay_parallel(
    gsc: &Path,
    workload: Workload,
    threads: usize,
    fastq_part: Option<&dyn Fn(usize) -> PathBuf>,
) -> Result<ReplayOutput, String> {
    let n = GscReader::open(gsc)
        .map_err(|e| format!("open {gsc:?}: {e}"))?
        .read_count();
    let threads = threads.clamp(1, n.max(1));
    let start = Instant::now();
    let parts: Vec<Result<ReplayOutput, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let reads = n * i / threads..n * (i + 1) / threads;
                let fastq = fastq_part.map(|f| f(i));
                scope.spawn(move || replay(gsc, workload, reads, fastq, false))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("at least one range")?;
    for part in parts {
        let part = part?;
        out.digests.extend(part.digests);
        out.truth.extend(part.truth);
        out.counts.merge(&part.counts);
        out.fastq_parts.extend(part.fastq_parts);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

fn count_read(counts: &mut LayerCounts, d: &ReadDigest, truth: &Truth) {
    counts.samples_offered += d.samples_offered;
    counts.basecall_samples += d.samples_decoded;
    counts.minimizers += d.minimizers;
    counts.anchors += d.anchors;
    counts.chain_evals += d.chain_evals;
    match d.kind {
        OutcomeKind::RejectedQsr => counts.qsr_rejects += 1,
        OutcomeKind::RejectedCmr => counts.cmr_rejects += 1,
        OutcomeKind::Mapped => counts.mapped += 1,
        _ => {}
    }
    if d.kind.is_early_rejected() && !truth.is_good() {
        counts.useful_rejects += 1;
    }
    if matches!(d.kind, OutcomeKind::Mapped | OutcomeKind::Unmapped) {
        counts.finalize_calls += 1;
        counts.dp_cells += d.dp_cells;
        counts.max_cells_per_read = counts.max_cells_per_read.max(d.dp_cells);
    }
}

/// Decodes chunk `idx` from `carry`, as the engine's `basecall_chunk` does.
#[allow(clippy::too_many_arguments)]
fn basecall(
    ctx: &Context,
    samples: &[f32],
    spec: genpip_signal::ChunkSpec,
    idx: usize,
    carry: Option<CarryState>,
    decoder: &mut ReadDecoder,
    called: &mut BTreeMap<usize, BasecalledChunk>,
    digest: &mut ReadDigest,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
) {
    decoder.resume_from(carry);
    let input = &samples[spec.start..spec.end];
    tracer.enter("basecall", "call_next", digest.id);
    let chunk = decoder.call_next(&ctx.caller, input, &mut scratch.call);
    tracer.exit();
    digest.samples_decoded += chunk.stats.samples;
    scratch.calls += 1;
    if scratch.keep_lane_chunks && scratch.kept_samples < LANE_SAMPLE_BUDGET {
        scratch.kept_samples += input.len();
        scratch.kept.push(KeptChunk {
            samples: input.to_vec(),
            carry,
            scalar: chunk.clone(),
        });
    }
    called.insert(idx, chunk);
}

fn best_pair_score(pairs: &[(IncrementalChainer, IncrementalChainer)]) -> f64 {
    pairs.iter().fold(0.0f64, |acc, (fwd, rev)| {
        acc.max(fwd.best_score()).max(rev.best_score())
    })
}

/// One read through the GenPIP flow with full early rejection. Returns the
/// read's digest and, for reads basecalled in full when the workload keeps
/// bases, the assembled sequence and qualities.
fn replay_read(
    ctx: &Context,
    id: u32,
    samples: &[f32],
    scratch: &mut Scratch,
    tracer: &mut Tracer,
) -> (ReadDigest, Option<(DnaSeq, Vec<Phred>)>) {
    let mut digest = ReadDigest {
        kind: OutcomeKind::FilteredQc,
        samples_offered: samples.len(),
        ..ReadDigest::failed(id)
    };
    tracer.enter("signal", "chunk_boundaries", id);
    let specs = chunk_boundaries(samples.len(), ctx.samples_per_chunk);
    tracer.exit();
    let total = specs.len();
    if total == 0 {
        digest.kind = OutcomeKind::RejectedQsr;
        return (digest, None);
    }
    let mut called: BTreeMap<usize, BasecalledChunk> = BTreeMap::new();
    let mut decoder = ReadDecoder::new();

    // QSR: basecall the evenly spaced sample chunks, then check quality.
    tracer.enter("early_reject", "qsr", id);
    let sample_idx = qsr_sample_indices(total, ctx.config.n_qs);
    for &idx in &sample_idx {
        basecall(
            ctx,
            samples,
            specs[idx],
            idx,
            None,
            &mut decoder,
            &mut called,
            &mut digest,
            scratch,
            tracer,
        );
    }
    let sampled: Vec<(f64, usize)> = sample_idx
        .iter()
        .map(|idx| (called[idx].sqs, called[idx].quals.len()))
        .collect();
    let decision = qsr_check(&sampled, ctx.config.theta_qs);
    tracer.exit();
    if decision.reject {
        digest.kind = OutcomeKind::RejectedQsr;
        return (digest, None);
    }

    // The sequential pass: every chunk is basecalled (or reused), seeded and
    // chained as it arrives; CMR checks the chain score after N_cm chunks.
    for (fwd, rev) in scratch.pairs.iter_mut() {
        fwd.reset();
        rev.reset();
    }
    let keep_bases = ctx.config.keep_bases;
    let mut seq = DnaSeq::new();
    let mut quals: Vec<Phred> = Vec::new();
    let mut aqs = AqsAccumulator::new();
    for idx in 0..total {
        if !called.contains_key(&idx) {
            let carry = if idx == 0 {
                None
            } else {
                called[&(idx - 1)].carry
            };
            basecall(
                ctx,
                samples,
                specs[idx],
                idx,
                carry,
                &mut decoder,
                &mut called,
                &mut digest,
                scratch,
                tracer,
            );
        }
        let chunk = &called[&idx];
        tracer.enter("mapping.seed", "sketch_and_seed_into", id);
        let n_mins = ctx.refs.sketch_and_seed_into(
            &chunk.bases,
            seq.len() as u64,
            &mut scratch.seed,
            &mut scratch.batches,
        );
        tracer.exit();
        tracer.enter("mapping.chain", "extend", id);
        for (batch, (fwd, rev)) in scratch.batches.iter().zip(scratch.pairs.iter_mut()) {
            let evals_before = fwd.dp_evaluations() + rev.dp_evaluations();
            fwd.extend(&batch.forward);
            rev.extend(&batch.reverse);
            digest.chain_evals += fwd.dp_evaluations() + rev.dp_evaluations() - evals_before;
            digest.anchors += batch.hits;
        }
        tracer.exit();
        digest.minimizers += n_mins;
        aqs.add_chunk_sum(chunk.sqs, chunk.quals.len());
        if keep_bases {
            quals.extend_from_slice(&chunk.quals);
        }
        seq.extend_from_seq(&chunk.bases);

        if idx + 1 == ctx.config.n_cm && total > ctx.config.n_cm {
            tracer.enter("early_reject", "cmr_check", id);
            let decision = cmr_check(best_pair_score(&scratch.pairs), ctx.config.theta_cm);
            tracer.exit();
            if decision.reject {
                digest.kind = OutcomeKind::RejectedCmr;
                return (digest, None);
            }
        }
    }

    digest.has_bases = keep_bases;
    tracer.enter("quality", "aqs_average", id);
    let full_aqs = aqs.average();
    tracer.exit();
    if full_aqs >= ctx.config.theta_qs {
        tracer.enter("mapping.finalize", "finalize_mapping", id);
        let (_, mapping, _, cells) = ctx.refs.finalize_mapping(&seq, &scratch.pairs);
        tracer.exit();
        digest.dp_cells = cells;
        digest.kind = match &mapping {
            Some(_) => OutcomeKind::Mapped,
            None => OutcomeKind::Unmapped,
        };
        digest.placement = mapping.map(|m| Placement {
            ref_start: m.ref_start,
            ref_end: m.ref_end,
            strand: m.strand,
            cigar: m.cigar,
            identity: m.identity,
        });
    }
    (digest, keep_bases.then_some((seq, quals)))
}

/// Times `LaneDecoder::call_batch` at the `Lanes::Auto` width over the kept
/// chunks, in batches of one width each, and checks every lane result
/// against its scalar decode.
fn time_lane_decode(caller: &Basecaller, kept: &[KeptChunk]) -> LaneTiming {
    let width = Lanes::Auto.width();
    let decoder = LaneDecoder::new(width);
    let mut lane_scratch = LaneScratch::new();
    let mut out = Vec::new();
    let mut identical = true;
    let mut seconds = 0.0;
    for batch in kept.chunks(width) {
        let jobs: Vec<ChunkJob> = batch
            .iter()
            .map(|k| ChunkJob {
                samples: &k.samples,
                carry: k.carry,
            })
            .collect();
        let t = Instant::now();
        decoder.call_batch(caller, &jobs, &mut lane_scratch, &mut out);
        seconds += t.elapsed().as_secs_f64();
        identical &= out.len() == batch.len() && out.iter().zip(batch).all(|(o, k)| *o == k.scalar);
    }
    LaneTiming {
        width,
        samples: kept.iter().map(|k| k.samples.len()).sum(),
        seconds,
        identical,
    }
}
