//! The `genpip` command-line tool.
//!
//! ```text
//! genpip simulate --profile ecoli --scale 0.05 --out run1
//! genpip map --reference run1.fasta --reads run1.fastq --paf run1.paf
//! genpip run --profile ecoli --scale 0.1 --er full
//! genpip experiment fig10 --scale 0.2
//! ```
//!
//! Subcommands:
//!
//! * `simulate` — generate a synthetic dataset, basecall it, and write the
//!   reference (FASTA) plus basecalled reads (FASTQ);
//! * `map` — map a FASTQ of reads against a FASTA reference, printing (or
//!   writing) PAF records;
//! * `run` — execute the full GenPIP pipeline on a synthetic dataset and
//!   print the outcome/workload summary;
//! * `stream` — the same pipeline executed by the `Session` engine: one
//!   bounded-memory worker pool serving one or many read sources (repeated
//!   `--source` specs) under a `--schedule` policy, with per-source
//!   progress and summaries. The datasets are never materialized, and at
//!   most `--queue` + workers reads are in memory across all sources;
//! * `serve` — a *live* session driven by a script: sources attach and
//!   detach while the session runs, exercising the control plane
//!   (`SessionControl::attach`/`detach`/`drain`) without a network
//!   listener. Script steps fire after a given number of emitted reads;
//!   `attach NAME file=PATH` replays an on-disk GSC container;
//! * `pack` — export a simulated dataset into an on-disk GSC raw-signal
//!   container, optionally verifying the round-trip bit-for-bit;
//! * `inspect` — dump a GSC container's header, layout, and (optionally)
//!   per-read records, verifying checksums on request;
//! * `experiment` — regenerate one of the paper's figures/tables.

use genpip::core::engine::{
    AttachSpec, Flow, PendingAttach, PendingDetach, Session, SessionControl,
};
use genpip::core::experiments;
use genpip::core::pipeline::{ErMode, PipelineRun, ReadOutcome};
use genpip::core::scheduler::Schedule;
use genpip::core::stream::{FastqSink, StreamEvent, StreamOptions};
use genpip::core::{FaultPolicy, GenPipConfig, Lanes, Parallelism};
use genpip::datasets::{DatasetProfile, FaultInjector, ReadSource, StreamingSimulator};
use genpip::genomics::fastx;
use genpip::genomics::{Genome, GenomeBuilder};
use genpip::io::{
    pack_source, CheckpointFile, FastqMark, GscReadSource, GscReader, GscStatus, SourceMark,
};
use genpip::mapping::paf::{write_paf, PafRecord};
use genpip::mapping::{MapperParams, ReferenceSet, Shards};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, SeekFrom};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "simulate" => cmd_simulate(&opts),
        "map" => cmd_map(&opts),
        "run" => cmd_run(&opts),
        "stream" => cmd_stream(&opts),
        "serve" => cmd_serve(&opts),
        "pack" => cmd_pack(&opts),
        "inspect" => cmd_inspect(&opts),
        "experiment" => cmd_experiment(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "genpip — in-memory genome analysis (GenPIP reproduction)

USAGE:
  genpip simulate --profile <ecoli|human> [--scale F] --out <prefix>
  genpip map --reference <ref.fasta>... --reads <reads.fastq> [--paf <out.paf>]
             [--shards <single|auto|N>]
  genpip run [--profile <ecoli|human>] [--scale F] [--er <full|qsr|cp|off>]
             [--shards <single|auto|N>] [--lanes <auto|N>]
             [--on-fault <fail|quarantine|retry[:N]>]
             [--reference SPEC]...
  genpip stream [--profile <ecoli|human>] [--scale F] [--er <full|qsr|cp|off>]
               [--source SPEC]... [--signal-in SPEC]...
               [--schedule <fair|sequential|priority>]
               [--queue N] [--progress N] [--threads <serial|auto|N>]
               [--shards <single|auto|N>] [--lanes <auto|N>]
               [--fastq-out PATH]
               [--on-fault <fail|quarantine|retry[:N]>] [--inject-faults RATE]
               [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
               [--drain-after N]
  genpip pack [--profile <ecoli|human>] [--scale F] --out <file.gsc> [--verify]
  genpip inspect <file.gsc> [--reads N] [--verify]
  genpip serve --script <FILE> [--er <full|qsr|cp|off>]
               [--schedule <fair|sequential|priority|deadline>]
               [--queue N] [--threads <serial|auto|N>] [--shards <single|auto|N>]
               [--lanes <auto|N>] [--max-sources N]
  genpip experiment <fig04|fig07|fig10|fig11|fig12|fig13|tab01|tab02|useless|ablations> [--scale F]

OPTIONS:
  --profile   dataset profile (default ecoli)
  --scale     dataset scale factor in (0,1] (default 0.1 for simulate/run/stream, 1.0 for experiment)
  --er        early-rejection mode for `run`/`stream` (default full)
  --out       output file prefix for `simulate`
  --paf       PAF output path for `map` (default: stdout)
  --reference for `map`: a reference FASTA, repeatable — several files form
              a pan-genome panel; each read maps against every reference and
              the deterministic best hit (chain score, then reference name,
              then position) names its reference in the PAF target column.
              For `run`: an extra synthetic reference mapped alongside the
              profile's own, repeatable. SPEC is comma-joined key=value
              pairs: len=N (required), name=ID (default refN), seed=S
  --source    one read source for `stream`, repeatable. SPEC is comma-joined
              key=value pairs: profile=<ecoli|human> (required),
              scale=F (default: --scale), name=ID (default: profileN),
              weight=N (priority schedule share, default 1).
              Without --source, one source is built from --profile/--scale.
  --signal-in one on-disk GSC signal container streamed as a read source,
              repeatable (after every --source). SPEC is a path followed by
              optional comma-joined key=value pairs:
              PATH[,name=ID][,offset=K][,weight=N]. offset=K starts the
              replay at read index K; output is bit-identical to streaming
              the same dataset from memory
  --checkpoint
              `stream` writes a resumable checkpoint to PATH (atomically,
              via rename) every --checkpoint-every reads and once more when
              the session finishes. Checkpoints record per-source read
              offsets and, with --fastq-out, the flushed FASTQ byte
              position of every output file
  --checkpoint-every
              checkpoint cadence in emitted reads (default 25)
  --resume    restart a `stream` run from a checkpoint written by
              --checkpoint. Sources must be --signal-in containers (file
              sources are seekable; simulated ones are not); FASTQ outputs
              are truncated to the recorded byte position and appended to,
              so the resumed file is byte-identical to an uninterrupted run
  --drain-after
              drain the session (stop intake, finish in-flight reads) once
              N reads have been emitted — a deterministic stand-in for an
              interrupted run when testing --checkpoint/--resume
  --schedule  how `stream` interleaves its sources over the one worker
              pool: fair (round-robin, default), sequential (drain in
              registration order), priority (weighted by each source's
              weight=)
  --queue     `stream` work-queue capacity; resident read chains across
              all sources <= queue + workers (default 8)
  --fastq-out write every fully-basecalled read as FASTQ. One source
              writes PATH verbatim; N sources write PATH.<name> each
  --progress  `stream` per-source progress line cadence in reads (default 50, 0 = off)
  --threads   `stream` worker threads (default: GENPIP_PARALLELISM env or auto)
  --shards    reference-index shard count for `map`/`run`/`stream`; results
              are bit-identical for every setting (default single)
  --lanes     Viterbi lane-batch width for `run`/`stream`/`serve`: how many
              queued chunks a worker gathers into one decode batch.
              auto picks the default width; N >= 1 fixes it (1 = no
              batching, widths above the maximum of 16 clamp); 0 is an
              error. Results are bit-identical for every setting.
              Default: GENPIP_LANES env, then auto
  --on-fault  what a faulting read does to the run (default fail):
              fail aborts the process, quarantine contains the read and
              keeps going, retry[:N] re-runs the read up to N times
              (default 2) before quarantining. Exit code is nonzero when
              reads failed unless quarantine was requested explicitly
  --inject-faults
              corrupt this fraction of reads in every `stream` source
              (deterministic, seeded) — a fault-tolerance testing aid.
              Implies quarantine when --on-fault is not given
  --out       for `pack`: the GSC container path to write
  --verify    for `pack`: re-open the container after writing, check every
              checksum, and compare each decoded read bit-for-bit against a
              fresh simulation of the profile. For `inspect`: check every
              record checksum
  --reads     for `inspect`: also dump the first N per-read records
  --script    `serve` driver script, one step per line (# starts a comment):
                attach NAME profile=<ecoli|human>[,scale=F][,weight=N][,target=T]
                attach NAME file=PATH[,offset=K][,weight=N][,target=T]
                at COUNT attach NAME profile=...|file=...
                at COUNT detach NAME
                at COUNT drain
              Steps without `at` register before the run; `at COUNT` steps
              fire through the live control plane once COUNT reads have
              been emitted across all sources. target= is the source's
              deadline-schedule residency goal in chunk-work units
  --max-sources
              `serve` admission bound: a live attach beyond this many
              concurrently-attached sources is refused (default 64)";

/// Parsed command line: repeatable options keep every occurrence in order
/// (`--source` is the only multi-valued one today); single-valued lookups
/// take the last occurrence.
type Options = HashMap<String, Vec<String>>;

/// Options that are bare flags: present or absent, never consuming a value.
const FLAG_OPTIONS: &[&str] = &["verify"];

fn parse_options(args: &[String]) -> Result<(Options, Vec<String>), String> {
    let mut opts: Options = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            let value = if FLAG_OPTIONS.contains(&key) {
                "true".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("option --{key} needs a value"))?
                    .clone()
            };
            opts.entry(key.to_string()).or_default().push(value);
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((opts, positional))
}

type Parsed = (Options, Vec<String>);

/// The last value given for a single-valued option.
fn opt<'a>(parsed: &'a Parsed, key: &str) -> Option<&'a str> {
    parsed
        .0
        .get(key)
        .and_then(|vals| vals.last())
        .map(String::as_str)
}

/// Every value given for a repeatable option, in order.
fn opt_all<'a>(parsed: &'a Parsed, key: &str) -> &'a [String] {
    parsed.0.get(key).map(Vec::as_slice).unwrap_or(&[])
}

fn profile_by_name(name: &str) -> Result<DatasetProfile, String> {
    match name {
        "ecoli" => Ok(DatasetProfile::ecoli()),
        "human" => Ok(DatasetProfile::human()),
        other => Err(format!("unknown profile {other:?} (use ecoli or human)")),
    }
}

fn profile_from(parsed: &Parsed) -> Result<DatasetProfile, String> {
    let profile = profile_by_name(opt(parsed, "profile").unwrap_or("ecoli"))?;
    Ok(profile.scaled(scale_from(parsed, 0.1)?))
}

fn parse_scale(s: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("invalid scale {s:?}"))?;
    if v > 0.0 && v <= 1.0 {
        Ok(v)
    } else {
        Err("scale must be in (0, 1]".into())
    }
}

fn scale_from(parsed: &Parsed, default: f64) -> Result<f64, String> {
    match opt(parsed, "scale") {
        None => Ok(default),
        Some(s) => parse_scale(s).map_err(|e| format!("--scale: {e}")),
    }
}

fn cmd_simulate(parsed: &Parsed) -> Result<(), String> {
    let profile = profile_from(parsed)?;
    let prefix = opt(parsed, "out").ok_or("simulate needs --out <prefix>")?;
    println!(
        "simulating {} ({} reads, {} bp genome)…",
        profile.name, profile.n_reads, profile.genome_len
    );
    let dataset = profile.generate();
    let reads = experiments::tab01::basecall_dataset(&dataset);

    let fasta_path = format!("{prefix}.fasta");
    let fastq_path = format!("{prefix}.fastq");
    let fasta = File::create(&fasta_path).map_err(|e| e.to_string())?;
    fastx::write_fasta(BufWriter::new(fasta), &dataset.reference).map_err(|e| e.to_string())?;
    let fastq = File::create(&fastq_path).map_err(|e| e.to_string())?;
    fastx::write_fastq(BufWriter::new(fastq), &reads).map_err(|e| e.to_string())?;
    println!(
        "wrote {fasta_path} (reference) and {fastq_path} ({} basecalled reads)",
        reads.len()
    );
    Ok(())
}

fn cmd_pack(parsed: &Parsed) -> Result<(), String> {
    let profile = profile_from(parsed)?;
    let out = opt(parsed, "out").ok_or("pack needs --out <file.gsc>")?;
    println!(
        "packing {} ({} reads, {} bp genome) into {out}…",
        profile.name, profile.n_reads, profile.genome_len
    );
    let mut source = StreamingSimulator::new(&profile);
    let summary = pack_source(out, &mut source).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {} reads, {} record bytes ({} file bytes)",
        summary.reads, summary.data_bytes, summary.file_bytes
    );
    if opt(parsed, "verify").is_some() {
        let mut reader = GscReader::open(out).map_err(|e| format!("{out}: {e}"))?;
        let checked = reader
            .verify()
            .map_err(|e| format!("{out}: verification failed: {e}"))?;
        reader
            .seek_to(0)
            .map_err(|e| format!("{out}: verification failed: {e}"))?;
        let mut fresh = StreamingSimulator::new(&profile);
        let mut index = 0usize;
        loop {
            let stored = reader
                .next_record()
                .map_err(|e| format!("{out}: verification failed: {e}"))?;
            let simulated = fresh.next_read();
            match (stored, simulated) {
                (None, None) => break,
                (Some(stored), Some(simulated)) if stored == simulated => index += 1,
                _ => {
                    return Err(format!(
                        "{out}: verification failed: read {index} does not round-trip \
                         bit-identically"
                    ))
                }
            }
        }
        println!("verified: {checked} reads round-trip bit-identically");
    }
    Ok(())
}

fn cmd_inspect(parsed: &Parsed) -> Result<(), String> {
    let path = parsed
        .1
        .first()
        .ok_or("inspect needs a container path (genpip inspect <file.gsc>)")?;
    let mut reader = GscReader::open(path).map_err(|e| format!("{path}: {e}"))?;
    let model = reader.pore_model();
    println!("container:  {path}");
    println!(
        "reference:  {} ({} bp, 2-bit packed)",
        reader.reference().name(),
        reader.reference().len()
    );
    println!(
        "pore model: k={} ({} levels), event σ {:.4}, mean dwell {:.3} samples/base",
        model.k(),
        model.states(),
        model.event_std(),
        reader.mean_dwell()
    );
    println!(
        "layout:     {} header bytes, {} record bytes, {} file bytes",
        reader.header_bytes(),
        reader.data_bytes(),
        reader.file_bytes()
    );
    let offsets = reader.offsets();
    match (offsets.first(), offsets.last()) {
        (Some(first), Some(last)) => println!(
            "records:    {} (offset table spans {first}..{last})",
            reader.read_count()
        ),
        _ => println!("records:    0"),
    }
    let dump: usize = match opt(parsed, "reads") {
        None => 0,
        Some(s) => s.parse().map_err(|_| format!("invalid --reads {s:?}"))?,
    };
    for index in 0..dump.min(reader.read_count()) {
        let read = reader
            .read_at(index)
            .map_err(|e| format!("{path}: read {index}: {e}"))?;
        println!(
            "  read {:>4}  id {:>5}  {:>7} samples  {:>6} bases  {:?}",
            index,
            read.id,
            read.signal.samples.len(),
            read.signal.truth.len(),
            read.origin,
        );
    }
    if opt(parsed, "verify").is_some() {
        let checked = reader
            .verify()
            .map_err(|e| format!("{path}: verification failed: {e}"))?;
        println!("verified:   {checked} record checksums OK");
    }
    Ok(())
}

fn cmd_map(parsed: &Parsed) -> Result<(), String> {
    let reference_paths = opt_all(parsed, "reference");
    if reference_paths.is_empty() {
        return Err("map needs --reference (repeat the flag for a pan-genome panel)".into());
    }
    let reads_path = opt(parsed, "reads").ok_or("map needs --reads")?;
    let mut genomes = Vec::with_capacity(reference_paths.len());
    for path in reference_paths {
        let genome = fastx::read_fasta(BufReader::new(
            File::open(path).map_err(|e| format!("{path}: {e}"))?,
        ))
        .map_err(|e| e.to_string())?;
        if genomes.iter().any(|g: &Genome| g.name() == genome.name()) {
            return Err(format!(
                "duplicate reference name {:?} (from {path}); every --reference \
                 needs a unique FASTA header",
                genome.name()
            ));
        }
        genomes.push(genome);
    }
    let reads = fastx::read_fastq(BufReader::new(
        File::open(reads_path).map_err(|e| format!("{reads_path}: {e}"))?,
    ))
    .map_err(|e| e.to_string())?;
    let shards = shards_from(parsed)?;
    let params = MapperParams {
        shards,
        ..MapperParams::default()
    };
    let set = ReferenceSet::build(&genomes, params);
    for (name, mapper) in set.names().iter().zip(set.mappers()) {
        eprintln!(
            "indexed {name}: {} shard(s), {} entries (largest shard {})",
            mapper.index().shard_count(),
            mapper.index().total_entries(),
            mapper.index().max_shard_entries()
        );
    }

    let mut records = Vec::new();
    let mut unmapped = 0usize;
    for read in &reads {
        match set.map(&read.seq).best {
            Some(m) => records.push(PafRecord::from_set_mapping(
                format!("read{}", read.id),
                read.len(),
                &set,
                &m,
            )),
            None => unmapped += 1,
        }
    }
    match opt(parsed, "paf") {
        Some(path) => {
            let f = File::create(path).map_err(|e| e.to_string())?;
            write_paf(BufWriter::new(f), &records).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {} records to {path} ({unmapped} unmapped)",
                records.len()
            );
        }
        None => {
            write_paf(std::io::stdout().lock(), &records).map_err(|e| e.to_string())?;
            eprintln!("{} mapped, {unmapped} unmapped", records.len());
        }
    }
    Ok(())
}

fn shards_from(parsed: &Parsed) -> Result<Shards, String> {
    match opt(parsed, "shards") {
        None => Ok(Shards::Single),
        Some(s) => Shards::parse(s).ok_or_else(|| format!("invalid --shards {s:?}")),
    }
}

/// `--lanes`: the Viterbi lane-batch width for `run`/`stream`/`serve`.
/// Defaults to the `GENPIP_LANES` environment variable, then auto. `0` and
/// unparsable widths are user errors (exit nonzero), not silent clamps —
/// only widths above the lane maximum clamp.
fn lanes_from(parsed: &Parsed) -> Result<Lanes, String> {
    match opt(parsed, "lanes") {
        None => Ok(Lanes::from_env_or(Lanes::Auto)),
        Some(s) => Lanes::parse(s)
            .ok_or_else(|| format!("invalid --lanes {s:?} (use auto or a width ≥ 1)")),
    }
}

/// `--on-fault`: the policy, plus whether the user asked for it explicitly
/// (an explicit quarantine/retry request means quarantined reads are an
/// expected outcome, not a failure exit).
fn fault_policy_from(parsed: &Parsed) -> Result<(FaultPolicy, bool), String> {
    match opt(parsed, "on-fault") {
        None => Ok((FaultPolicy::default(), false)),
        Some(s) => FaultPolicy::parse(s)
            .map(|p| (p, true))
            .ok_or_else(|| format!("invalid --on-fault {s:?} (use fail, quarantine, retry[:N])")),
    }
}

/// Nonzero-exit rule shared by `run` and `stream`: failed reads fail the
/// invocation unless containment was explicitly requested.
fn fault_exit(failed: usize, explicit_containment: bool) -> Result<(), String> {
    if failed > 0 && !explicit_containment {
        Err(format!(
            "{failed} read(s) failed (rerun with --on-fault quarantine to accept quarantined reads)"
        ))
    } else {
        Ok(())
    }
}

fn er_from(parsed: &Parsed) -> Result<ErMode, String> {
    match opt(parsed, "er").unwrap_or("full") {
        "full" => Ok(ErMode::Full),
        "qsr" => Ok(ErMode::QsrOnly),
        "cp" | "off" | "none" => Ok(ErMode::None),
        other => Err(format!("unknown --er {other:?}")),
    }
}

/// One `run` `--reference` spec, parsed into a synthetic extra reference:
/// `name=ID,len=N[,seed=S]`. Every spec becomes one additional pan-genome
/// reference mapped alongside the profile's own.
fn parse_reference_spec(spec: &str, index: usize) -> Result<Arc<Genome>, String> {
    let mut name = None;
    let mut len = None;
    let mut seed = None;
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--reference part {part:?} is not key=value (in {spec:?})"))?;
        match key {
            "name" => name = Some(value.to_string()),
            "len" => {
                len = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("--reference {spec:?}: invalid len {value:?}"))?,
                )
            }
            "seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--reference {spec:?}: invalid seed {value:?}"))?,
                )
            }
            other => {
                return Err(format!(
                    "--reference {spec:?}: unknown key {other:?} (use name, len, seed)"
                ))
            }
        }
    }
    let len = len.ok_or_else(|| format!("--reference {spec:?} needs len="))?;
    if len == 0 {
        return Err(format!("--reference {spec:?}: len must be positive"));
    }
    Ok(Arc::new(
        GenomeBuilder::new(len)
            .seed(seed.unwrap_or(1_000 + index as u64))
            .name(name.unwrap_or_else(|| format!("ref{index}")))
            .build(),
    ))
}

fn extra_references_from(parsed: &Parsed) -> Result<Vec<Arc<Genome>>, String> {
    opt_all(parsed, "reference")
        .iter()
        .enumerate()
        .map(|(i, spec)| parse_reference_spec(spec, i))
        .collect()
}

fn cmd_run(parsed: &Parsed) -> Result<(), String> {
    let profile = profile_from(parsed)?;
    let er = er_from(parsed)?;
    let shards = shards_from(parsed)?;
    let (fault_policy, explicit_fault) = fault_policy_from(parsed)?;
    let lanes = lanes_from(parsed)?;
    let extra_references = extra_references_from(parsed)?;
    println!(
        "running GenPIP ({:?}) on {} ({} index shard(s))…",
        er,
        profile.name,
        shards.resolve(profile.genome_len)
    );
    if !extra_references.is_empty() {
        let names: Vec<&str> = extra_references.iter().map(|g| g.name()).collect();
        println!(
            "pan-genome: mapping against {} + {}",
            profile.name,
            names.join(" + ")
        );
    }
    let dataset = profile.generate();
    let config = GenPipConfig::for_dataset(&profile)
        .with_shards(shards)
        .with_lanes(lanes)
        .with_fault_policy(fault_policy)
        .with_extra_references(extra_references);
    let mut reads = Vec::new();
    Session::new(config.clone())
        .flow(Flow::GenPip(er))
        .source(profile.name, dataset.stream())
        .sink(profile.name, |event| {
            if let StreamEvent::Read(run) = event {
                reads.push(run);
            }
        })
        .run()
        .map_err(|e| e.to_string())?;
    let run = PipelineRun {
        config: Arc::new(config),
        er,
        chunked: true,
        reads,
    };
    let totals = run.totals();
    let count = |pred: fn(&ReadOutcome) -> bool| run.count_outcomes(pred);
    println!("reads:          {}", run.reads.len());
    println!(
        "mapped:         {}",
        count(|o| matches!(o, ReadOutcome::Mapped(_)))
    );
    println!(
        "QSR-rejected:   {}",
        count(|o| matches!(o, ReadOutcome::RejectedQsr { .. }))
    );
    println!(
        "CMR-rejected:   {}",
        count(|o| matches!(o, ReadOutcome::RejectedCmr { .. }))
    );
    println!(
        "QC-filtered:    {}",
        count(|o| matches!(o, ReadOutcome::FilteredQc { .. }))
    );
    println!(
        "unmapped:       {}",
        count(|o| matches!(o, ReadOutcome::Unmapped { .. }))
    );
    println!(
        "basecalled:     {} of {} samples ({:.1}% saved)",
        totals.samples,
        dataset.total_samples(),
        100.0 * (1.0 - totals.samples as f64 / dataset.total_samples() as f64)
    );
    // Under a containing policy, quarantined reads never reach `run.reads`.
    let failed = dataset.reads.len() - run.reads.len();
    if failed > 0 {
        println!("failed:         {failed} (quarantined)");
    }
    fault_exit(failed, explicit_fault && fault_policy != FaultPolicy::Fail)
}

/// Where a `stream` source's reads come from.
enum SourceKind {
    /// Simulated on the fly from a dataset profile (`--source`).
    Simulated(DatasetProfile),
    /// Replayed from an on-disk GSC signal container (`--signal-in`),
    /// starting at read index `offset`.
    Container { path: String, offset: usize },
}

/// One `--source` spec (`profile=<ecoli|human>[,scale=F][,name=ID]
/// [,weight=N]`) or `--signal-in` spec (`PATH[,name=ID][,offset=K]
/// [,weight=N]`), parsed.
struct SourceSpec {
    name: String,
    kind: SourceKind,
    weight: u32,
}

fn parse_source_spec(spec: &str, index: usize, default_scale: f64) -> Result<SourceSpec, String> {
    let mut profile_name = None;
    let mut scale = default_scale;
    let mut name = None;
    let mut weight = 1u32;
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--source part {part:?} is not key=value (in {spec:?})"))?;
        match key {
            "profile" => profile_name = Some(value),
            "scale" => scale = parse_scale(value).map_err(|e| format!("--source {spec:?}: {e}"))?,
            "name" => name = Some(value.to_string()),
            "weight" => {
                weight = value
                    .parse()
                    .map_err(|_| format!("--source {spec:?}: invalid weight {value:?}"))?
            }
            other => {
                return Err(format!(
                    "--source {spec:?}: unknown key {other:?} \
                     (use profile, scale, name, weight)"
                ))
            }
        }
    }
    let profile_name = profile_name.ok_or_else(|| format!("--source {spec:?} needs profile="))?;
    let profile = profile_by_name(profile_name)?.scaled(scale);
    Ok(SourceSpec {
        name: name.unwrap_or_else(|| format!("{profile_name}{index}")),
        kind: SourceKind::Simulated(profile),
        weight,
    })
}

/// One `--signal-in` spec: a GSC container path, then optional comma-joined
/// `name=`/`offset=`/`weight=` pairs. The default name is the file stem.
fn parse_signal_spec(spec: &str, index: usize) -> Result<SourceSpec, String> {
    let mut parts = spec.split(',');
    let path = parts
        .next()
        .filter(|p| !p.is_empty() && !p.contains('='))
        .ok_or_else(|| format!("--signal-in {spec:?} must start with a container path"))?;
    let mut name = None;
    let mut offset = 0usize;
    let mut weight = 1u32;
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--signal-in part {part:?} is not key=value (in {spec:?})"))?;
        match key {
            "name" => name = Some(value.to_string()),
            "offset" => {
                offset = value
                    .parse()
                    .map_err(|_| format!("--signal-in {spec:?}: invalid offset {value:?}"))?
            }
            "weight" => {
                weight = value
                    .parse()
                    .map_err(|_| format!("--signal-in {spec:?}: invalid weight {value:?}"))?
            }
            other => {
                return Err(format!(
                    "--signal-in {spec:?}: unknown key {other:?} \
                     (use name, offset, weight)"
                ))
            }
        }
    }
    let name = name.unwrap_or_else(|| {
        std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
            .unwrap_or_else(|| format!("gsc{index}"))
    });
    Ok(SourceSpec {
        name,
        kind: SourceKind::Container {
            path: path.to_string(),
            offset,
        },
        weight,
    })
}

fn schedule_from(parsed: &Parsed, weights: Vec<u32>) -> Result<Schedule, String> {
    let spelled = opt(parsed, "schedule").unwrap_or("fair");
    match Schedule::parse(spelled) {
        Some(Schedule::Priority(_)) => Ok(Schedule::Priority(weights)),
        Some(schedule) => Ok(schedule),
        None => Err(format!(
            "invalid --schedule {spelled:?} (use fair, sequential, or priority)"
        )),
    }
}

fn cmd_stream(parsed: &Parsed) -> Result<(), String> {
    let er = er_from(parsed)?;
    let usize_opt = |key: &str, default: usize| -> Result<usize, String> {
        match opt(parsed, key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("invalid --{key} {s:?}")),
        }
    };
    let queue = usize_opt("queue", 8)?.max(1);
    let progress = usize_opt("progress", 50)?;
    let shards = shards_from(parsed)?;
    let lanes = lanes_from(parsed)?;
    let (mut fault_policy, explicit_fault) = fault_policy_from(parsed)?;
    let inject_rate = match opt(parsed, "inject-faults") {
        None => 0.0,
        Some(s) => {
            let rate: f64 = s
                .parse()
                .map_err(|_| format!("invalid --inject-faults {s:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err("--inject-faults must be in [0, 1]".into());
            }
            rate
        }
    };
    // Injected faults with the default Fail policy would tear the session
    // down with a panic. Quarantine instead so the run completes and prints
    // its per-source fault summary — but still exit nonzero, because the
    // containment was not explicitly requested (see `fault_exit`).
    if inject_rate > 0.0 && !explicit_fault {
        fault_policy = FaultPolicy::Quarantine;
    }
    let parallelism = match opt(parsed, "threads") {
        None => Parallelism::from_env_or(Parallelism::Auto),
        Some(s) => Parallelism::parse(s).ok_or_else(|| format!("invalid --threads {s:?}"))?,
    };

    // Sources: repeated --source (simulated) and --signal-in (on-disk GSC
    // container) specs, or a single simulated one synthesized from
    // --profile/--scale for the classic one-run invocation.
    let default_scale = scale_from(parsed, 0.1)?;
    let mut specs: Vec<SourceSpec> = opt_all(parsed, "source")
        .iter()
        .enumerate()
        .map(|(i, spec)| parse_source_spec(spec, i, default_scale))
        .collect::<Result<_, _>>()?;
    let n_sim = specs.len();
    for (i, spec) in opt_all(parsed, "signal-in").iter().enumerate() {
        specs.push(parse_signal_spec(spec, n_sim + i)?);
    }
    if specs.is_empty() {
        let profile = profile_from(parsed)?;
        specs.push(SourceSpec {
            name: profile.name.to_string(),
            kind: SourceKind::Simulated(profile),
            weight: 1,
        });
    }
    // Session::run would reject duplicates too, but catching them here
    // keeps the error ahead of the session banner.
    for (i, spec) in specs.iter().enumerate() {
        if specs[..i].iter().any(|other| other.name == spec.name) {
            return Err(format!("duplicate source name {:?}", spec.name));
        }
    }
    let schedule = schedule_from(parsed, specs.iter().map(|s| s.weight).collect())?;

    // Checkpoint/resume plumbing. A checkpoint records, per source, how
    // many reads were delivered in order (the index to reseek a container
    // to) and, with --fastq-out, the flushed byte size of every output
    // file (the length to truncate back to before appending).
    let checkpoint_path = opt(parsed, "checkpoint").map(str::to_string);
    let checkpoint_every = usize_opt("checkpoint-every", 25)?.max(1);
    let drain_after = match opt(parsed, "drain-after") {
        None => None,
        Some(s) => Some(
            s.parse::<usize>()
                .map_err(|_| format!("invalid --drain-after {s:?}"))?,
        ),
    };
    let resume = match opt(parsed, "resume") {
        None => None,
        Some(path) => {
            let file = CheckpointFile::load(path).map_err(|e| format!("{path}: {e}"))?;
            // `complete` marks a finalized cut (the prior session wound
            // down cleanly, e.g. after a drain); a mid-run cut means the
            // run was killed between checkpoints. Both resume the same way.
            println!(
                "resuming from {path} ({} cut)",
                if file.complete {
                    "finalized"
                } else {
                    "mid-run"
                }
            );
            Some(file)
        }
    };
    if resume.is_some()
        && specs
            .iter()
            .any(|s| matches!(s.kind, SourceKind::Simulated(_)))
    {
        return Err("--resume needs every source to be a seekable --signal-in container".into());
    }
    // What each source already delivered before this process started.
    let mut base_marks: Vec<(u64, u64)> = Vec::with_capacity(specs.len());
    for spec in &specs {
        match &resume {
            None => base_marks.push((0, 0)),
            Some(ckpt) => {
                let mark = ckpt
                    .source(&spec.name)
                    .ok_or_else(|| format!("checkpoint has no entry for source {:?}", spec.name))?;
                base_marks.push((mark.emitted, mark.failed));
            }
        }
    }
    let base_retried: u64 = resume.as_ref().map(|c| c.retried).unwrap_or(0);

    let fastq_out = opt(parsed, "fastq-out").map(str::to_string);
    // Every source runs its own operating point (N_qs, N_cm follow its
    // profile, or a container's embedded reference name) via a per-source
    // config; the session-wide config (first source's) only contributes
    // transport-level knobs like parallelism.
    let keep_bases = fastq_out.is_some();
    let source_config = |base: GenPipConfig| {
        base.with_parallelism(parallelism)
            .with_shards(shards)
            .with_lanes(lanes)
            .with_keep_bases(keep_bases)
            .with_fault_policy(fault_policy)
    };
    // Open container sources up front: the session needs the handles, the
    // embedded reference name picks each one's operating point, and a bad
    // file should fail the invocation before the session banner.
    enum SourceInput {
        Sim(DatasetProfile),
        File(GscReadSource),
    }
    let mut inputs: Vec<SourceInput> = Vec::with_capacity(specs.len());
    let mut configs: Vec<GenPipConfig> = Vec::with_capacity(specs.len());
    let mut expected: Vec<usize> = Vec::with_capacity(specs.len());
    let mut descs: Vec<String> = Vec::with_capacity(specs.len());
    let mut shard_counts: Vec<usize> = Vec::with_capacity(specs.len());
    let mut statuses: Vec<(String, GscStatus)> = Vec::new();
    for (spec, &(base_emitted, _)) in specs.iter().zip(&base_marks) {
        match &spec.kind {
            SourceKind::Simulated(profile) => {
                configs.push(source_config(GenPipConfig::for_dataset(profile)));
                expected.push(profile.n_reads);
                descs.push(format!(
                    "{}, {} bp genome",
                    profile.name, profile.genome_len
                ));
                shard_counts.push(shards.resolve(profile.genome_len));
                inputs.push(SourceInput::Sim(profile.clone()));
            }
            SourceKind::Container { path, offset } => {
                let start = offset + base_emitted as usize;
                let source =
                    GscReadSource::open_at(path, start).map_err(|e| format!("{path}: {e}"))?;
                let reader = source.reader();
                configs.push(source_config(GenPipConfig::for_reference_name(
                    reader.reference().name(),
                )));
                expected.push(reader.read_count().saturating_sub(start));
                descs.push(format!("{path}, reads {start}..{}", reader.read_count()));
                shard_counts.push(shards.resolve(reader.reference().len()));
                statuses.push((spec.name.clone(), source.status()));
                inputs.push(SourceInput::File(source));
            }
        }
    }
    if configs
        .iter()
        .any(|c| (c.n_qs, c.n_cm) != (configs[0].n_qs, configs[0].n_cm))
    {
        eprintln!(
            "note: mixed profiles in one session — each source runs its own \
             early-rejection operating point (N_qs, N_cm)"
        );
    }
    let config = configs[0].clone();
    let opts = StreamOptions {
        queue_capacity: queue,
        progress_every: progress,
        ..StreamOptions::default()
    };

    println!(
        "session: GenPIP ({er:?}), {} source(s) under {schedule:?}, \
         {} worker(s), queue {queue}",
        specs.len(),
        parallelism.workers(),
    );
    // One FASTQ writer per source: a single source writes --fastq-out
    // verbatim, several write `<path>.<name>` each. A resumed run truncates
    // each file back to its checkpointed (flushed) byte size and appends,
    // so the final file is byte-identical to an uninterrupted run's.
    let mut fastq_paths: Vec<Option<String>> = Vec::new();
    let mut fastq_sinks: Vec<Option<RefCell<FastqSink<BufWriter<File>>>>> = Vec::new();
    for spec in &specs {
        match &fastq_out {
            None => {
                fastq_paths.push(None);
                fastq_sinks.push(None);
            }
            Some(path) => {
                let path = if specs.len() == 1 {
                    path.clone()
                } else {
                    format!("{path}.{}", spec.name)
                };
                let file = match &resume {
                    None => File::create(&path).map_err(|e| format!("{path}: {e}"))?,
                    Some(ckpt) => {
                        let bytes = ckpt.fastq_for(&spec.name).map(|m| m.bytes).unwrap_or(0);
                        // Keep the file's prefix: resume truncates to the
                        // checkpointed byte position, not to zero.
                        let mut file = OpenOptions::new()
                            .read(true)
                            .write(true)
                            .create(true)
                            .truncate(false)
                            .open(&path)
                            .map_err(|e| format!("{path}: {e}"))?;
                        file.set_len(bytes).map_err(|e| format!("{path}: {e}"))?;
                        file.seek(SeekFrom::Start(bytes))
                            .map_err(|e| format!("{path}: {e}"))?;
                        println!("  resuming {path} at byte {bytes}");
                        file
                    }
                };
                fastq_sinks.push(Some(RefCell::new(FastqSink::new(BufWriter::new(file)))));
                fastq_paths.push(Some(path));
            }
        }
    }
    let mut session = Session::new(config)
        .flow(Flow::GenPip(er))
        .schedule(schedule)
        .options(opts);
    // The drain switch: a sink whose FASTQ writer goes sticky-bad pulls it,
    // turning an unwritable output into a graceful wind-down instead of a
    // torrent of dropped records.
    let control = SessionControl::new();
    let emitted_total = Rc::new(Cell::new(0usize));
    let name_width = specs.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for (i, ((spec, input), fastq)) in specs.iter().zip(inputs).zip(&fastq_sinks).enumerate() {
        println!(
            "  source {:<name_width$}  {} reads ({}, weight {}, {} index shard(s))",
            spec.name, expected[i], descs[i], spec.weight, shard_counts[i],
        );
        let name = spec.name.clone();
        let fastq = fastq.as_ref();
        let control_for_sink = control.clone();
        let emitted_total = Rc::clone(&emitted_total);
        let source_expected = expected[i];
        let config = configs[i].clone();
        // Rate 0 makes the injector a transparent wrapper, so every source
        // goes through it and the per-kind types stay uniform.
        let seed = 0x9E1F + i as u64;
        session = match input {
            SourceInput::Sim(profile) => session.source_with_config(
                spec.name.as_str(),
                FaultInjector::new(StreamingSimulator::new(&profile), inject_rate, seed),
                config,
            ),
            SourceInput::File(source) => session.source_with_config(
                spec.name.as_str(),
                FaultInjector::new(source, inject_rate, seed),
                config,
            ),
        };
        session = session.sink(spec.name.as_str(), move |event| {
            if let Some(sink) = fastq {
                sink.borrow_mut().handle(&event);
                if sink.borrow().has_error() && !control_for_sink.is_draining() {
                    eprintln!("  [{name}] FASTQ writer failed — draining session");
                    control_for_sink.drain();
                }
            }
            match event {
                StreamEvent::Failed { read_id, fault } => {
                    eprintln!("  [{name:<name_width$}] read {read_id} failed: {fault}");
                    note_emitted(&emitted_total, drain_after, &control_for_sink);
                }
                StreamEvent::Progress(p) => {
                    println!(
                        "  [{name:<name_width$} {:>5}/{source_expected} reads]  mapped {:>5}  \
                         rejected {:>5}  qc-filtered {:>4}  unmapped {:>4}  \
                         ({} samples basecalled)",
                        p.reads_emitted,
                        p.mapped,
                        p.rejected_qsr + p.rejected_cmr,
                        p.filtered_qc,
                        p.unmapped,
                        p.samples_basecalled
                    );
                }
                StreamEvent::Read(_) => {
                    note_emitted(&emitted_total, drain_after, &control_for_sink);
                }
            }
        });
    }
    // The checkpoint sink runs on the emitting thread between in-order
    // emissions, after every per-source sink has seen its events — so
    // flushing the FASTQ writers here yields byte offsets exactly
    // consistent with the recorded read counts.
    let ckpt_error: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    if let Some(path) = checkpoint_path {
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let fastq_sinks = &fastq_sinks;
        let ckpt_error = Rc::clone(&ckpt_error);
        let base_marks = base_marks.clone();
        session = session.checkpoint(checkpoint_every, move |cut| {
            if ckpt_error.borrow().is_some() {
                return;
            }
            let write = || -> Result<(), String> {
                let mut file = CheckpointFile {
                    retried: base_retried + cut.retried as u64,
                    complete: cut.complete,
                    ..CheckpointFile::default()
                };
                for sc in &cut.sources {
                    let (base_emitted, base_failed) = names
                        .iter()
                        .position(|n| n == sc.id.as_str())
                        .map(|i| base_marks[i])
                        .unwrap_or((0, 0));
                    file.sources.push(SourceMark {
                        name: sc.id.as_str().to_string(),
                        emitted: base_emitted + sc.outcomes.reads_emitted as u64,
                        failed: base_failed + sc.outcomes.failed as u64,
                    });
                }
                for (name, sink) in names.iter().zip(fastq_sinks) {
                    if let Some(sink) = sink {
                        let bytes = sink.borrow_mut().position().map_err(|e| e.to_string())?;
                        file.fastq.push(FastqMark {
                            source: name.clone(),
                            bytes,
                        });
                    }
                }
                file.write_atomic(&path).map_err(|e| format!("{path}: {e}"))
            };
            if let Err(e) = write() {
                eprintln!("  checkpoint write failed: {e}");
                *ckpt_error.borrow_mut() = Some(e);
            }
        });
    }
    let report = session
        .run_with_control(&control)
        .map_err(|e| e.to_string())?;

    for (sink, path) in fastq_sinks.into_iter().zip(&fastq_paths) {
        let (Some(sink), Some(path)) = (sink, path) else {
            continue;
        };
        let sink = sink.into_inner();
        let skipped = sink.skipped();
        let (written, _) = sink.finish().map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {written} FASTQ records to {path} ({skipped} rejected reads skipped)");
    }

    for source in &report.sources {
        let o = source.summary.outcomes;
        println!(
            "source {:<name_width$}  reads {:>5}  mapped {:>5}  QSR {:>4}  CMR {:>4}  \
             QC {:>4}  unmapped {:>4}  peak in-flight {}  residency p50/p99 {}/{}",
            source.id,
            o.reads_emitted,
            o.mapped,
            o.rejected_qsr,
            o.rejected_cmr,
            o.filtered_qc,
            o.unmapped,
            source.summary.max_in_flight,
            source.summary.latency.p50,
            source.summary.latency.p99,
        );
    }
    let o = report.outcomes;
    println!("reads:          {}", o.reads_emitted);
    println!("mapped:         {}", o.mapped);
    println!("QSR-rejected:   {}", o.rejected_qsr);
    println!("CMR-rejected:   {}", o.rejected_cmr);
    println!("QC-filtered:    {}", o.filtered_qc);
    println!("unmapped:       {}", o.unmapped);
    println!(
        "peak in-flight: {} resident read chains across all sources (bound: {})",
        report.max_in_flight, report.in_flight_limit
    );
    println!(
        "residency:      p50 {} / p99 {} / max {} chunk-work units per read",
        report.latency.p50, report.latency.p99, report.latency.max
    );
    println!(
        "basecalled:     {} samples across {} bases",
        report.totals.samples, report.totals.bases_called
    );
    if o.failed > 0 || report.retried > 0 {
        let per_source: Vec<String> = report
            .sources
            .iter()
            .filter(|s| s.summary.outcomes.failed > 0 || s.summary.retried > 0)
            .map(|s| {
                format!(
                    "{}: {} failed, {} retried",
                    s.id, s.summary.outcomes.failed, s.summary.retried
                )
            })
            .collect();
        println!(
            "faults:         {} read(s) failed, {} retried [{}]",
            o.failed,
            report.retried,
            per_source.join("; ")
        );
    }
    if let Some(e) = ckpt_error.borrow_mut().take() {
        return Err(format!("checkpoint write failed: {e}"));
    }
    // A container error (corruption, truncation, a failed read) ended its
    // source early; the session completed, but the invocation must not
    // claim success.
    let container_errors: Vec<String> = statuses
        .iter()
        .filter_map(|(name, status)| status.error().map(|e| format!("source {name:?}: {e}")))
        .collect();
    if !container_errors.is_empty() {
        return Err(container_errors.join("; "));
    }
    fault_exit(
        o.failed,
        explicit_fault && fault_policy != FaultPolicy::Fail,
    )
}

/// Counts one emitted read toward `--drain-after`, draining the session
/// once the threshold is reached — a deterministic stand-in for killing a
/// run mid-flight when exercising `--checkpoint`/`--resume`.
fn note_emitted(count: &Cell<usize>, drain_after: Option<usize>, control: &SessionControl) {
    count.set(count.get() + 1);
    if drain_after == Some(count.get()) {
        eprintln!(
            "  draining session after {} emitted read(s) (--drain-after)",
            count.get()
        );
        control.drain();
    }
}

/// Deadline-schedule residency goal (chunk-work units) for scripted sources
/// that do not spell their own `target=`.
const SERVE_DEFAULT_TARGET: u64 = 64;

/// A source named in a `serve` script attach step: simulated from a
/// profile, or replayed from an on-disk GSC container.
struct ServeSpec {
    name: String,
    kind: SourceKind,
    weight: u32,
    target: Option<u64>,
}

/// A serve source opened and ready to register or attach.
enum ServeInput {
    Sim(DatasetProfile),
    File(Box<GscReadSource>),
}

/// Opens a serve spec's read source. Returns the input, its untuned
/// operating point, the number of reads it will deliver, and a banner
/// description.
fn serve_input(spec: &ServeSpec) -> Result<(ServeInput, GenPipConfig, usize, String), String> {
    match &spec.kind {
        SourceKind::Simulated(profile) => Ok((
            ServeInput::Sim(profile.clone()),
            GenPipConfig::for_dataset(profile),
            profile.n_reads,
            profile.name.to_string(),
        )),
        SourceKind::Container { path, offset } => {
            let source =
                GscReadSource::open_at(path, *offset).map_err(|e| format!("{path}: {e}"))?;
            let reader = source.reader();
            let config = GenPipConfig::for_reference_name(reader.reference().name());
            let expected = reader.read_count().saturating_sub(*offset);
            let desc = format!("{path}, reads {offset}..{}", reader.read_count());
            Ok((ServeInput::File(Box::new(source)), config, expected, desc))
        }
    }
}

/// What a `serve` script step does when it fires.
enum ServeAction {
    Attach(Box<ServeSpec>),
    Detach(String),
    Drain,
}

/// One scripted step: fires once `after` reads have been emitted across all
/// sources. Steps written without `at` register before the run instead.
struct ScriptStep {
    line_no: usize,
    after: usize,
    action: ServeAction,
}

fn parse_serve_spec(name: &str, spec: &str, default_scale: f64) -> Result<ServeSpec, String> {
    let mut profile_name = None;
    let mut file = None;
    let mut offset = 0usize;
    let mut scale = default_scale;
    let mut weight = 1u32;
    let mut target = None;
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("spec part {part:?} is not key=value"))?;
        match key {
            "profile" => profile_name = Some(value),
            "file" => file = Some(value.to_string()),
            "offset" => {
                offset = value
                    .parse()
                    .map_err(|_| format!("invalid offset {value:?}"))?
            }
            "scale" => scale = parse_scale(value)?,
            "weight" => {
                weight = value
                    .parse()
                    .map_err(|_| format!("invalid weight {value:?}"))?
            }
            "target" => {
                target = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid target {value:?}"))?,
                )
            }
            other => {
                return Err(format!(
                    "unknown key {other:?} (use profile, file, offset, scale, weight, target)"
                ))
            }
        }
    }
    let kind = match (profile_name, file) {
        (Some(profile), None) => SourceKind::Simulated(profile_by_name(profile)?.scaled(scale)),
        (None, Some(path)) => SourceKind::Container { path, offset },
        (Some(_), Some(_)) => return Err("attach spec has both profile= and file=".into()),
        (None, None) => return Err("attach spec needs profile= or file=".into()),
    };
    Ok(ServeSpec {
        name: name.to_string(),
        kind,
        weight,
        target,
    })
}

/// Parses a `serve` script into the sources registered before the run and
/// the steps fired through the live control plane.
fn parse_script(
    text: &str,
    default_scale: f64,
) -> Result<(Vec<ServeSpec>, Vec<ScriptStep>), String> {
    let mut initial = Vec::new();
    let mut steps: Vec<ScriptStep> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("script line {line_no}: {msg}");
        let words: Vec<&str> = line.split_whitespace().collect();
        let (after, rest) = if words[0] == "at" {
            let count = words
                .get(1)
                .and_then(|w| w.parse::<usize>().ok())
                .ok_or_else(|| err("`at` needs a read count".into()))?;
            (Some(count), &words[2..])
        } else {
            (None, &words[..])
        };
        let action = match *rest {
            ["attach", name, spec] => ServeAction::Attach(Box::new(
                parse_serve_spec(name, spec, default_scale).map_err(err)?,
            )),
            ["detach", name] => ServeAction::Detach(name.to_string()),
            ["drain"] => ServeAction::Drain,
            _ => {
                return Err(err(format!(
                    "unrecognized step {line:?} \
                     (use attach NAME SPEC, detach NAME, or drain)"
                )))
            }
        };
        match (after, action) {
            (None, ServeAction::Attach(spec)) => initial.push(*spec),
            (None, _) => return Err(err("detach and drain need `at COUNT`".into())),
            (Some(after), action) => steps.push(ScriptStep {
                line_no,
                after,
                action,
            }),
        }
    }
    if initial.is_empty() {
        return Err(
            "script has no initial `attach` step — a session needs at least one \
             source to start"
                .into(),
        );
    }
    // Stable by count: same-count steps fire in script order.
    steps.sort_by_key(|s| s.after);
    Ok((initial, steps))
}

/// The scripted session driver, shared by every sink. Sinks count emitted
/// reads and fire due steps; fired attaches install a sink that feeds the
/// same counter, so later steps see the whole session's emissions.
struct ServeDriver {
    emitted: usize,
    steps: VecDeque<ScriptStep>,
    control: SessionControl,
    parallelism: Parallelism,
    shards: Shards,
    lanes: Lanes,
    attaches: Vec<(String, PendingAttach)>,
    detaches: Vec<(String, PendingDetach)>,
    /// Error handles of every GSC container source, checked after the run.
    statuses: Vec<(String, GscStatus)>,
    /// Failures raised by fired steps (e.g. a container that would not
    /// open), reported after the run.
    errors: Vec<String>,
}

/// Counts one emitted read and fires every step that has come due. Runs on
/// the session's emitting thread; the fired attach/detach/drain calls only
/// enqueue control commands, so nothing here blocks on the session.
fn serve_note_read(driver: &Arc<Mutex<ServeDriver>>) {
    let mut d = driver.lock().expect("serve driver poisoned");
    d.emitted += 1;
    while d.steps.front().is_some_and(|s| s.after <= d.emitted) {
        let step = d.steps.pop_front().expect("front checked");
        serve_fire(&mut d, driver, step);
    }
}

fn serve_fire(d: &mut ServeDriver, driver: &Arc<Mutex<ServeDriver>>, step: ScriptStep) {
    match step.action {
        ServeAction::Attach(spec) => {
            let (input, base, expected, desc) = match serve_input(&spec) {
                Ok(opened) => opened,
                Err(e) => {
                    println!(
                        "  [script] at {} reads: attach {:?} failed: {e}",
                        step.after, spec.name
                    );
                    d.errors.push(format!("attach {:?}: {e}", spec.name));
                    return;
                }
            };
            println!(
                "  [script] at {} reads: attach {:?} ({desc}, {expected} reads)",
                step.after, spec.name
            );
            let config = base
                .with_parallelism(d.parallelism)
                .with_shards(d.shards)
                .with_lanes(d.lanes);
            let mut attach = AttachSpec::new().config(config).weight(spec.weight);
            if let Some(target) = spec.target {
                attach = attach.deadline_target(target);
            }
            let observer = Arc::clone(driver);
            let attach = attach.sink(move |event| {
                if let StreamEvent::Read(_) = event {
                    serve_note_read(&observer);
                }
            });
            let handle = match input {
                ServeInput::Sim(profile) => d.control.attach_with(
                    spec.name.as_str(),
                    StreamingSimulator::new(&profile),
                    attach,
                ),
                ServeInput::File(source) => {
                    d.statuses.push((spec.name.clone(), source.status()));
                    d.control.attach_with(spec.name.as_str(), *source, attach)
                }
            };
            d.attaches.push((spec.name, handle));
        }
        ServeAction::Detach(name) => {
            println!("  [script] at {} reads: detach {name:?}", step.after);
            let handle = d.control.detach(name.as_str());
            d.detaches.push((name, handle));
        }
        ServeAction::Drain => {
            println!("  [script] at {} reads: drain", step.after);
            d.control.drain();
        }
    }
}

fn cmd_serve(parsed: &Parsed) -> Result<(), String> {
    let script_path = opt(parsed, "script").ok_or("serve needs --script <FILE>")?;
    let script = std::fs::read_to_string(script_path).map_err(|e| format!("{script_path}: {e}"))?;
    let er = er_from(parsed)?;
    let shards = shards_from(parsed)?;
    let usize_opt = |key: &str, default: usize| -> Result<usize, String> {
        match opt(parsed, key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("invalid --{key} {s:?}")),
        }
    };
    let queue = usize_opt("queue", 8)?.max(1);
    let max_sources = usize_opt("max-sources", 64)?;
    let lanes = lanes_from(parsed)?;
    let parallelism = match opt(parsed, "threads") {
        None => Parallelism::from_env_or(Parallelism::Auto),
        Some(s) => Parallelism::parse(s).ok_or_else(|| format!("invalid --threads {s:?}"))?,
    };
    let default_scale = scale_from(parsed, 0.05)?;
    let (initial, steps) = parse_script(&script, default_scale)?;

    let schedule = match opt(parsed, "schedule").unwrap_or("fair") {
        "fair" => Schedule::FairShare,
        "sequential" => Schedule::Sequential,
        "priority" => Schedule::Priority(initial.iter().map(|s| s.weight).collect()),
        "deadline" => Schedule::Deadline(
            initial
                .iter()
                .map(|s| s.target.unwrap_or(SERVE_DEFAULT_TARGET))
                .collect(),
        ),
        other => {
            return Err(format!(
                "invalid --schedule {other:?} (use fair, sequential, priority, or deadline)"
            ))
        }
    };

    println!(
        "serve: GenPIP ({er:?}) under {schedule:?}, {} worker(s), queue {queue}, \
         {} live step(s)",
        parallelism.workers(),
        steps.len(),
    );

    let control = SessionControl::new();
    let driver = Arc::new(Mutex::new(ServeDriver {
        emitted: 0,
        steps: steps.into(),
        control: control.clone(),
        parallelism,
        shards,
        lanes,
        attaches: Vec::new(),
        detaches: Vec::new(),
        statuses: Vec::new(),
        errors: Vec::new(),
    }));

    let tune = |config: GenPipConfig| {
        config
            .with_parallelism(parallelism)
            .with_shards(shards)
            .with_lanes(lanes)
    };
    // Open every initial source before the session starts: a bad container
    // in the script header should fail the invocation outright.
    let mut initial_inputs = Vec::with_capacity(initial.len());
    for spec in &initial {
        initial_inputs.push(serve_input(spec)?);
    }
    let first_config = tune(initial_inputs[0].1.clone());
    let mut session = Session::new(first_config)
        .flow(Flow::GenPip(er))
        .schedule(schedule)
        .options(StreamOptions {
            queue_capacity: queue,
            max_sources,
            progress_every: 0,
            ..StreamOptions::default()
        });
    for (spec, (input, base, expected, desc)) in initial.iter().zip(initial_inputs) {
        println!(
            "  source {:?}: {} reads ({}, weight {}{})",
            spec.name,
            expected,
            desc,
            spec.weight,
            match spec.target {
                Some(t) => format!(", target {t}"),
                None => String::new(),
            },
        );
        let observer = Arc::clone(&driver);
        let config = tune(base);
        session = match input {
            ServeInput::Sim(profile) => session.source_with_config(
                spec.name.as_str(),
                StreamingSimulator::new(&profile),
                config,
            ),
            ServeInput::File(source) => {
                driver
                    .lock()
                    .expect("serve driver poisoned")
                    .statuses
                    .push((spec.name.clone(), source.status()));
                session.source_with_config(spec.name.as_str(), *source, config)
            }
        };
        session = session.sink(spec.name.as_str(), move |event| {
            if let StreamEvent::Read(_) = event {
                serve_note_read(&observer);
            }
        });
    }
    let report = session
        .run_with_control(&control)
        .map_err(|e| e.to_string())?;

    let mut d = driver.lock().expect("serve driver poisoned");
    let emitted = d.emitted;
    let unfired: Vec<String> = d
        .steps
        .iter()
        .map(|s| format!("line {}: at {}", s.line_no, s.after))
        .collect();
    let attaches = std::mem::take(&mut d.attaches);
    let detaches = std::mem::take(&mut d.detaches);
    let statuses = std::mem::take(&mut d.statuses);
    let step_errors = std::mem::take(&mut d.errors);
    drop(d);

    // The session has finished, so every handle resolves without blocking.
    let mut failures = unfired
        .into_iter()
        .map(|step| format!("script step never fired ({step}) — only {emitted} reads emitted"))
        .collect::<Vec<_>>();
    failures.extend(step_errors);
    for (name, status) in &statuses {
        if let Some(e) = status.error() {
            failures.push(format!("source {name:?}: {e}"));
        }
    }
    for (name, handle) in attaches {
        if let Err(e) = handle.wait() {
            failures.push(format!("attach {name:?} refused: {e}"));
        }
    }
    for (name, handle) in detaches {
        match handle.wait() {
            Ok(summary) => println!(
                "  detached {name:?}: {} reads emitted, residency p50/p99 {}/{}",
                summary.outcomes.reads_emitted, summary.latency.p50, summary.latency.p99
            ),
            Err(e) => failures.push(format!("detach {name:?} refused: {e}")),
        }
    }

    let name_width = report
        .sources
        .iter()
        .map(|s| s.id.as_str().len())
        .max()
        .unwrap_or(0);
    for source in &report.sources {
        let o = source.summary.outcomes;
        println!(
            "source {:<name_width$}  reads {:>5}  mapped {:>5}  rejected {:>4}  \
             QC {:>4}  unmapped {:>4}  residency p50/p99 {}/{}",
            source.id,
            o.reads_emitted,
            o.mapped,
            o.rejected_qsr + o.rejected_cmr,
            o.filtered_qc,
            o.unmapped,
            source.summary.latency.p50,
            source.summary.latency.p99,
        );
    }
    println!(
        "serve:          {} reads across {} source(s), peak in-flight {} (bound {})",
        report.outcomes.reads_emitted,
        report.sources.len(),
        report.max_in_flight,
        report.in_flight_limit
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn cmd_experiment(parsed: &Parsed) -> Result<(), String> {
    let which = parsed
        .1
        .first()
        .ok_or("experiment needs a name (e.g. fig10)")?;
    let scale = scale_from(parsed, 1.0)?;
    match which.as_str() {
        "fig04" => println!("{}", experiments::fig04::run(scale)),
        "fig07" => println!("{}", experiments::fig07::run(scale)),
        "fig10" => println!("{}", experiments::fig10::run(scale)),
        "fig11" => println!("{}", experiments::fig11::run(scale)),
        "fig12" => println!("{}", experiments::fig12::run(scale)),
        "fig13" => println!("{}", experiments::fig13::run(scale)),
        "tab01" => println!("{}", experiments::tab01::run(scale)),
        "tab02" => println!("{}", experiments::tab02::run()),
        "useless" => println!("{}", experiments::useless::run(scale)),
        "ablations" => println!("{}", experiments::ablations::run(scale)),
        other => return Err(format!("unknown experiment {other:?}")),
    }
    Ok(())
}
