//! End-to-end benchmark of the GenPIP pipeline.
//!
//! `genpip-perfbench pack --workload W --seed S --out FILE.gsc` simulates
//! the workload's reads with `seed` and packs them into a GSC container
//! (input preparation: timed and verified, but not part of any metric).
//!
//! `genpip-perfbench run --workload W --seed S --seconds N --trace 0|1
//! --gsc FILE.gsc --work DIR` then
//! 1. runs untraced `Session`s over the container back to back for `N`
//!    seconds (GenPIP flow with full early rejection, quarantine on
//!    faults, one worker per hardware thread) and takes the end-to-end
//!    metrics as medians over those runs;
//! 2. replays the same reads on one thread through each layer's public
//!    functions, and fails unless every session emitted every read exactly
//!    once, in source order, with the replay's outcome, placement and work
//!    counters;
//! 3. with `--trace 1`, replays again with every layer call recorded as a
//!    span, writes the spans as a Chrome trace, and reports the per-layer
//!    metrics.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod digest;
mod replay;
mod session;
mod stats;
mod trace;
mod workload;

use crate::digest::ReadDigest;
use crate::replay::{replay, replay_parallel, ReplayOutput};
use crate::session::{run_session, SessionRun};
use crate::stats::{median, on_true_locus, percentile};
use crate::workload::Workload;
use genpip_core::Lanes;
use genpip_datasets::StreamingSimulator;
use genpip_io::{pack_source, GscReader};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Least share of the replay's wall time the layer spans must cover.
const MIN_TRACE_COVERAGE: f64 = 0.95;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pack") => pack(&Flags::parse(&args[1..])),
        Some("run") => run(&Flags::parse(&args[1..])),
        _ => Err("usage: genpip-perfbench <pack|run> --workload W --seed S ...".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        Flags(
            args.chunks(2)
                .map(|pair| {
                    let key = pair[0].trim_start_matches("--").to_string();
                    (key, pair.get(1).cloned().unwrap_or_default())
                })
                .collect(),
        )
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key)?;
        raw.parse()
            .map_err(|_| format!("--{key}: cannot parse {raw:?}"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// Simulates the workload with the given seed and packs it into a GSC
/// container, then checks the container once with `GscReader::verify`.
fn pack(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload()?;
    let seed: u64 = flags.parsed("seed")?;
    let out = PathBuf::from(flags.get("out")?);
    let t = Instant::now();
    let mut simulator = StreamingSimulator::new(&workload.profile(seed));
    let summary = pack_source(&out, &mut simulator).map_err(|e| format!("pack: {e}"))?;
    let pack_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut reader = GscReader::open(&out).map_err(|e| format!("open {out:?}: {e}"))?;
    let verified = reader
        .verify()
        .map_err(|e| format!("verify {out:?}: {e}"))?;
    let verify_s = t.elapsed().as_secs_f64();
    if verified as u64 != summary.reads {
        return Err(format!(
            "packed {} reads, verified {verified}",
            summary.reads
        ));
    }
    println!(
        "pack: workload={} seed={seed} reads={} file_mb={:.2} pack_s={pack_s:.3} verify_s={verify_s:.3} (untimed input preparation)",
        workload.name(),
        summary.reads,
        summary.file_bytes as f64 / 1e6,
    );
    Ok(true)
}

/// The best SIMD extension this CPU advertises at run time.
fn host_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512f";
        } else if is_x86_feature_detected!("avx2") {
            return "avx2";
        } else if is_x86_feature_detected!("sse4.2") {
            return "sse4.2";
        }
        "sse2"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "none"
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count or base the value was taken over, for the text report.
    note: String,
}

/// Collects metrics in report order.
#[derive(Default)]
struct Report(Vec<Metric>);

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    fn print_text(&self, heading: &str) {
        println!("{heading}:");
        for m in &self.0 {
            println!(
                "  {:<36} {:>14.6} {:<12} {}",
                m.name, m.value, m.unit, m.note
            );
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Checks the sessions against the replay (and the replays against each
/// other) and returns every problem found.
fn gate(
    runs: &[SessionRun],
    plain: &ReplayOutput,
    traced: Option<&ReplayOutput>,
    session_fastq: Option<&Path>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let ids: Vec<u32> = plain.digests.iter().map(|d| d.id).collect();
    for (r, run) in runs.iter().enumerate() {
        if run.pulled != ids {
            problems.push(format!(
                "session {r}: pulled reads differ from the container's"
            ));
        }
        let emitted: Vec<u32> = run.emitted.iter().map(|d| d.id).collect();
        if emitted != ids {
            problems.push(format!(
                "session {r}: {} reads emitted, not each of the {} offered once in source order",
                emitted.len(),
                ids.len()
            ));
            continue;
        }
        let bad: Vec<String> = run
            .emitted
            .iter()
            .zip(&plain.digests)
            .filter_map(|(s, p)| {
                let fields = s.mismatches(p);
                (!fields.is_empty()).then(|| format!("read {}: {}", s.id, fields.join(", ")))
            })
            .collect();
        if !bad.is_empty() {
            problems.push(format!(
                "session {r}: {} reads differ from the replay, e.g. {}",
                bad.len(),
                bad[..bad.len().min(3)].join("; ")
            ));
        }
        let with_bases = run.emitted.iter().filter(|d| d.has_bases).count();
        if session_fastq.is_some() && run.fastq_written != with_bases {
            problems.push(format!(
                "session {r}: {} FASTQ records for {with_bases} reads with called bases",
                run.fastq_written
            ));
        }
    }
    if let Some(traced) = traced {
        if traced.digests != plain.digests {
            problems.push("the traced replay differs from the untraced one".into());
        }
        let coverage = ratio(trace::covered_ns(&traced.spans) as f64 / 1e9, traced.wall_s);
        if coverage < MIN_TRACE_COVERAGE {
            problems.push(format!(
                "layer spans cover {coverage:.3} of the replay, below {MIN_TRACE_COVERAGE}"
            ));
        }
        if let Some(lane) = traced.lane {
            if !lane.identical {
                problems.push("lane-batched decode differs from scalar decode".into());
            }
        }
    }
    if let Some(session_fastq) = session_fastq {
        let with_bases = plain.digests.iter().filter(|d| d.has_bases).count();
        if plain.counts.fastq_records != with_bases {
            problems.push(format!(
                "replay wrote {} FASTQ records for {with_bases} reads with called bases",
                plain.counts.fastq_records
            ));
        }
        let replayed: std::io::Result<Vec<u8>> = plain
            .fastq_parts
            .iter()
            .map(std::fs::read)
            .collect::<std::io::Result<Vec<_>>>()
            .map(|parts| parts.concat());
        match (std::fs::read(session_fastq), replayed) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => problems.push("session and replay FASTQ files differ".into()),
            (a, b) => problems.push(format!("reading FASTQ back: {:?} / {:?}", a.err(), b.err())),
        }
    }
    problems
}

/// The end-to-end metrics: timings from the sessions (medians over runs),
/// output quality from the gated outputs and the simulator's truth.
fn end_to_end(
    runs: &[SessionRun],
    plain: &ReplayOutput,
    peak_rss_mb: f64,
) -> Result<Report, String> {
    let offered = plain.counts.samples_offered as f64;
    let n_runs = runs.len();
    let per_run = |f: &dyn Fn(&SessionRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let latency = |p: f64| -> Result<f64, String> {
        let per_run: Result<Vec<f64>, String> = runs
            .iter()
            .map(|r| {
                percentile(&r.latencies_ms, p).ok_or_else(|| {
                    format!(
                        "{} reads are too few for a p{}",
                        r.latencies_ms.len(),
                        p * 100.0
                    )
                })
            })
            .collect();
        Ok(median(&per_run?))
    };
    let reads = plain.digests.len();
    let good: Vec<(&ReadDigest, bool)> = plain
        .digests
        .iter()
        .zip(&plain.truth)
        .filter(|(_, t)| t.is_good())
        .map(|(d, t)| {
            let on_locus = d
                .placement
                .as_ref()
                .is_some_and(|p| on_true_locus(&t.origin, p.ref_start, p.ref_end));
            (d, on_locus)
        })
        .collect();
    let mapped: Vec<f64> = plain
        .digests
        .iter()
        .filter_map(|d| d.placement.as_ref().map(|p| p.identity))
        .collect();
    let decoded = plain.counts.basecall_samples as f64;
    let failed = runs.iter().map(|r| r.failed).sum::<usize>() as f64;

    let mut m = Report::default();
    let over_runs = format!("median of {n_runs} sessions");
    m.add("setup_s", per_run(&|r| r.setup_s), "s", &over_runs);
    m.add(
        "throughput_msamples_s",
        per_run(&|r| offered / 1e6 / r.wall_s),
        "Msamples/s",
        format!("{over_runs} of {:.2} Msamples", offered / 1e6),
    );
    m.add(
        "cpu_s_per_msample",
        per_run(&|r| r.cpu_s / (offered / 1e6)),
        "s/Msample",
        &over_runs,
    );
    let latency_note = format!("median of {n_runs} sessions x {reads} reads");
    m.add("read_latency_p50_ms", latency(0.5)?, "ms", &latency_note);
    m.add("read_latency_p90_ms", latency(0.9)?, "ms", &latency_note);
    // Shares that can be exactly 0 (failed, falsely rejected, saved) are
    // reported as their complements: a regression bound relative to a
    // median of 0 would be meaningless.
    let attempted = (reads * n_runs) as f64;
    m.add(
        "completed_frac",
        1.0 - failed / attempted,
        "frac",
        format!(
            "failed_frac {:.6} = {failed} of {attempted} reads",
            failed / attempted
        ),
    );
    m.add("peak_rss_mb", peak_rss_mb, "MB", "VmHWM after the sessions");
    let n_good = good.len() as f64;
    m.add(
        "true_locus_frac",
        ratio(good.iter().filter(|(_, ok)| *ok).count() as f64, n_good),
        "frac",
        format!("of {n_good} good reads"),
    );
    let false_rejects = good
        .iter()
        .filter(|(d, _)| d.kind.is_early_rejected())
        .count() as f64;
    m.add(
        "true_keep_frac",
        1.0 - ratio(false_rejects, n_good),
        "frac",
        format!(
            "false_reject_frac {:.6} = {false_rejects} of {n_good} good reads",
            ratio(false_rejects, n_good)
        ),
    );
    m.add(
        "samples_decoded_frac",
        ratio(decoded, offered),
        "frac",
        format!(
            "samples_saved_frac {:.6} of {:.2} Msamples",
            1.0 - ratio(decoded, offered),
            offered / 1e6
        ),
    );
    m.add(
        "mean_identity",
        ratio(mapped.iter().sum(), mapped.len() as f64),
        "frac",
        format!("over {} mapped reads", mapped.len()),
    );
    Ok(m)
}

/// The per-layer metrics: work counts and self times from the traced
/// replay, engine figures from the sessions.
fn per_layer(
    runs: &[SessionRun],
    plain: &ReplayOutput,
    traced: &ReplayOutput,
    workers: usize,
    fastq_bytes: u64,
) -> Report {
    let c = &traced.counts;
    let spans = &traced.spans;
    let self_s = |layer: &str| trace::self_ns(spans, |s| s.layer == layer) as f64 / 1e9;
    let per_run = |f: &dyn Fn(&SessionRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let covered_s = trace::covered_ns(spans) as f64 / 1e9;
    let session_wall = per_run(&|r| r.wall_s);
    let rejects = c.qsr_rejects + c.cmr_rejects;

    let mut m = Report::default();
    let basecall_s = self_s("basecall");
    m.add("basecall.calls", c.basecall_calls as f64, "count", "");
    m.add("basecall.samples", c.basecall_samples as f64, "count", "");
    m.add("basecall.self_s", basecall_s, "s", "");
    m.add(
        "basecall.ns_per_sample",
        ratio(basecall_s * 1e9, c.basecall_samples as f64),
        "ns/sample",
        "scalar ReadDecoder::call_next",
    );
    let lane = traced.lane.expect("traced replays time the lane decode");
    m.add(
        "basecall.lane_ns_per_sample",
        ratio(lane.seconds * 1e9, lane.samples as f64),
        "ns/sample",
        format!(
            "LaneDecoder width {} on {} samples",
            lane.width, lane.samples
        ),
    );
    m.add(
        "early_reject.qsr_rejects",
        c.qsr_rejects as f64,
        "count",
        "",
    );
    m.add(
        "early_reject.cmr_rejects",
        c.cmr_rejects as f64,
        "count",
        "",
    );
    m.add(
        "early_reject.samples_skipped",
        (c.samples_offered - c.basecall_samples) as f64,
        "count",
        "",
    );
    m.add(
        "early_reject.useful_reject_frac",
        ratio(c.useful_rejects as f64, rejects as f64),
        "frac",
        format!("of {rejects} rejected reads"),
    );
    m.add("mapping.seed.self_s", self_s("mapping.seed"), "s", "");
    m.add("mapping.seed.minimizers", c.minimizers as f64, "count", "");
    m.add("mapping.seed.anchors", c.anchors as f64, "count", "");
    m.add("mapping.chain.self_s", self_s("mapping.chain"), "s", "");
    m.add("mapping.chain.evals", c.chain_evals as f64, "count", "");
    let finalize_s = self_s("mapping.finalize");
    m.add(
        "mapping.finalize.calls",
        c.finalize_calls as f64,
        "count",
        "",
    );
    m.add("mapping.finalize.self_s", finalize_s, "s", "");
    m.add("mapping.finalize.dp_cells", c.dp_cells as f64, "count", "");
    m.add(
        "mapping.finalize.ns_per_cell",
        ratio(finalize_s * 1e9, c.dp_cells as f64),
        "ns/cell",
        "",
    );
    m.add(
        "mapping.finalize.max_cells_per_read",
        c.max_cells_per_read as f64,
        "count",
        "",
    );
    m.add(
        "mapping.finalize.mapped_frac",
        ratio(c.mapped as f64, c.finalize_calls as f64),
        "frac",
        format!("of {} finalized reads", c.finalize_calls),
    );
    let call_s = |name: &str| trace::self_ns(spans, |s| s.name == name) as f64 / 1e9;
    let gsc_read_s = call_s("gsc_read");
    let fastq_s = call_s("fastq_write");
    m.add("io.gsc_read_s", gsc_read_s, "s", "");
    m.add(
        "io.gsc_mb_per_s",
        ratio(traced.gsc_file_bytes as f64 / 1e6, gsc_read_s),
        "MB/s",
        format!("{:.1} MB container", traced.gsc_file_bytes as f64 / 1e6),
    );
    m.add("io.fastq_write_s", fastq_s, "s", "");
    m.add("io.fastq_bytes", fastq_bytes as f64, "bytes", "");
    m.add(
        "setup.index_build_s",
        traced.setup.index_build_s,
        "s",
        "ReferenceSet::build_shared",
    );
    m.add(
        "setup.basecaller_s",
        traced.setup.basecaller_s,
        "s",
        "Basecaller::new",
    );
    m.add(
        "setup.gsc_open_s",
        traced.setup.gsc_open_s,
        "s",
        "GscReadSource::open",
    );
    m.add(
        "engine.parallel_efficiency",
        ratio(covered_s, session_wall * workers as f64),
        "frac",
        format!("replay layer time / (session wall x {workers} workers)"),
    );
    m.add(
        "engine.max_in_flight",
        per_run(&|r| r.max_in_flight as f64),
        "count",
        "",
    );
    m.add(
        "engine.in_flight_limit",
        per_run(&|r| r.in_flight_limit as f64),
        "count",
        "",
    );
    m.add(
        "engine.residency_work_p50",
        per_run(&|r| r.residency_p50 as f64),
        "chunk-work",
        "",
    );
    m.add(
        "engine.residency_work_p99",
        per_run(&|r| r.residency_p99 as f64),
        "chunk-work",
        "",
    );
    m.add(
        "engine.retried",
        runs.iter().map(|r| r.retried).sum::<usize>() as f64,
        "count",
        "",
    );
    m.add(
        "engine.emit_gap_max_ms",
        per_run(&|r| r.emit_gap_max_ms),
        "ms",
        "",
    );
    m.add(
        "trace.coverage_frac",
        ratio(covered_s, traced.wall_s),
        "frac",
        "",
    );
    m.add(
        "trace.overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
        "frac",
        format!(
            "traced {:.3} s vs untraced {:.3} s",
            traced.wall_s, plain.wall_s
        ),
    );
    m
}

fn run(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload()?;
    let seed: u64 = flags.parsed("seed")?;
    let seconds: f64 = flags.parsed("seconds")?;
    let traced = match flags.get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let gsc = PathBuf::from(flags.get("gsc")?);
    let work = PathBuf::from(flags.get("work")?);
    let commit = flags.get("commit").unwrap_or("unknown");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "host: nproc={workers} simd={} lanes_auto={} workers={workers} commit={commit}",
        host_simd(),
        Lanes::Auto.width()
    );
    println!(
        "run: workload={} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(traced)
    );

    let session_fastq = workload.writes_fastq().then(|| work.join("session.fastq"));
    let replay_fastq = |part: usize| work.join(format!("replay-{part}.fastq"));
    let replay_fastq: Option<&dyn Fn(usize) -> PathBuf> =
        workload.writes_fastq().then_some(&replay_fastq);

    // Back-to-back sessions until the next one would overrun the budget.
    let start = Instant::now();
    let mut runs: Vec<SessionRun> = Vec::new();
    loop {
        runs.push(run_session(
            &gsc,
            workload,
            workers,
            session_fastq.as_deref(),
        )?);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / runs.len() as f64 > seconds {
            break;
        }
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let list = |f: &dyn Fn(&SessionRun) -> f64| {
        runs.iter()
            .map(|r| format!("{:.4}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "sessions: {} in {:.1} s",
        runs.len(),
        start.elapsed().as_secs_f64()
    );
    println!("  setup_s     {}", list(&|r| r.setup_s));
    println!("  wall_s      {}", list(&|r| r.wall_s));
    println!("  cpu_s       {}", list(&|r| r.cpu_s));

    // The gate's replay: on one thread when its wall time is compared with
    // the traced replay's, otherwise split across the workers.
    let reads = GscReader::open(&gsc)
        .map_err(|e| format!("open {gsc:?}: {e}"))?
        .read_count();
    let plain = if traced {
        replay(&gsc, workload, 0..reads, replay_fastq.map(|f| f(0)), false)?
    } else {
        replay_parallel(&gsc, workload, workers, replay_fastq)?
    };
    let traced_replay = if traced {
        let out = replay(&gsc, workload, 0..reads, replay_fastq.map(|f| f(1)), true)?;
        let path = work.join(format!("trace-{}-{seed}.json", workload.name()));
        let file = File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
        let mut writer = BufWriter::new(file);
        trace::write_chrome_json(&out.spans, &mut writer)
            .and_then(|()| std::io::Write::flush(&mut writer))
            .map_err(|e| format!("write {path:?}: {e}"))?;
        println!(
            "trace: {} spans written to {}",
            out.spans.len(),
            path.display()
        );
        Some(out)
    } else {
        None
    };

    let problems = gate(
        &runs,
        &plain,
        traced_replay.as_ref(),
        session_fastq.as_deref(),
    );
    let e2e = end_to_end(&runs, &plain, peak_rss_mb)?;
    e2e.print_text("end-to-end");
    let report = match &traced_replay {
        Some(t) => {
            let fastq_bytes = match &session_fastq {
                Some(path) => std::fs::metadata(path)
                    .map_err(|e| format!("stat {path:?}: {e}"))?
                    .len(),
                None => 0,
            };
            let layers = per_layer(&runs, &plain, t, workers, fastq_bytes);
            layers.print_text("per-layer");
            layers
        }
        None => e2e,
    };
    let mut problems = problems;
    if let Some(bad) = report.0.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not a finite number", bad.name));
    }
    for p in &problems {
        eprintln!("gate: {p}");
    }
    let correct = problems.is_empty();
    let reads = plain.digests.len();
    // A session that loses a read errors out, so every failure here is a
    // quarantined read.
    let failed: usize = runs.iter().map(|r| r.failed).sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        reads * runs.len(),
        report.json()
    );
    Ok(correct)
}
