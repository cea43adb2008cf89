//! The untraced end-to-end run: one `Session` streaming the workload's GSC
//! container through the full GenPIP flow, with timestamps taken only at
//! its edges — when the engine pulls a read from the source and when the
//! sink receives it.

use crate::digest::ReadDigest;
use crate::stats::process_cpu_s;
use crate::workload::Workload;
use genpip_core::engine::Flow;
use genpip_core::{ErMode, FastqSink, Session, StreamEvent};
use genpip_datasets::{ReadSource, SimulatedRead};
use genpip_genomics::Genome;
use genpip_io::GscReadSource;
use genpip_signal::PoreModel;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one session run measured and emitted.
pub struct SessionRun {
    /// `Session::run` call → first `next_read`.
    pub setup_s: f64,
    /// First pull → last emission.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Per read, pull → emission, in source order.
    pub latencies_ms: Vec<f64>,
    /// Longest gap between consecutive emissions.
    pub emit_gap_max_ms: f64,
    /// Ids in the order the engine pulled them.
    pub pulled: Vec<u32>,
    /// Emitted reads, in emission order.
    pub emitted: Vec<ReadDigest>,
    /// FASTQ records the sink wrote.
    pub fastq_written: usize,
    pub max_in_flight: usize,
    pub in_flight_limit: usize,
    pub residency_p50: u64,
    pub residency_p99: u64,
    pub retried: usize,
    pub failed: usize,
}

/// Pull timestamps, shared between the source (on the engine's dispatcher
/// thread) and the caller.
#[derive(Default)]
struct PullLog {
    first_call: Option<(Instant, f64)>,
    pulls: Vec<(u32, Instant)>,
}

/// A source that timestamps every pull of the source it wraps.
struct TimedSource {
    inner: GscReadSource,
    log: Arc<Mutex<PullLog>>,
}

impl ReadSource for TimedSource {
    fn reference(&self) -> &Genome {
        self.inner.reference()
    }

    fn pore_model(&self) -> &PoreModel {
        self.inner.pore_model()
    }

    fn mean_dwell(&self) -> f64 {
        self.inner.mean_dwell()
    }

    fn next_read(&mut self) -> Option<SimulatedRead> {
        let mut log = self.log.lock().expect("pull log poisoned");
        if log.first_call.is_none() {
            log.first_call = Some((Instant::now(), process_cpu_s()));
        }
        let read = self.inner.next_read();
        if let Some(read) = &read {
            log.pulls.push((read.id, Instant::now()));
        }
        read
    }

    fn reads_remaining(&self) -> Option<usize> {
        self.inner.reads_remaining()
    }
}

/// Runs one session over the container at `gsc` with `workers` threads,
/// writing FASTQ to `fastq` where the workload asks for it.
pub fn run_session(
    gsc: &Path,
    workload: Workload,
    workers: usize,
    fastq: Option<&Path>,
) -> Result<SessionRun, String> {
    let inner = GscReadSource::open(gsc).map_err(|e| format!("open {gsc:?}: {e}"))?;
    let expected = inner.reader().read_count();
    let status = inner.status();
    let log = Arc::new(Mutex::new(PullLog::default()));
    let source = TimedSource {
        inner,
        log: Arc::clone(&log),
    };
    let mut sink = match fastq {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
            Some(FastqSink::new(BufWriter::new(file)))
        }
        None => None,
    };

    let mut emitted: Vec<ReadDigest> = Vec::with_capacity(expected);
    let mut emit_times: Vec<Instant> = Vec::with_capacity(expected);
    let mut last: Option<(Instant, f64)> = None;
    let start = Instant::now();
    let report = Session::new(workload.config(workers))
        .flow(Flow::GenPip(ErMode::Full))
        .source(workload.name(), source)
        .sink(workload.name(), |event| {
            match &event {
                StreamEvent::Read(run) => {
                    if let Some(sink) = sink.as_mut() {
                        sink.handle(&event);
                    }
                    emitted.push(ReadDigest::of_run(run));
                }
                StreamEvent::Failed { read_id, .. } => emitted.push(ReadDigest::failed(*read_id)),
                StreamEvent::Progress(_) => return,
            }
            let now = Instant::now();
            emit_times.push(now);
            if emitted.len() == expected {
                last = Some((now, process_cpu_s()));
            }
        })
        .run()
        .map_err(|e| format!("session: {e}"))?;
    if let Some(e) = status.error() {
        return Err(format!("GSC decode failed mid-session: {e}"));
    }
    let fastq_written = match sink {
        Some(sink) => {
            if sink.has_error() {
                return Err("FASTQ sink hit a write error".into());
            }
            sink.finish().map_err(|e| format!("fastq flush: {e}"))?.0
        }
        None => 0,
    };

    let log = Arc::try_unwrap(log)
        .map_err(|_| "the session kept its source alive".to_string())?
        .into_inner()
        .expect("pull log poisoned");
    let (first_call, first_cpu) = log.first_call.ok_or("the session never pulled a read")?;
    let (last_emit, last_cpu) =
        last.ok_or_else(|| format!("the session emitted {} of {expected} reads", emitted.len()))?;
    if log.pulls.len() != emitted.len() {
        return Err(format!(
            "{} reads pulled but {} emitted",
            log.pulls.len(),
            emitted.len()
        ));
    }
    let latencies_ms = log
        .pulls
        .iter()
        .zip(&emit_times)
        .map(|((_, pulled), emitted)| emitted.duration_since(*pulled).as_secs_f64() * 1e3)
        .collect();
    let emit_gap_max_ms = emit_times
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    Ok(SessionRun {
        setup_s: first_call.duration_since(start).as_secs_f64(),
        wall_s: last_emit.duration_since(first_call).as_secs_f64(),
        cpu_s: last_cpu - first_cpu,
        latencies_ms,
        emit_gap_max_ms,
        pulled: log.pulls.iter().map(|&(id, _)| id).collect(),
        emitted,
        fastq_written,
        max_in_flight: report.max_in_flight,
        in_flight_limit: report.in_flight_limit,
        residency_p50: report.latency.p50,
        residency_p99: report.latency.p99,
        retried: report.retried,
        failed: report.outcomes.failed,
    })
}
