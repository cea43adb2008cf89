//! Lane-batched decode properties: every decode lane width must be
//! bit-identical to the scalar path (`Lanes::Width(1)`) across the full
//! ErMode × Parallelism × Granularity matrix, including lanes holding
//! chunks of different lengths, chains cancelled by an ER verdict while
//! their neighbours are still in the batch, and faulting reads contained
//! per-lane under the Quarantine policy.
//!
//! The lane sweep includes `GENPIP_LANES` (when set), which CI uses to
//! force an extra width through this suite; the parallelism sweep likewise
//! honors `GENPIP_PARALLELISM`.

use genpip::core::engine::{Flow, Granularity, Session};
use genpip::core::pipeline::{ErMode, ReadOutcome, ReadRun};
use genpip::core::scheduler::Schedule;
use genpip::core::stream::{StreamEvent, StreamOptions};
use genpip::core::{FaultPolicy, GenPipConfig, Lanes, Parallelism};
use genpip::datasets::{DatasetProfile, FaultInjector, SimulatedDataset, StreamingSimulator};

fn dataset() -> SimulatedDataset {
    DatasetProfile::ecoli().scaled(0.03).generate()
}

fn parallelism_sweep() -> Vec<Parallelism> {
    let mut sweep = vec![Parallelism::Serial, Parallelism::Threads(4)];
    if let Some(from_env) = Parallelism::from_env() {
        if !sweep.contains(&from_env) {
            sweep.push(from_env);
        }
    }
    sweep
}

/// The widths compared against the scalar oracle: a width that does not
/// divide typical batch sizes, the auto default, plus `GENPIP_LANES` when
/// the environment pins one.
fn lane_sweep() -> Vec<Lanes> {
    let mut sweep = vec![Lanes::Width(3), Lanes::Auto];
    if let Some(from_env) = Lanes::from_env() {
        if !sweep.contains(&from_env) {
            sweep.push(from_env);
        }
    }
    sweep
}

fn collect(
    dataset: &SimulatedDataset,
    config: &GenPipConfig,
    er: ErMode,
    granularity: Granularity,
) -> Vec<ReadRun> {
    let mut reads = Vec::new();
    Session::new(config.clone())
        .flow(Flow::GenPip(er))
        .granularity(granularity)
        .source("s", dataset.stream())
        .sink("s", |event| {
            if let StreamEvent::Read(run) = event {
                reads.push(run);
            }
        })
        .run()
        .expect("valid session");
    reads
}

/// The headline property: the decode lane width is a pure throughput knob.
/// For every ER mode, threading path, and scheduling granularity, every
/// lane width produces bit-identical per-read output to the scalar decode.
#[test]
fn lane_widths_are_bit_identical_to_scalar_across_the_matrix() {
    let d = dataset();
    let base = GenPipConfig::for_dataset(&d.profile);
    for er in [ErMode::None, ErMode::QsrOnly, ErMode::Full] {
        for parallelism in parallelism_sweep() {
            for granularity in [Granularity::Read, Granularity::Chunk] {
                let scalar_config = base
                    .clone()
                    .with_parallelism(parallelism)
                    .with_lanes(Lanes::Width(1));
                let scalar = collect(&d, &scalar_config, er, granularity);
                for lanes in lane_sweep() {
                    let config = base.clone().with_parallelism(parallelism).with_lanes(lanes);
                    let batched = collect(&d, &config, er, granularity);
                    assert_eq!(
                        batched, scalar,
                        "{er:?} / {parallelism:?} / {granularity:?} / {lanes:?}"
                    );
                }
            }
        }
    }
}

/// Lanes routinely hold chunks of different lengths: two sources with
/// different chunk sizes and read-length profiles share one worker pool,
/// so a single decode batch mixes full-size chunks from both configs and
/// short tail chunks. Per-source output must match the scalar run exactly.
#[test]
fn mixed_chunk_lengths_across_sources_stay_bit_identical() {
    let long = DatasetProfile::uniform("long", 4, 20_000.0);
    let short = DatasetProfile::uniform("short", 30, 700.0);
    let opts = StreamOptions {
        queue_capacity: 8,
        ..StreamOptions::default()
    };
    let config_long = GenPipConfig::for_dataset(&long);
    let config_short = GenPipConfig::for_dataset(&short).with_chunk_bases(400);
    let mut outputs: Vec<(Vec<ReadRun>, Vec<ReadRun>)> = Vec::new();
    for lanes in [Lanes::Width(1), Lanes::Width(3), Lanes::Auto] {
        let mut long_reads = Vec::new();
        let mut short_reads = Vec::new();
        Session::new(
            config_long
                .clone()
                .with_parallelism(Parallelism::Threads(2))
                .with_lanes(lanes),
        )
        .flow(Flow::GenPip(ErMode::Full))
        .schedule(Schedule::FairShare)
        .granularity(Granularity::Chunk)
        .options(opts)
        .source("long", StreamingSimulator::new(&long))
        .source_with_config(
            "short",
            StreamingSimulator::new(&short),
            config_short
                .clone()
                .with_parallelism(Parallelism::Threads(2))
                .with_lanes(lanes),
        )
        .sink("long", |event| {
            if let StreamEvent::Read(run) = event {
                long_reads.push(run);
            }
        })
        .sink("short", |event| {
            if let StreamEvent::Read(run) = event {
                short_reads.push(run);
            }
        })
        .run()
        .expect("valid session");
        outputs.push((long_reads, short_reads));
    }
    assert_eq!(outputs[0], outputs[1], "width 3 diverged from scalar");
    assert_eq!(outputs[0], outputs[2], "auto width diverged from scalar");
}

/// Chains cancelled by an ER verdict mid-batch: under `ErMode::Full` with
/// chunk granularity, QSR/CMR verdicts retire chains whose sibling chunks
/// may already sit in a worker's lane batch. The verdicts (and everything
/// else) must land exactly as in the scalar run, and the workload must
/// actually exercise both rejection kinds.
#[test]
fn verdict_cancelled_chains_mid_batch_match_scalar() {
    let d = dataset();
    let base = GenPipConfig::for_dataset(&d.profile).with_parallelism(Parallelism::Threads(4));
    let scalar = collect(
        &d,
        &base.clone().with_lanes(Lanes::Width(1)),
        ErMode::Full,
        Granularity::Chunk,
    );
    let qsr = scalar
        .iter()
        .filter(|r| matches!(r.outcome, ReadOutcome::RejectedQsr { .. }))
        .count();
    let cmr = scalar
        .iter()
        .filter(|r| matches!(r.outcome, ReadOutcome::RejectedCmr { .. }))
        .count();
    assert!(qsr > 0, "workload must exercise QSR cancellation");
    assert!(cmr > 0, "workload must exercise CMR cancellation");
    for lanes in lane_sweep() {
        let batched = collect(
            &d,
            &base.clone().with_lanes(lanes),
            ErMode::Full,
            Granularity::Chunk,
        );
        assert_eq!(batched, scalar, "{lanes:?}");
    }
}

/// Fault containment composes with lane batching: a corrupt read in a lane
/// batch is pre-screened out of the batch decode and faults inside its own
/// task's scalar step, so under Quarantine the quarantined set equals the
/// injected set and every survivor is bit-identical to the fault-free
/// scalar reference.
#[test]
fn faulting_lanes_are_contained_per_read_under_quarantine() {
    let d = dataset();
    let reference = collect(
        &d,
        &GenPipConfig::for_dataset(&d.profile)
            .with_parallelism(Parallelism::Threads(4))
            .with_lanes(Lanes::Width(1)),
        ErMode::Full,
        Granularity::Chunk,
    );
    for lanes in lane_sweep() {
        let config = GenPipConfig::for_dataset(&d.profile)
            .with_parallelism(Parallelism::Threads(4))
            .with_lanes(lanes)
            .with_fault_policy(FaultPolicy::Quarantine);
        let mut injector = FaultInjector::new(StreamingSimulator::new(&d.profile), 0.2, 42);
        let mut survivors = Vec::new();
        let mut failed_ids = Vec::new();
        Session::new(config)
            .flow(Flow::GenPip(ErMode::Full))
            .granularity(Granularity::Chunk)
            .options(StreamOptions {
                queue_capacity: 8,
                ..StreamOptions::default()
            })
            .source("faulty", &mut injector)
            .sink("faulty", |event| match event {
                StreamEvent::Read(run) => survivors.push(run),
                StreamEvent::Failed { read_id, .. } => failed_ids.push(read_id),
                _ => {}
            })
            .run()
            .expect("valid session");
        let mut injected = injector.injected_ids().to_vec();
        injected.sort_unstable();
        assert!(!injected.is_empty(), "injector must fire at 20%");
        failed_ids.sort_unstable();
        assert_eq!(failed_ids, injected, "{lanes:?}: quarantined != injected");
        let expected: Vec<ReadRun> = reference
            .iter()
            .filter(|run| !injected.contains(&run.id))
            .cloned()
            .collect();
        assert_eq!(survivors, expected, "{lanes:?}: survivors diverged");
    }
}
