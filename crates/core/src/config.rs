//! GenPIP configuration.

use genpip_datasets::DatasetProfile;
use genpip_genomics::Genome;
use genpip_mapping::{MapperParams, Shards};
use std::sync::Arc;

/// How many software worker threads the [`Session`](crate::engine::Session)
/// engine spreads reads across.
///
/// Results are **bit-identical** across all settings: reads are independent,
/// every worker computes deterministically, and results are reassembled in
/// read order. The knob only trades wall-clock time for cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread, no pool — the reference execution.
    Serial,
    /// A fixed worker count (clamped to ≥ 1).
    Threads(usize),
    /// One worker per available hardware thread.
    #[default]
    Auto,
}

impl Parallelism {
    /// The concrete worker count this setting resolves to on this machine.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Parses a parallelism spelling: `"serial"`, `"auto"`, or a worker
    /// count (e.g. `"4"` → `Threads(4)`). `None` for anything else.
    pub fn parse(s: &str) -> Option<Parallelism> {
        match s.trim().to_ascii_lowercase().as_str() {
            "serial" => Some(Parallelism::Serial),
            "auto" => Some(Parallelism::Auto),
            n => n.parse::<usize>().ok().map(Parallelism::Threads),
        }
    }

    /// The setting named by the `GENPIP_PARALLELISM` environment variable
    /// (same spellings as [`Parallelism::parse`]), or `None` when unset or
    /// unparseable. CI's test matrix sets this to force both threading
    /// paths through every test that consults it.
    pub fn from_env() -> Option<Parallelism> {
        Parallelism::parse(&std::env::var("GENPIP_PARALLELISM").ok()?)
    }

    /// [`Parallelism::from_env`] with a fallback.
    pub fn from_env_or(default: Parallelism) -> Parallelism {
        Parallelism::from_env().unwrap_or(default)
    }
}

/// How many decode lanes the engine's workers batch basecall chunk tasks
/// into ([`genpip_basecall::LaneDecoder`]): a worker gathers up to W
/// dispatchable chunk tasks and decodes their next chunks in one batch.
///
/// Like [`Parallelism`], this is a pure scheduling knob: every chunk is
/// decoded by the same Viterbi row kernel, so lane-batched output is
/// **bit-identical** to scalar decode for every width and the setting only
/// changes the order in which queued chunk work runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Lanes {
    /// A sensible multi-lane default for this build
    /// ([`Lanes::AUTO_WIDTH`]).
    #[default]
    Auto,
    /// A fixed lane width (clamped to `1..=`[`genpip_basecall::MAX_LANES`]).
    Width(usize),
}

impl Lanes {
    /// The width [`Lanes::Auto`] resolves to.
    pub const AUTO_WIDTH: usize = 8;

    /// The concrete lane width this setting resolves to.
    pub fn width(self) -> usize {
        match self {
            Lanes::Auto => Self::AUTO_WIDTH,
            Lanes::Width(n) => n.clamp(1, genpip_basecall::MAX_LANES),
        }
    }

    /// Parses a lane spelling: `"auto"` or a width ≥ 1 (e.g. `"4"` →
    /// `Width(4)`). `None` for `"0"` and anything else unparseable — a
    /// zero width is a user error, not a clamp.
    pub fn parse(s: &str) -> Option<Lanes> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(Lanes::Auto),
            n => match n.parse::<usize>().ok()? {
                0 => None,
                w => Some(Lanes::Width(w)),
            },
        }
    }

    /// The setting named by the `GENPIP_LANES` environment variable (same
    /// spellings as [`Lanes::parse`]), or `None` when unset or unparseable.
    /// CI's test matrix sets this to force distinct lane widths through
    /// every test that consults it.
    pub fn from_env() -> Option<Lanes> {
        Lanes::parse(&std::env::var("GENPIP_LANES").ok()?)
    }

    /// [`Lanes::from_env`] with a fallback.
    pub fn from_env_or(default: Lanes) -> Lanes {
        Lanes::from_env().unwrap_or(default)
    }
}

/// What the engine does with a read whose chunk task faults (panics or
/// trips a signal-integrity check) mid-chain.
///
/// Containment never changes surviving reads' results: a faulted read's
/// remaining chunks are cancelled through the same path as an early-rejection
/// verdict, its flow permit is released, and every other read proceeds
/// untouched — so survivors stay bit-identical to a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Propagate the panic and tear the whole session down (the historical
    /// behaviour, and the right one for faults that indicate a bug in the
    /// pipeline rather than a bad read).
    #[default]
    Fail,
    /// Contain the fault: cancel the read's remaining chunks, emit it as
    /// [`crate::stream::StreamEvent::Failed`], and keep the session running.
    Quarantine,
    /// Like [`FaultPolicy::Quarantine`], but first rebuild the read's chain
    /// from its untouched signal and re-run it up to `attempts` extra times
    /// (deterministically scheduled); quarantine only if every attempt
    /// faults. Absorbs transient faults without losing the read.
    Retry {
        /// Extra attempts after the first fault (0 behaves like
        /// `Quarantine`).
        attempts: u32,
    },
}

impl FaultPolicy {
    /// Parses a CLI spelling: `"fail"`, `"quarantine"`, `"retry"` (2 extra
    /// attempts), or `"retry:N"`. `None` for anything else.
    pub fn parse(s: &str) -> Option<FaultPolicy> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "fail" => Some(FaultPolicy::Fail),
            "quarantine" => Some(FaultPolicy::Quarantine),
            "retry" => Some(FaultPolicy::Retry { attempts: 2 }),
            _ => {
                let n = s.strip_prefix("retry:")?.parse().ok()?;
                Some(FaultPolicy::Retry { attempts: n })
            }
        }
    }

    /// Extra attempts this policy grants after a first fault.
    pub(crate) fn retry_attempts(self) -> u32 {
        match self {
            FaultPolicy::Retry { attempts } => attempts,
            _ => 0,
        }
    }
}

/// All knobs of the GenPIP system.
///
/// The dataset-dependent values follow the paper's sensitivity analysis
/// (Section 6.3): `N_qs` = 2 (E. coli) / 5 (human) sampled chunks for QSR,
/// `N_cm` = 5 (E. coli) / 3 (human) combined chunks for CMR, quality
/// threshold `θ_qs` = 7 throughout.
#[derive(Debug, Clone, PartialEq)]
pub struct GenPipConfig {
    /// Chunk size in bases (the paper evaluates 300/400/500; 300 is the
    /// basecaller default).
    pub chunk_bases: usize,
    /// Number of evenly-spaced chunks QSR samples (`N_qs`).
    pub n_qs: usize,
    /// Number of leading consecutive chunks CMR combines (`N_cm`).
    pub n_cm: usize,
    /// Read-quality threshold (`θ_qs`), in Phred units.
    pub theta_qs: f64,
    /// Chaining-score threshold (`θ_cm`) applied to the CMR large chunk and
    /// to the whole read before alignment.
    pub theta_cm: f64,
    /// Read-mapper parameters.
    pub mapper: MapperParams,
    /// Software worker threading of the pipeline drivers (never changes
    /// results, only wall-clock time).
    pub parallelism: Parallelism,
    /// Lane width of the workers' batched Viterbi decode (never changes
    /// results, only throughput; see [`Lanes`]).
    pub lanes: Lanes,
    /// Keep each fully-basecalled read's sequence and per-base qualities on
    /// its [`crate::pipeline::ReadRun`] (`ReadRun::called`), so sinks can
    /// serialize real output (e.g. FASTQ) instead of counters. Off by
    /// default: early-rejected reads never have assembled bases, and runs
    /// that only need counters should not pay the memory.
    pub keep_bases: bool,
    /// What to do with a read whose chunk task faults mid-chain (see
    /// [`FaultPolicy`]). Per-source config overrides let each source of a
    /// session pick its own policy.
    pub fault_policy: FaultPolicy,
    /// Additional references mapped alongside each source's own reference
    /// (pan-genome sessions). Every read fans out across the source's
    /// reference plus these, and the best hit is merged deterministically
    /// (chain score, then reference name, then position). Empty by default —
    /// single-reference runs stay byte-for-byte what they always were.
    pub extra_references: Vec<Arc<Genome>>,
}

impl GenPipConfig {
    /// The paper's operating point for a dataset profile.
    pub fn for_dataset(profile: &DatasetProfile) -> GenPipConfig {
        GenPipConfig::for_reference_name(profile.name)
    }

    /// The paper's operating point, keyed by reference name alone — for
    /// sources whose dataset profile is not available, such as an on-disk
    /// signal container that only embeds its reference genome. Matches
    /// [`GenPipConfig::for_dataset`] for every built-in profile, so a file
    /// replay of a simulated dataset runs the same `N_qs`/`N_cm`.
    pub fn for_reference_name(name: &str) -> GenPipConfig {
        let mut config = GenPipConfig::default();
        match name {
            "human" => {
                config.n_qs = 5;
                config.n_cm = 3;
            }
            _ => {
                // E. coli defaults (also the fallback for custom profiles).
                config.n_qs = 2;
                config.n_cm = 5;
            }
        }
        config
    }

    /// Overrides the chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bases` is 0.
    pub fn with_chunk_bases(mut self, chunk_bases: usize) -> GenPipConfig {
        assert!(chunk_bases > 0, "chunk size must be positive");
        self.chunk_bases = chunk_bases;
        self
    }

    /// Overrides the threading of the pipeline drivers.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> GenPipConfig {
        self.parallelism = parallelism;
        self
    }

    /// Overrides the decode lane width (see [`Lanes`]). Like
    /// [`GenPipConfig::with_parallelism`], this never changes results —
    /// lane-batched decode is bit-identical to scalar for every width.
    pub fn with_lanes(mut self, lanes: Lanes) -> GenPipConfig {
        self.lanes = lanes;
        self
    }

    /// Overrides how many position-range shards the reference minimizer
    /// index is split into ([`Shards`]). Like
    /// [`GenPipConfig::with_parallelism`], this never changes results —
    /// mapping output is bit-identical for every shard count; the knob
    /// bounds per-shard index memory and maps shards onto the PIM seeding
    /// unit's CAM subarray groups.
    pub fn with_shards(mut self, shards: Shards) -> GenPipConfig {
        self.mapper.shards = shards;
        self
    }

    /// Enables or disables retaining basecalled sequences on emitted reads
    /// (see [`GenPipConfig::keep_bases`]). Never changes outcomes or
    /// counters — only whether `ReadRun::called` is populated.
    pub fn with_keep_bases(mut self, keep_bases: bool) -> GenPipConfig {
        self.keep_bases = keep_bases;
        self
    }

    /// Overrides the fault policy (see [`FaultPolicy`]). Never changes
    /// surviving reads' results — only what happens to faulting ones.
    pub fn with_fault_policy(mut self, fault_policy: FaultPolicy) -> GenPipConfig {
        self.fault_policy = fault_policy;
        self
    }

    /// Adds references mapped alongside each source's own reference
    /// (see [`GenPipConfig::extra_references`]). Reference names must be
    /// unique across the source reference and all extras; the session
    /// engine validates this at start/attach time.
    pub fn with_extra_references(mut self, extra_references: Vec<Arc<Genome>>) -> GenPipConfig {
        self.extra_references = extra_references;
        self
    }

    /// Signal samples per chunk for a given mean dwell (samples/base).
    pub fn samples_per_chunk(&self, mean_dwell: f64) -> usize {
        genpip_signal::chunk::samples_per_chunk(self.chunk_bases, mean_dwell)
    }
}

impl Default for GenPipConfig {
    /// E. coli operating point, 300-base chunks.
    fn default() -> GenPipConfig {
        GenPipConfig {
            chunk_bases: 300,
            n_qs: 2,
            n_cm: 5,
            theta_qs: 7.0,
            theta_cm: 55.0,
            mapper: MapperParams::default(),
            parallelism: Parallelism::default(),
            lanes: Lanes::default(),
            keep_bases: false,
            fault_policy: FaultPolicy::default(),
            extra_references: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_operating_points_match_the_paper() {
        let e = GenPipConfig::for_dataset(&DatasetProfile::ecoli());
        assert_eq!((e.n_qs, e.n_cm), (2, 5));
        let h = GenPipConfig::for_dataset(&DatasetProfile::human());
        assert_eq!((h.n_qs, h.n_cm), (5, 3));
        assert_eq!(e.theta_qs, 7.0);
        assert_eq!(h.theta_qs, 7.0);
    }

    #[test]
    fn chunk_size_override() {
        let c = GenPipConfig::default().with_chunk_bases(400);
        assert_eq!(c.chunk_bases, 400);
        assert_eq!(c.samples_per_chunk(8.0), 3200);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_rejected() {
        let _ = GenPipConfig::default().with_chunk_bases(0);
    }

    #[test]
    fn parallelism_resolves_to_sane_worker_counts() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert_eq!(
            Parallelism::Threads(0).workers(),
            1,
            "clamped to one worker"
        );
        assert!(Parallelism::Auto.workers() >= 1);
        let c = GenPipConfig::default().with_parallelism(Parallelism::Threads(2));
        assert_eq!(c.parallelism, Parallelism::Threads(2));
    }

    #[test]
    fn shard_override_reaches_the_mapper_params() {
        let c = GenPipConfig::default().with_shards(Shards::Fixed(6));
        assert_eq!(c.mapper.shards, Shards::Fixed(6));
        assert_eq!(GenPipConfig::default().mapper.shards, Shards::Single);
    }

    #[test]
    fn fault_policy_parses_the_cli_spellings() {
        assert_eq!(FaultPolicy::parse("fail"), Some(FaultPolicy::Fail));
        assert_eq!(
            FaultPolicy::parse(" Quarantine "),
            Some(FaultPolicy::Quarantine)
        );
        assert_eq!(
            FaultPolicy::parse("retry"),
            Some(FaultPolicy::Retry { attempts: 2 })
        );
        assert_eq!(
            FaultPolicy::parse("retry:5"),
            Some(FaultPolicy::Retry { attempts: 5 })
        );
        assert_eq!(FaultPolicy::parse("retry:x"), None);
        assert_eq!(FaultPolicy::parse("bogus"), None);
        assert_eq!(FaultPolicy::default(), FaultPolicy::Fail);
        assert_eq!(FaultPolicy::Fail.retry_attempts(), 0);
        assert_eq!(FaultPolicy::Quarantine.retry_attempts(), 0);
        assert_eq!(FaultPolicy::Retry { attempts: 3 }.retry_attempts(), 3);
    }

    #[test]
    fn lanes_parse_and_clamp() {
        assert_eq!(Lanes::parse("auto"), Some(Lanes::Auto));
        assert_eq!(Lanes::parse(" 4 "), Some(Lanes::Width(4)));
        assert_eq!(Lanes::parse("0"), None, "zero width is a user error");
        assert_eq!(Lanes::parse("bogus"), None);
        assert_eq!(Lanes::parse(""), None);
        assert_eq!(Lanes::default(), Lanes::Auto);
        assert_eq!(Lanes::Auto.width(), Lanes::AUTO_WIDTH);
        assert_eq!(Lanes::Width(3).width(), 3);
        assert_eq!(Lanes::Width(10_000).width(), genpip_basecall::MAX_LANES);
        const { assert!(Lanes::AUTO_WIDTH <= genpip_basecall::MAX_LANES) };
        let c = GenPipConfig::default().with_lanes(Lanes::Width(2));
        assert_eq!(c.lanes, Lanes::Width(2));
        assert_eq!(GenPipConfig::default().lanes, Lanes::Auto);
    }

    #[test]
    fn parallelism_parses_the_env_spellings() {
        assert_eq!(Parallelism::parse("serial"), Some(Parallelism::Serial));
        assert_eq!(Parallelism::parse("  AUTO "), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse("4"), Some(Parallelism::Threads(4)));
        assert_eq!(Parallelism::parse("bogus"), None);
        assert_eq!(Parallelism::parse(""), None);
    }
}
