//! The benchmark's workloads: which simulated run each name packs, and the
//! session configuration every run of it uses.

use genpip_core::{FaultPolicy, GenPipConfig, Parallelism};
use genpip_datasets::DatasetProfile;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The E. coli profile (700 reads): the paper's headline case, where
    /// early rejection skips about a quarter of the signal.
    EcoliEr,
    /// 100 high-quality ~10 kb reads from the reference: alignment-heavy,
    /// early rejection mostly bypassed. Runnable, but not in
    /// `BENCHMARK.json`: its timings spread too widely across seeds.
    LongHq,
    /// Human profile at full scale with every fully basecalled read written
    /// to FASTQ: the largest, most repetitive index and the most seeding.
    HumanFastq,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::EcoliEr, Workload::LongHq, Workload::HumanFastq];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EcoliEr => "ecoli_er",
            Workload::LongHq => "long_hq",
            Workload::HumanFastq => "human_fastq",
        }
    }

    /// The simulated run, with `seed` as its master seed.
    pub fn profile(self, seed: u64) -> DatasetProfile {
        let mut profile = match self {
            Workload::EcoliEr => DatasetProfile::ecoli(),
            Workload::LongHq => DatasetProfile::uniform("long_hq", 100, 10_000.0),
            Workload::HumanFastq => DatasetProfile::human(),
        };
        profile.seed = seed;
        profile
    }

    /// Whether the run writes every fully basecalled read to FASTQ.
    pub fn writes_fastq(self) -> bool {
        self == Workload::HumanFastq
    }

    /// The session configuration: the paper's operating point for the
    /// profile, `workers` threads, quarantine on faults, called bases kept
    /// only where FASTQ is written; defaults otherwise.
    pub fn config(self, workers: usize) -> GenPipConfig {
        GenPipConfig::for_dataset(&self.profile(0))
            .with_parallelism(Parallelism::Threads(workers))
            .with_fault_policy(FaultPolicy::Quarantine)
            .with_keep_bases(self.writes_fastq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_seed_overrides_profile() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(w.profile(42).seed, 42);
            assert!(w.profile(42).n_reads >= 100, "p90 needs 100 reads");
        }
        assert_eq!(Workload::parse("bogus"), None);
        assert_eq!(Workload::HumanFastq.config(2).n_qs, 5);
        assert!(Workload::HumanFastq.config(2).keep_bases);
        assert!(!Workload::EcoliEr.config(2).keep_bases);
    }
}
