//! The per-read record the correctness gate compares: what the session
//! emitted against what the traced replay computed, field by field.

use genpip_core::{ReadOutcome, ReadRun};
use genpip_mapping::{CigarOp, Strand};

/// The outcome class of a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    RejectedQsr,
    RejectedCmr,
    FilteredQc,
    Unmapped,
    Mapped,
    /// Quarantined by the session after a fault.
    Failed,
}

impl OutcomeKind {
    /// The class of `outcome`.
    pub fn of(outcome: &ReadOutcome) -> OutcomeKind {
        match outcome {
            ReadOutcome::RejectedQsr { .. } => OutcomeKind::RejectedQsr,
            ReadOutcome::RejectedCmr { .. } => OutcomeKind::RejectedCmr,
            ReadOutcome::FilteredQc { .. } => OutcomeKind::FilteredQc,
            ReadOutcome::Unmapped { .. } => OutcomeKind::Unmapped,
            ReadOutcome::Mapped(_) => OutcomeKind::Mapped,
        }
    }

    /// An early-rejection verdict (QSR or CMR).
    pub fn is_early_rejected(self) -> bool {
        matches!(self, OutcomeKind::RejectedQsr | OutcomeKind::RejectedCmr)
    }
}

/// Where a mapped read landed.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub ref_start: usize,
    pub ref_end: usize,
    pub strand: Strand,
    pub cigar: Vec<CigarOp>,
    /// `Mapping::identity`; reported, not compared.
    pub identity: f64,
}

/// One read's gate record.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadDigest {
    pub id: u32,
    pub kind: OutcomeKind,
    pub placement: Option<Placement>,
    /// Raw samples in the read's signal (offered to the pipeline).
    pub samples_offered: usize,
    /// Raw samples basecalled.
    pub samples_decoded: usize,
    pub minimizers: usize,
    pub anchors: usize,
    pub chain_evals: usize,
    pub dp_cells: usize,
    /// Whether the read carries assembled bases (a FASTQ record).
    pub has_bases: bool,
}

impl ReadDigest {
    /// The digest of a read the session emitted.
    pub fn of_run(run: &ReadRun) -> ReadDigest {
        ReadDigest {
            id: run.id,
            kind: OutcomeKind::of(&run.outcome),
            placement: run.outcome.mapping().map(|m| Placement {
                ref_start: m.ref_start,
                ref_end: m.ref_end,
                strand: m.strand,
                cigar: m.cigar.clone(),
                identity: m.identity,
            }),
            samples_offered: run.signal_samples,
            samples_decoded: run.basecalled_samples(),
            minimizers: run.map_counters.minimizers,
            anchors: run.map_counters.anchors,
            chain_evals: run.map_counters.chain_evals,
            dp_cells: run.align_cells,
            has_bases: run.called.is_some(),
        }
    }

    /// The digest of a read the session quarantined.
    pub fn failed(id: u32) -> ReadDigest {
        ReadDigest {
            id,
            kind: OutcomeKind::Failed,
            placement: None,
            samples_offered: 0,
            samples_decoded: 0,
            minimizers: 0,
            anchors: 0,
            chain_evals: 0,
            dp_cells: 0,
            has_bases: false,
        }
    }

    /// The fields on which `self` and `other` differ, by name; empty when
    /// they agree on everything the gate checks.
    pub fn mismatches(&self, other: &ReadDigest) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut check = |same: bool, field: &'static str| {
            if !same {
                out.push(field);
            }
        };
        check(self.id == other.id, "id");
        check(self.kind == other.kind, "outcome");
        let (a, b) = (&self.placement, &other.placement);
        check(
            a.as_ref().map(|p| (p.ref_start, p.ref_end))
                == b.as_ref().map(|p| (p.ref_start, p.ref_end)),
            "mapping span",
        );
        check(
            a.as_ref().map(|p| p.strand) == b.as_ref().map(|p| p.strand),
            "strand",
        );
        check(
            a.as_ref().map(|p| &p.cigar) == b.as_ref().map(|p| &p.cigar),
            "cigar",
        );
        check(
            self.samples_offered == other.samples_offered,
            "samples offered",
        );
        check(
            self.samples_decoded == other.samples_decoded,
            "samples decoded",
        );
        check(self.minimizers == other.minimizers, "minimizers");
        check(self.anchors == other.anchors, "anchors");
        check(self.chain_evals == other.chain_evals, "chain evaluations");
        check(self.dp_cells == other.dp_cells, "dp cells");
        check(self.has_bases == other.has_bases, "called bases");
        out
    }
}
