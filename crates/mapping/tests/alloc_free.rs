//! Verifies that steady-state alignment with a reused [`AlignScratch`]
//! performs **zero heap allocations** of working memory: a counting global
//! allocator observes the allocator while reads stream through
//! `AlignScratch::align` and `Mapper::finalize_mapping_with`.

use genpip_genomics::rng::seeded;
use genpip_genomics::{DnaSeq, ErrorModel, GenomeBuilder};
use genpip_mapping::align::AlignmentParams;
use genpip_mapping::{AlignScratch, CigarOp, IncrementalChainer, Mapper, MapperParams, Strand};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Counting is per-thread, flag and totals alike: the libtest harness's main
// thread may allocate at an arbitrary moment while a test runs, and the two
// tests here run on parallel threads, one of them allocating by design.
// Only the aligning thread's own allocations are a test's concern.
// (Const-initialized thread-locals never allocate, so touching them inside
// the allocator is safe.)
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes));
    }
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting on; returns its result and the
/// (allocations, bytes) it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    ALLOCS.with(|a| a.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Noisy 1.5 kb reads from several loci of one genome, with their chainers
/// filled the way the chunk pipeline leaves them before finalization.
fn chained_reads(
    mapper: &Mapper,
    genome: &DnaSeq,
) -> Vec<(DnaSeq, IncrementalChainer, IncrementalChainer)> {
    let mut rng = seeded(31);
    [2_000usize, 9_000, 17_000, 26_000, 33_000]
        .iter()
        .map(|&start| {
            let truth = genome.subseq(start, 1_500);
            let (read, _) = ErrorModel::with_total_rate(0.1).apply(&truth, &mut rng);
            let (mut fwd, mut rev) = mapper.new_chainers();
            let (batch, _) = mapper.sketch_and_seed(&read, 0);
            fwd.extend(&batch.forward);
            rev.extend(&batch.reverse);
            (read, fwd, rev)
        })
        .collect()
}

#[test]
fn steady_state_alignment_is_allocation_free() {
    let genome = GenomeBuilder::new(12_000).seed(3).build();
    let mut rng = seeded(5);
    let params = AlignmentParams::default();
    let reads: Vec<(DnaSeq, usize)> = [1_000usize, 4_000, 7_000]
        .iter()
        .map(|&start| {
            let truth = genome.sequence().subseq(start, 2_000);
            (
                ErrorModel::with_total_rate(0.15).apply(&truth, &mut rng).0,
                start - 40,
            )
        })
        .collect();

    // Warm-up: one pass sizes every buffer for the largest read.
    let mut scratch = AlignScratch::new();
    for (read, start) in &reads {
        scratch.load_query(read);
        scratch.load_window(genome.sequence(), *start, 2_080, Strand::Forward);
        scratch.align(&params, 40, 96);
    }

    let (total, allocs, _) = counted(|| {
        let mut total = 0i64;
        for (read, start) in &reads {
            scratch.load_query(read);
            scratch.load_window(genome.sequence(), *start, 2_080, Strand::Forward);
            total += i64::from(scratch.align(&params, 40, 96).score);
        }
        total
    });
    assert!(total > 0, "reads align to their own loci");
    assert_eq!(allocs, 0, "steady-state alignment allocated {allocs} times");
}

#[test]
fn steady_state_finalize_allocates_only_the_returned_cigar() {
    let genome = GenomeBuilder::new(40_000).seed(9).build();
    let mapper = Mapper::build(&genome, MapperParams::default());
    let reads = chained_reads(&mapper, genome.sequence());

    let mut scratch = AlignScratch::new();
    let warm: Vec<_> = reads
        .iter()
        .map(|(read, fwd, rev)| mapper.finalize_mapping_with(read, fwd, rev, &mut scratch))
        .collect();

    let mut results = Vec::with_capacity(reads.len());
    let ((), allocs, bytes) = counted(|| {
        for (read, fwd, rev) in &reads {
            results.push(mapper.finalize_mapping_with(read, fwd, rev, &mut scratch));
        }
    });
    assert_eq!(results, warm, "scratch reuse changed a result");

    // A mapped read owns its CIGAR, sized exactly; nothing else may touch
    // the allocator.
    let cigars: Vec<&[CigarOp]> = results
        .iter()
        .filter_map(|(m, _, _)| m.as_ref().map(|m| m.cigar.as_slice()))
        .collect();
    assert_eq!(cigars.len(), reads.len(), "every read maps");
    let cigar_bytes: usize = cigars.iter().map(|c| std::mem::size_of_val(*c)).sum();
    assert_eq!(
        (allocs, bytes),
        (cigars.len(), cigar_bytes),
        "finalize_mapping_with allocated beyond the returned CIGARs"
    );
}
