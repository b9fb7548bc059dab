//! A refinement check allocates the query models it solves, not copies of
//! the contracts it reads.
//!
//! Each check builds its two feasibility queries, `A' ∧ ¬A` and
//! `sat(G) ∧ ¬sat(G')`, straight from the borrowed component and system
//! contracts, and encodes them with unnamed rows and selectors. A counting
//! global allocator, which counts the allocations of the test's own thread
//! only, measures one uncached `check_candidate_all_cached` on the first
//! candidate of EPN (1,0,0): the candidate every exploration of that
//! instance checks first.
//!
//! No other test shares this binary, since the allocator is process-wide.

use contrarc::encode::encode_problem2;
use contrarc::refinement::check_candidate_all_cached;
use contrarc::{Architecture, RefinementConfig};
use contrarc_contracts::RefinementChecker;
use contrarc_milp::SolveOptions;
use contrarc_systems::epn::{self, EpnConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting the allocations (reallocations included) of threads
/// that opted in.
struct Counting;

thread_local! {
    /// `Some(n)`: this thread counts, and has made `n` allocations so far.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: a thread's allocations after its locals are torn down
    // are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-init
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let made = ALLOCATIONS.with(|n| n.replace(None)).unwrap_or(0);
    (out, made)
}

/// Allocations of the check. When each query was an owned `Pred` (the
/// composite contract, both query formulas and their owned NNF copies) and
/// every generated row and selector got a formatted name, the check made
/// 1,319; built from the borrowed contracts with unnamed rows it makes 918.
/// What remains is mostly the query models and their solves: the
/// vocabulary's variables, the rows, presolve, the standard form and a
/// fresh LP workspace per query.
const MAX_ALLOCATIONS: u64 = 1_000;

#[test]
fn a_refinement_check_allocates_no_contract_copies() {
    let problem = epn::build(&EpnConfig::default());
    let enc = encode_problem2(&problem).expect("EPN (1,0,0) encodes");
    let solution = enc
        .model
        .solve(&SolveOptions::default())
        .expect("the first selection solves")
        .expect_optimal()
        .expect("EPN (1,0,0) has a candidate");
    let arch = Architecture::decode(&problem, &enc, &solution);
    let config = RefinementConfig::default();
    let checker = RefinementChecker::new();
    let check = || check_candidate_all_cached(&problem, &arch, &config, &checker, None);

    // One uncounted run first, so that what any code path sets up once
    // per process is not counted.
    let first = check().expect("the candidate is checked");
    let (again, made) = counted(check);
    assert_eq!(again.expect("the candidate is checked"), first);
    assert!(
        !first.is_empty(),
        "the first candidate violates a viewpoint"
    );
    assert!(
        made <= MAX_ALLOCATIONS,
        "{made} allocations in one refinement check of EPN (1,0,0)'s first candidate"
    );
}
