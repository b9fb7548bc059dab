//! Branch-and-bound node LPs allocate only what outlives the node.
//!
//! Every LP of one solve works in one workspace, so after the first node a
//! node allocates little more than what it hands on: the LP solution vector,
//! the basis snapshot its children warm-start from and the children's
//! branching steps. A counting global allocator, which counts the
//! allocations of the test's own thread only, measures this on a knapsack
//! that needs well over 50 nodes.
//!
//! No other test shares this binary, since the allocator is process-wide.

use contrarc_milp::{Budget, Cmp, LinExpr, Model, Sense, SolveError, SolveOptions, Solver};
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

/// A 0/1 knapsack with three capacities, its values correlated with its
/// weights, which leaves the LP bound loose and the tree deep.
fn knapsack() -> Model {
    let mut m = Model::new("knapsack");
    let xs: Vec<_> = (0..16).map(|i| m.add_binary(format!("x{i}"))).collect();
    let mut value = LinExpr::new();
    for k in 0..3u32 {
        let mut weight = LinExpr::new();
        let mut total = 0.0;
        for (i, &x) in (0u32..).zip(&xs) {
            let w = f64::from(7 + (i * 37 + k * 11) % 23);
            weight.add_term(x, w);
            if k == 0 {
                value.add_term(x, w + f64::from(3 + (i * 5) % 7));
            }
            total += w;
        }
        m.add_constr(
            format!("capacity{k}"),
            weight,
            Cmp::Le,
            (total / 2.0).floor() + 0.5,
        )
        .unwrap();
    }
    m.set_objective(Sense::Maximize, value);
    m
}

/// Allocations per node after the first. When every node LP allocated its
/// own buffers, a node made about 116–128 allocations on the exploration
/// benchmark's models and 61 on this knapsack; with one workspace per solve
/// it makes 7.1 here: the solution vector, the basis snapshot (three) and
/// the children's branching steps (two), plus the heap's growth.
const MAX_ALLOCATIONS_PER_NODE: f64 = 8.0;

#[test]
fn nodes_after_the_first_allocate_only_what_outlives_them() {
    let model = knapsack();
    let solver = Solver::new(SolveOptions::default());
    let (outcome, full) = counted(|| solver.solve(&model).expect("the knapsack solves"));
    let nodes = outcome.stats().nodes;
    assert!(nodes >= 50, "the knapsack needs only {nodes} nodes");

    // The same solve stopped by a one-node budget: the setup and the root
    // node, the part every solve pays before its second node.
    let one_node =
        Solver::new(SolveOptions::default().with_budget(Budget::unlimited().with_node_limit(1)));
    let (stopped, first) = counted(|| one_node.solve(&model));
    assert_eq!(stopped.unwrap_err(), SolveError::NodeLimit { limit: 1 });

    let per_node = (full - first) as f64 / (nodes - 1) as f64;
    assert!(
        per_node < MAX_ALLOCATIONS_PER_NODE,
        "{per_node:.2} allocations per node after the first \
         ({full} in {nodes} nodes, {first} up to the second)"
    );
}
