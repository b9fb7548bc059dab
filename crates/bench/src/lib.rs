//! # contrarc-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ContrArc paper's evaluation (Section V):
//!
//! | artifact | binary | what it reproduces |
//! |---|---|---|
//! | Table I  | `table1` | the RPL template & library contents |
//! | Fig. 5(a) | `fig5a` | RPL runtime: ContrArc vs the ArchEx-style baseline over `n` |
//! | Fig. 5(b) | `fig5b` | RPL runtime: monolithic vs compositional (Comb B) over `n` |
//! | Table II | `table2` | EPN size/time/iterations for the three ablation modes |
//!
//! Wall-clock performance is measured by the exploration benchmark under
//! `benchmark/` (its own workspace, with workloads and bounds declared in
//! `BENCHMARK.json`); these binaries regenerate the paper's artifacts.
//!
//! Absolute numbers differ from the paper (our simplex-based MILP solver
//! replaces Gurobi); the claims that must reproduce are the *relative*
//! behaviours — see EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

/// Standard tracing setup for the harness binaries: honour
/// `CONTRARC_TRACE=path.jsonl` (full JSONL trace to a file), and otherwise
/// install the stderr pretty-printer so progress events stay visible.
/// Returns `true` when a JSONL trace file is being written.
pub fn init_bin_tracing() -> bool {
    match contrarc_obs::init_from_env() {
        Ok(true) => true,
        Ok(false) => {
            contrarc_obs::install_sink(std::sync::Arc::new(contrarc_obs::sinks::StderrPrettySink));
            false
        }
        Err(e) => {
            eprintln!("warning: CONTRARC_TRACE setup failed ({e}); tracing to stderr instead");
            contrarc_obs::install_sink(std::sync::Arc::new(contrarc_obs::sinks::StderrPrettySink));
            false
        }
    }
}
