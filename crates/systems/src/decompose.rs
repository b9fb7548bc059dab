//! Compositional RPL exploration (Fig. 5(b) of the paper).
//!
//! Instead of synthesizing both production lines in one template, the system
//! is decomposed: line A is synthesized first against the aggregated *Comb B*
//! contract standing in for the whole B line, then line B is synthesized
//! independently, and finally the composition of line B's component
//! contracts is verified to refine the Comb B contract — a single refinement
//! check instead of a joint exploration.

use crate::rpl::{build, RplConfig, RplLines};
use contrarc::gen::build_flow_model;
use contrarc::{explore, Exploration, ExplorationStats, ExploreError, ExplorerConfig};
use contrarc_contracts::RefinementChecker;
use std::time::Instant;

/// Result of a decomposed RPL exploration.
#[derive(Debug, Clone)]
pub struct DecomposedResult {
    /// Exploration outcome for line A.
    pub line_a: Exploration,
    /// Exploration outcome for line B.
    pub line_b: Exploration,
    /// Whether line B's composition refines the aggregated Comb B contract
    /// (the compatibility check of Section V-A).
    pub compatibility_ok: bool,
    /// Seconds spent in the final compatibility refinement check.
    pub compat_time: f64,
    /// Wall-clock seconds for the whole decomposed run (problem building,
    /// both line explorations, and the compatibility check) — measured at
    /// this level, not summed from the sub-runs, so nothing is under-counted
    /// when a line exits early.
    pub total_time: f64,
}

impl DecomposedResult {
    /// Total cost when both lines are feasible and compatible.
    #[must_use]
    pub fn total_cost(&self) -> Option<f64> {
        match (self.line_a.architecture(), self.line_b.architecture()) {
            (Some(a), Some(b)) if self.compatibility_ok => Some(a.cost() + b.cost()),
            _ => None,
        }
    }

    /// Aggregate statistics across both sub-runs, comparable with a
    /// monolithic exploration's stats: work counters and phase times are
    /// summed (the compatibility check counts as refinement time), while
    /// `total_time` is the decomposed run's own wall clock.
    #[must_use]
    pub fn combined_stats(&self) -> ExplorationStats {
        let a = self.line_a.stats();
        let b = self.line_b.stats();
        ExplorationStats {
            iterations: a.iterations + b.iterations,
            cuts_added: a.cuts_added + b.cuts_added,
            milp_vars: a.milp_vars + b.milp_vars,
            milp_constraints: a.milp_constraints + b.milp_constraints,
            milp_time: a.milp_time + b.milp_time,
            refine_time: a.refine_time + b.refine_time + self.compat_time,
            cert_time: a.cert_time + b.cert_time,
            total_time: self.total_time,
            cache_hits: a.cache_hits + b.cache_hits,
            cache_misses: a.cache_misses + b.cache_misses,
        }
    }
}

/// Explore the two RPL lines compositionally.
///
/// # Errors
///
/// Propagates exploration failures from either line.
pub fn explore_decomposed(
    config: &RplConfig,
    explorer_config: &ExplorerConfig,
) -> Result<DecomposedResult, ExploreError> {
    let start = Instant::now();
    let problem_a = build(config, RplLines::LineA);
    let line_a = {
        let _span = contrarc_obs::span!("decompose.line", line = "A");
        explore(&problem_a, explorer_config)?
    };
    if line_a.architecture().is_none() {
        // Line A already failed; synthesizing line B (same library, same
        // budgets) cannot rescue the system. The run's wall clock is still
        // measured here (not copied from line A's stats, which would miss
        // the problem-building time around the exploration).
        return Ok(DecomposedResult {
            line_a,
            line_b: Exploration::Infeasible {
                stats: ExplorationStats::default(),
            },
            compatibility_ok: false,
            compat_time: 0.0,
            total_time: start.elapsed().as_secs_f64(),
        });
    }

    let problem_b = build(config, RplLines::LineB);
    let line_b = {
        let _span = contrarc_obs::span!("decompose.line", line = "B");
        explore(&problem_b, explorer_config)?
    };

    // Compatibility: the selected line B must refine the aggregated Comb B
    // flow contract that line A's synthesis assumed (its supply/consumption
    // envelope). This is one refinement query on the final architecture.
    let t_compat = Instant::now();
    let compatibility_ok = match line_b.architecture() {
        Some(arch) => {
            let mut span = contrarc_obs::span!("decompose.compat");
            let model = build_flow_model(&problem_b, arch);
            let checker = RefinementChecker::new();
            let holds = checker
                .check(
                    &model.vocabulary,
                    &model.component_contracts,
                    &model.system_contract,
                )
                .map(|r| r.holds())
                .map_err(ExploreError::from)?;
            span.record("holds", holds);
            holds
        }
        None => false,
    };
    let compat_time = t_compat.elapsed().as_secs_f64();

    Ok(DecomposedResult {
        line_a,
        line_b,
        compatibility_ok,
        compat_time,
        total_time: start.elapsed().as_secs_f64(),
    })
}

/// Explore both lines monolithically (one joint template) — the comparator
/// for Fig. 5(b).
///
/// # Errors
///
/// Propagates exploration failures.
pub fn explore_monolithic(
    config: &RplConfig,
    explorer_config: &ExplorerConfig,
) -> Result<Exploration, ExploreError> {
    let problem = build(config, RplLines::Both);
    explore(&problem, explorer_config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposed_matches_monolithic_cost() {
        let config = RplConfig::default();
        let cfg = ExplorerConfig::complete();
        let dec = explore_decomposed(&config, &cfg).unwrap();
        let mono = explore_monolithic(&config, &cfg).unwrap();
        assert!(dec.compatibility_ok);
        let dc = dec.total_cost().expect("decomposed feasible");
        let mc = mono.architecture().expect("monolithic feasible").cost();
        assert!((dc - mc).abs() < 1e-6, "decomposed {dc} vs monolithic {mc}");
    }

    #[test]
    fn decomposed_reports_infeasible_line() {
        // A one-stage line keeps the infeasibility proof small: the explorer
        // must exhaust the implementation lattice in cost order.
        let config = RplConfig {
            max_latency: 5.0,
            stages: 1,
            ..RplConfig::default()
        };
        let dec = explore_decomposed(&config, &ExplorerConfig::complete()).unwrap();
        assert!(dec.total_cost().is_none());
        assert!(!dec.compatibility_ok);
        // Early-out: line B is not explored once line A fails.
        assert_eq!(dec.line_b.stats().iterations, 0);
        // The run's wall clock covers at least line A's exploration — the
        // early return must not under-count it.
        assert!(
            dec.total_time >= dec.line_a.stats().total_time,
            "total {} < line A {}",
            dec.total_time,
            dec.line_a.stats().total_time
        );
        assert_eq!(dec.compat_time, 0.0, "no compatibility check ran");
    }

    #[test]
    fn combined_stats_aggregate_both_lines() {
        let config = RplConfig::default();
        let dec = explore_decomposed(&config, &ExplorerConfig::complete()).unwrap();
        let combined = dec.combined_stats();
        assert_eq!(
            combined.iterations,
            dec.line_a.stats().iterations + dec.line_b.stats().iterations
        );
        assert_eq!(
            combined.milp_vars,
            dec.line_a.stats().milp_vars + dec.line_b.stats().milp_vars
        );
        assert!((combined.total_time - dec.total_time).abs() < 1e-12);
        assert!(
            combined.refine_time >= dec.line_a.stats().refine_time + dec.line_b.stats().refine_time,
            "compatibility check must count as refinement time"
        );
        // Wall clock dominates the sum of sub-run wall clocks.
        assert!(
            dec.total_time >= dec.line_a.stats().total_time + dec.line_b.stats().total_time - 1e-9
        );
    }

    #[test]
    fn decomposed_builds_smaller_milps() {
        // Compare base encodings directly (no exploration needed). Symmetry
        // rows are kept out of the comparison: their count is not additive
        // across a decomposition (truncated-identical rows are deduped, and
        // the joint model's larger automorphism group dedupes more).
        let config = RplConfig::symmetric(2);
        let sym = contrarc::sym::SymmetryConfig::off();
        let mono =
            contrarc::encode::encode_problem2_sym(&build(&config, RplLines::Both), &sym).unwrap();
        let line_a =
            contrarc::encode::encode_problem2_sym(&build(&config, RplLines::LineA), &sym).unwrap();
        let line_b =
            contrarc::encode::encode_problem2_sym(&build(&config, RplLines::LineB), &sym).unwrap();
        assert!(line_a.model.stats().num_vars < mono.model.stats().num_vars);
        assert!(line_b.model.stats().num_vars < mono.model.stats().num_vars);
        assert!(
            line_a.model.stats().num_constraints + line_b.model.stats().num_constraints
                <= mono.model.stats().num_constraints
        );
    }
}
