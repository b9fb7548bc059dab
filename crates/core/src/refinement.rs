//! Problem 3 / Algorithm 1: (compositional) contract refinement verification
//! of a candidate architecture against the system-level contracts.

use crate::candidate::Architecture;
use crate::gen::{build_flow_model, build_timing_model, CheckModel};
use crate::problem::Problem;
use crate::viewpoint::Viewpoint;
use contrarc_contracts::RefinementChecker;
use contrarc_graph::paths::all_simple_paths;
use contrarc_graph::NodeId;
use contrarc_milp::SolveError;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;

/// The invalid sub-architecture `𝒢_map` a failed refinement identifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationScope {
    /// A single source→sink path (architecture node ids, in path order).
    Path(Vec<NodeId>),
    /// The whole candidate architecture (`𝒢_map = 𝒜_map`).
    Whole,
}

/// A refinement failure: the violated viewpoint `d_v` plus the invalid
/// sub-architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The viewpoint whose system contract is not refined.
    pub viewpoint: Viewpoint,
    /// The invalid sub-architecture.
    pub scope: ViolationScope,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.scope {
            ViolationScope::Path(nodes) => {
                write!(
                    f,
                    "{} violated on a {}-node path",
                    self.viewpoint,
                    nodes.len()
                )
            }
            ViolationScope::Whole => {
                write!(f, "{} violated on the whole architecture", self.viewpoint)
            }
        }
    }
}

/// Options for refinement checking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementConfig {
    /// Check path-specific viewpoints per source→sink path (Algorithm 1). If
    /// `false`, every viewpoint is checked monolithically on the whole
    /// architecture.
    pub compositional: bool,
    /// Cap on path enumeration (safety valve). When an enumeration reaches
    /// it and every enumerated path holds, the monolithic check decides
    /// timing.
    pub max_paths: usize,
    /// Ignored: paths are checked one after another. Kept only because the
    /// exploration benchmark still sets it; it will be removed, together
    /// with `contrarc-par`, in the next change to the benchmark.
    pub threads: usize,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        RefinementConfig {
            compositional: true,
            max_paths: 100_000,
            threads: 1,
        }
    }
}

/// A memo of compositional timing verdicts keyed by the checked path's
/// `(type, implementation)` label sequence.
///
/// A path-scoped timing model is determined, up to a renaming of variables
/// that cannot change the verdict, by the labels of the path's nodes in path
/// order, and two directed paths are label-isomorphic exactly when those
/// sequences are equal. The label sequence is therefore a complete key: two
/// different candidates that route through label-identical paths share one
/// cached check, as do sibling paths of the same candidate.
///
/// Whole-architecture checks (flow, and timing when
/// [`RefinementConfig::compositional`] is off) are not cached: every
/// iteration selects a new candidate, so such a key almost never repeats,
/// and canonicalizing the whole graph to compute one cost far more than the
/// check it guarded.
///
/// The cache is only sound for a fixed [`Problem`] (specs and library
/// attributes are baked into the models but not the keys) — use one cache per
/// exploration, as [`Explorer`](crate::Explorer) does.
#[derive(Debug, Default)]
pub struct RefinementCache {
    verdicts: RefCell<HashMap<Vec<u8>, bool>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl RefinementCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of lookups that required a fresh refinement check.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Number of distinct verdicts stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.verdicts.borrow().len()
    }

    /// Whether no verdict has been stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, key: &[u8]) -> Option<bool> {
        self.verdicts.borrow().get(key).copied()
    }

    fn store(&self, key: Vec<u8>, verdict: bool) {
        self.verdicts.borrow_mut().insert(key, verdict);
    }

    fn note_hit(&self) {
        self.hits.set(self.hits.get() + 1);
        contrarc_obs::metrics::counter_add("refine.cache_hits", 1);
    }

    fn note_miss(&self) {
        self.misses.set(self.misses.get() + 1);
        contrarc_obs::metrics::counter_add("refine.cache_misses", 1);
    }
}

/// Cache key of a path-scoped timing check: each node's `(type,
/// implementation)` pair as little-endian bytes, in path order. Every label
/// has the same width, so equal keys mean equal label sequences.
fn path_cache_key(arch: &Architecture, path: &[NodeId]) -> Vec<u8> {
    let mut key = Vec::with_capacity(8 * path.len());
    for &n in path {
        let w = arch.graph().node_weight(n);
        key.extend_from_slice(&w.ty.0.to_le_bytes());
        key.extend_from_slice(&w.implementation.0.to_le_bytes());
    }
    key
}

/// Check a candidate architecture against every active system contract and
/// collect *every* violation: each violated source→sink path plus any
/// whole-architecture failure. An empty result means all refinements hold
/// (the candidate is the optimum). Cutting every violation in one
/// exploration iteration prunes faster than stopping at the first.
///
/// With a [`RefinementCache`], verdicts of label-identical paths are served
/// from the cache instead of re-solved, and fresh path verdicts are stored
/// for later calls; pass `None` to check without one. The returned
/// violations are the same either way (the cache only ever replays a verdict
/// the checker itself would produce).
///
/// If the path enumeration reaches `config.max_paths`, it may have left paths
/// out. Violated enumerated paths are still reported; when there are none,
/// the exact monolithic check decides timing and a failure is reported as
/// [`ViolationScope::Whole`].
///
/// # Errors
///
/// Propagates encoding/solver errors from the underlying refinement queries.
pub fn check_candidate_all_cached(
    problem: &Problem,
    arch: &Architecture,
    config: &RefinementConfig,
    checker: &RefinementChecker,
    cache: Option<&RefinementCache>,
) -> Result<Vec<Violation>, SolveError> {
    let mut out = Vec::new();
    // As in Algorithm 1: path-specific viewpoints (d_p) per source→sink
    // path, whole-architecture ones (d_o) once.
    for viewpoint in problem.spec.active_viewpoints() {
        let holds = match viewpoint {
            // Structural constraints are enforced exactly by the MILP.
            Viewpoint::Interconnection => continue,
            Viewpoint::Timing if config.compositional => {
                let sources = arch.source_nodes(problem);
                let sinks = arch.sink_nodes(problem);
                let paths = all_simple_paths(arch.graph(), &sources, &sinks, config.max_paths);
                let capped = paths.len() >= config.max_paths;
                let verdicts = check_paths(problem, arch, &paths, checker, cache)?;
                let found = out.len();
                out.extend(
                    paths
                        .into_iter()
                        .zip(verdicts)
                        .filter(|&(_, holds)| !holds)
                        .map(|(path, _)| Violation {
                            viewpoint,
                            scope: ViolationScope::Path(path),
                        }),
                );
                if !capped || out.len() > found {
                    continue;
                }
                // Every checked path holds, but a capped enumeration left
                // paths unchecked: the exact monolithic check decides.
                check_timing_whole(problem, arch, checker)?
            }
            Viewpoint::Timing => check_timing_whole(problem, arch, checker)?,
            Viewpoint::Flow => refines(&build_flow_model(problem, arch), checker)?,
        };
        if !holds {
            out.push(Violation {
                viewpoint,
                scope: ViolationScope::Whole,
            });
        }
    }
    Ok(out)
}

/// The monolithic timing check: one model over every node and edge of the
/// architecture.
fn check_timing_whole(
    problem: &Problem,
    arch: &Architecture,
    checker: &RefinementChecker,
) -> Result<bool, SolveError> {
    let nodes: Vec<NodeId> = arch.graph().node_ids().collect();
    let edges: Vec<(NodeId, NodeId)> = arch.graph().edges().map(|e| (e.src, e.dst)).collect();
    let sources = arch.source_nodes(problem);
    let sinks = arch.sink_nodes(problem);
    let model = build_timing_model(problem, arch, &nodes, &edges, &sources, &sinks);
    refines(&model, checker)
}

/// One compositional timing check: build the path-scoped model and decide
/// refinement.
fn check_timing_path(
    problem: &Problem,
    arch: &Architecture,
    path: &[NodeId],
    checker: &RefinementChecker,
) -> Result<bool, SolveError> {
    let mut path_span = contrarc_obs::span!("refine.path", nodes = path.len());
    let edges: Vec<(NodeId, NodeId)> = path.windows(2).map(|w| (w[0], w[1])).collect();
    let model = build_timing_model(
        problem,
        arch,
        path,
        &edges,
        &path[..1],
        &path[path.len() - 1..],
    );
    let verdict = refines(&model, checker);
    contrarc_obs::metrics::counter_add("refine.path_checks", 1);
    if let Ok(holds) = &verdict {
        path_span.record("holds", *holds);
    }
    verdict
}

/// Check every path in enumeration order, returning its verdicts in that
/// order. With a cache, each path's label key is looked up first, and a
/// fresh verdict is stored before the next path is reached, so a later path
/// with the same labels is a hit.
fn check_paths(
    problem: &Problem,
    arch: &Architecture,
    paths: &[Vec<NodeId>],
    checker: &RefinementChecker,
    cache: Option<&RefinementCache>,
) -> Result<Vec<bool>, SolveError> {
    paths
        .iter()
        .map(|path| {
            let Some(cache) = cache else {
                return check_timing_path(problem, arch, path, checker);
            };
            let key = path_cache_key(arch, path);
            if let Some(holds) = cache.lookup(&key) {
                cache.note_hit();
                return Ok(holds);
            }
            cache.note_miss();
            let holds = check_timing_path(problem, arch, path, checker)?;
            cache.store(key, holds);
            Ok(holds)
        })
        .collect()
}

fn refines(model: &CheckModel, checker: &RefinementChecker) -> Result<bool, SolveError> {
    let r = checker.check(
        &model.vocabulary,
        &model.component_contracts,
        &model.system_contract,
    )?;
    Ok(r.holds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, JITTER_OUT, LATENCY, THROUGHPUT};
    use crate::encode::encode_problem2;
    use crate::problem::{FlowSpec, SystemSpec, TimingSpec};
    use crate::template::{Template, TypeConfig};
    use crate::Library;
    use contrarc_milp::SolveOptions;

    /// Two parallel lines with identical labels: `SA → MA → KA` and
    /// `SB → MB0 → KB`.
    fn two_line_problem(max_latency: f64) -> (Problem, Architecture) {
        lines_problem(max_latency, 1)
    }

    /// Two parallel lines, `SA → MA → KA` and line B with `b_machines`
    /// machines in series, so a longer line B is slower than line A.
    fn lines_problem(max_latency: f64, b_machines: usize) -> (Problem, Architecture) {
        let mut t = Template::new("two");
        let src_t = t.add_type("src", TypeConfig::source());
        let mach_t = t.add_type("mach", TypeConfig::bounded(2, 2));
        let sink_t = t.add_type("sink", TypeConfig::sink());
        let sa = t.add_node("SA", src_t);
        let ma = t.add_node("MA", mach_t);
        let ka = t.add_required_node("KA", sink_t);
        t.add_candidate_edge(sa, ma);
        t.add_candidate_edge(ma, ka);
        let mut prev = t.add_node("SB", src_t);
        for i in 0..b_machines {
            let mb = t.add_node(format!("MB{i}"), mach_t);
            t.add_candidate_edge(prev, mb);
            prev = mb;
        }
        let kb = t.add_required_node("KB", sink_t);
        t.add_candidate_edge(prev, kb);

        let mut lib = Library::new();
        lib.add(
            "S",
            src_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(FLOW_GEN, 10.0)
                .with(LATENCY, 1.0),
        );
        // Single machine impl with latency 12 — the B path (2 machines deep
        // below) stays fine but tight bounds trip it.
        lib.add(
            "M",
            mach_t,
            Attrs::new()
                .with(COST, 2.0)
                .with(THROUGHPUT, 20.0)
                .with(LATENCY, 12.0)
                .with(JITTER_OUT, 0.0),
        );
        lib.add(
            "K",
            sink_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(FLOW_CONS, 5.0)
                .with(LATENCY, 1.0),
        );
        let spec = SystemSpec {
            flow: Some(FlowSpec {
                max_supply: 100.0,
                max_consumption: 100.0,
            }),
            timing: Some(TimingSpec {
                max_latency,
                max_input_jitter: 1.0,
                max_output_jitter: 1.0,
            }),
            flow_cap: 100.0,
            horizon: 1000.0,
        };
        let p = Problem::new(t, lib, spec);
        let enc = encode_problem2(&p).unwrap();
        let sol = enc
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        let arch = Architecture::decode(&p, &enc, &sol);
        (p, arch)
    }

    fn check(p: &Problem, arch: &Architecture, cfg: &RefinementConfig) -> Vec<Violation> {
        check_candidate_all_cached(p, arch, cfg, &RefinementChecker::new(), None).unwrap()
    }

    #[test]
    fn passes_when_bound_generous() {
        let (p, arch) = two_line_problem(50.0);
        let v = check(&p, &arch, &RefinementConfig::default());
        assert!(v.is_empty(), "unexpected violation: {v:?}");
    }

    #[test]
    fn compositional_failure_reports_path() {
        // Path latency = 1 + 12 + 1 = 14 > 10, on both lines.
        let (p, arch) = two_line_problem(10.0);
        let v = check(&p, &arch, &RefinementConfig::default());
        assert_eq!(v.len(), 2, "one violation per line: {v:?}");
        for v in &v {
            assert_eq!(v.viewpoint, Viewpoint::Timing);
            match &v.scope {
                ViolationScope::Path(nodes) => assert_eq!(nodes.len(), 3),
                other => panic!("expected path scope, got {other:?}"),
            }
        }
    }

    #[test]
    fn monolithic_failure_reports_whole() {
        let (p, arch) = two_line_problem(10.0);
        let cfg = RefinementConfig {
            compositional: false,
            ..RefinementConfig::default()
        };
        let v = check(&p, &arch, &cfg);
        let whole = Violation {
            viewpoint: Viewpoint::Timing,
            scope: ViolationScope::Whole,
        };
        assert_eq!(v, vec![whole]);
    }

    #[test]
    fn capped_path_enumeration_falls_back_to_monolithic_timing() {
        // Line A takes 1 + 12 + 1 = 14 <= 20, line B 1 + 12 + 12 + 1 = 26.
        // `max_paths: 1` enumerates line A only; line B must not be taken
        // as passing.
        let (p, arch) = lines_problem(20.0, 2);
        let cfg = RefinementConfig {
            max_paths: 1,
            ..RefinementConfig::default()
        };
        let whole = Violation {
            viewpoint: Viewpoint::Timing,
            scope: ViolationScope::Whole,
        };
        assert_eq!(check(&p, &arch, &cfg), vec![whole]);
        assert_eq!(check(&p, &arch, &RefinementConfig::default()).len(), 1);
        // A failing enumerated path is reported as such, and a capped
        // candidate that meets its bound passes.
        let (p, arch) = two_line_problem(10.0);
        let v = check(&p, &arch, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0].scope, ViolationScope::Path(_)), "{v:?}");
        let (p, arch) = lines_problem(50.0, 2);
        assert!(check(&p, &arch, &cfg).is_empty());
    }

    #[test]
    fn flow_violation_detected_whole() {
        let (mut p, arch) = two_line_problem(50.0);
        // Two sources generate 20 total; cap supply at 15.
        p.spec.flow = Some(FlowSpec {
            max_supply: 15.0,
            max_consumption: 100.0,
        });
        let v = check(&p, &arch, &RefinementConfig::default());
        assert_eq!(v.len(), 1, "only the flow check fails: {v:?}");
        assert_eq!(v[0].viewpoint, Viewpoint::Flow);
        assert_eq!(v[0].scope, ViolationScope::Whole);
        assert!(v[0].to_string().contains("whole"));
    }

    #[test]
    fn whole_architecture_checks_bypass_the_cache() {
        let (mut flow_only, arch) = two_line_problem(10.0);
        flow_only.spec.timing = None;
        let (both, _) = two_line_problem(10.0);
        let monolithic = RefinementConfig {
            compositional: false,
            ..RefinementConfig::default()
        };
        let checker = RefinementChecker::new();
        for (p, cfg) in [
            (&flow_only, RefinementConfig::default()),
            (&both, monolithic),
        ] {
            let cache = RefinementCache::new();
            let v = check_candidate_all_cached(p, &arch, &cfg, &checker, Some(&cache)).unwrap();
            assert_eq!(v, check(p, &arch, &cfg));
            assert_eq!((cache.hits(), cache.misses()), (0, 0), "no lookup");
            assert!(cache.is_empty(), "no entry");
        }
    }

    #[test]
    fn path_key_is_the_label_sequence() {
        let (p, arch) = two_line_problem(10.0);
        let paths = all_simple_paths(
            arch.graph(),
            &arch.source_nodes(&p),
            &arch.sink_nodes(&p),
            10,
        );
        let [a, b] = &paths[..] else {
            panic!("expected the two lines, got {paths:?}");
        };
        assert!(a.iter().all(|n| !b.contains(n)), "the lines share no node");
        // The same labels on different nodes: one key, one shared verdict.
        assert_eq!(path_cache_key(&arch, a), path_cache_key(&arch, b));
        let cache = RefinementCache::new();
        let cfg = RefinementConfig::default();
        let checker = RefinementChecker::new();
        let _ = check_candidate_all_cached(&p, &arch, &cfg, &checker, Some(&cache)).unwrap();
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 1, 1));
        // The same labels in another order: another key.
        let reversed: Vec<NodeId> = a.iter().rev().copied().collect();
        assert_ne!(path_cache_key(&arch, a), path_cache_key(&arch, &reversed));
    }

    #[test]
    fn cache_replays_verdicts_and_counts_hits() {
        // Two parallel lines with identical (type, implementation) labels:
        // the second path has the first one's label sequence, so even the
        // first pass hits once, and a replay hits everywhere.
        let (p, arch) = two_line_problem(10.0);
        let cfg = RefinementConfig::default();
        let checker = RefinementChecker::new();
        let baseline = check(&p, &arch, &cfg);
        let cache = RefinementCache::new();
        let first = check_candidate_all_cached(&p, &arch, &cfg, &checker, Some(&cache)).unwrap();
        assert_eq!(first, baseline);
        assert!(cache.misses() > 0);
        assert!(cache.hits() > 0, "label-identical sibling path should hit");
        let misses = cache.misses();
        let second = check_candidate_all_cached(&p, &arch, &cfg, &checker, Some(&cache)).unwrap();
        assert_eq!(second, baseline);
        assert_eq!(cache.misses(), misses, "replay must not re-solve");
        assert!(!cache.is_empty());
    }

    #[test]
    fn violation_display_path() {
        let v = Violation {
            viewpoint: Viewpoint::Timing,
            scope: ViolationScope::Path(vec![NodeId::from_index(0)]),
        };
        assert!(v.to_string().contains("1-node path"));
    }
}
