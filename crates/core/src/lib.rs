//! # contrarc
//!
//! A Rust implementation of **ContrArc** — the contract-based cyber-physical
//! system architecture exploration methodology with subgraph-isomorphism
//! pruning published at DATE 2024 (*"Efficient Exploration of Cyber-Physical
//! System Architectures Using Contracts and Subgraph Isomorphism"*, Xiao,
//! Oh, Lora, Nuzzo).
//!
//! Given an architecture **template** (typed component slots plus candidate
//! connections), an implementation **library**, and system requirements
//! formalized as assume-guarantee contracts over **viewpoints**
//! (interconnection, flow, timing), ContrArc selects the minimum-cost
//! architecture satisfying all requirements by iterating three steps:
//!
//! 1. **Candidate selection** (Problem 2): a MILP over component-level
//!    contracts picks the cheapest structurally-valid candidate —
//!    [`encode::encode_problem2`].
//! 2. **Refinement verification** (Problem 3 / Algorithm 1): the composition
//!    of component contracts is checked against each system-level contract,
//!    compositionally along source→sink paths for path-specific viewpoints —
//!    [`refinement::check_candidate_all_cached`].
//! 3. **Certificate generation** (Problem 4 / Algorithm 2): a failed
//!    refinement yields an invalid sub-architecture; *all* of its
//!    subgraph-isomorphic embeddings in the template are excluded at once,
//!    widened to every implementation at least as bad for the violated
//!    viewpoint — [`certificate::apply_cuts`].
//!
//! The loop ([`explore`]) terminates with the global optimum or a proof of
//! infeasibility. An ArchEx-style monolithic baseline
//! ([`baseline::solve_monolithic`]) is included for the paper's runtime
//! comparison, and [`ExplorerConfig`] exposes the two ablations of Table II.
//!
//! ## Example
//!
//! ```rust
//! use contrarc::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
//! use contrarc::{explore, ExplorerConfig, Library, Problem, Template, TypeConfig};
//! use contrarc::{FlowSpec, SystemSpec, TimingSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut template = Template::new("mini-line");
//! let src_t = template.add_type("source", TypeConfig::source());
//! let mach_t = template.add_type("machine", TypeConfig::bounded(2, 2));
//! let sink_t = template.add_type("sink", TypeConfig::sink());
//! let s = template.add_node("S", src_t);
//! let m = template.add_node("M", mach_t);
//! let k = template.add_required_node("K", sink_t);
//! template.add_candidate_edge(s, m);
//! template.add_candidate_edge(m, k);
//!
//! let mut library = Library::new();
//! library.add("src", src_t, Attrs::new().with(COST, 1.0).with(FLOW_GEN, 10.0).with(LATENCY, 1.0));
//! library.add("slow", mach_t, Attrs::new().with(COST, 1.0).with(THROUGHPUT, 20.0).with(LATENCY, 30.0));
//! library.add("fast", mach_t, Attrs::new().with(COST, 5.0).with(THROUGHPUT, 20.0).with(LATENCY, 2.0));
//! library.add("sink", sink_t, Attrs::new().with(COST, 1.0).with(FLOW_CONS, 5.0).with(LATENCY, 1.0));
//!
//! let spec = SystemSpec {
//!     flow: Some(FlowSpec { max_supply: 100.0, max_consumption: 100.0 }),
//!     timing: Some(TimingSpec { max_latency: 10.0, max_input_jitter: 1.0, max_output_jitter: 1.0 }),
//!     flow_cap: 100.0,
//!     horizon: 1000.0,
//! };
//!
//! let problem = Problem::new(template, library, spec);
//! let result = explore(&problem, &ExplorerConfig::complete())?;
//! let arch = result.architecture().expect("feasible");
//! // The slow machine (latency 30) violates the 10-unit budget; the fast
//! // one is selected even though it costs more.
//! assert_eq!(arch.cost(), 7.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod baseline;
mod candidate;
pub mod certificate;
pub mod checkpoint;
pub mod encode;
mod exploration;
mod explorer;
pub mod gen;
mod library;
mod problem;
pub mod refinement;
pub mod report;
pub mod sym;
pub mod synth;
mod template;
mod viewpoint;

pub use candidate::{ArchEdge, ArchNode, Architecture};
pub use checkpoint::{AuxVarRecord, CheckpointParseError, CutRecord, ExplorerCheckpoint};
pub use exploration::{Exploration, ExplorationStats, ExploreError, ExplorerConfig, StopReason};
pub use explorer::{explore, Explorer, Step};
pub use library::{ImplId, Implementation, Library};
pub use problem::{FlowSpec, Problem, SystemSpec, TimingSpec};
pub use refinement::{RefinementCache, RefinementConfig, Violation, ViolationScope};
pub use sym::SymmetryConfig;
pub use template::{Template, TemplateNode, TypeConfig, TypeId};
pub use viewpoint::Viewpoint;
