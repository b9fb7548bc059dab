//! Problem 2: encoding component-level contracts into a MILP.
//!
//! The encoding follows Section III/IV-A of the paper:
//!
//! * a binary `e_{i,j}` per candidate edge and a binary `m_{i,x}` per
//!   node/implementation pair, with `β_i = Σ_x m_{i,x}` the instantiation
//!   indicator;
//! * the interconnection contract `C^C` — map-iff-connected, fan bounds
//!   `M`/`N`, and in↔out transit coupling;
//! * the flow contract `C^F` — per-edge flow variables, throughput limits,
//!   and conservation with generated/consumed flow from the selected
//!   implementation's attributes;
//! * the timing contract `C^T` — nominal/actual event times per edge with
//!   implementation-dependent jitter windows and latency bounds;
//! * the additive cost objective `Σ α_i β_i c_i`.
//!
//! System-level contracts are deliberately *not* encoded here — they are
//! checked lazily by refinement (Problem 3) and turned into cuts
//! (Problem 4). The monolithic alternative lives in
//! [`baseline`](crate::baseline).

use crate::attr;
use crate::library::ImplId;
use crate::problem::Problem;
use crate::sym::SymmetryConfig;
use contrarc_graph::NodeId;
use contrarc_milp::encode as menc;
use contrarc_milp::{Cmp, LinExpr, Model, Sense, SolveError, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The Problem-2 MILP together with its variable registry.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The MILP (objective: minimize weighted cost).
    pub model: Model,
    /// `e_{i,j}` per candidate edge, indexed by
    /// [`EdgeId::index`](contrarc_graph::EdgeId::index).
    pub edge_vars: Vec<VarId>,
    /// `m_{i,x}` per node, indexed by [`NodeId::index`].
    pub map_vars: Vec<Vec<(ImplId, VarId)>>,
    /// `β_i` per node.
    pub beta_vars: Vec<VarId>,
    /// Per-edge flow variables (empty when the flow viewpoint is disabled).
    pub flow_vars: Vec<VarId>,
    /// Per-edge nominal event times `τ` (empty when timing is disabled).
    pub tau_vars: Vec<VarId>,
    /// Per-edge actual event times `t` (empty when timing is disabled).
    pub t_vars: Vec<VarId>,
}

impl Encoding {
    /// The mapping variable `m_{i,x}`, if `x` implements `i`'s type.
    #[must_use]
    pub fn map_var(&self, node: NodeId, imp: ImplId) -> Option<VarId> {
        self.map_vars[node.index()]
            .iter()
            .find(|(i, _)| *i == imp)
            .map(|(_, v)| *v)
    }
}

/// Symmetry-breaking constraint `β_a ≥ β_b` for interchangeable slots.
fn enc_sym(model: &mut Model, beta_vars: &[VarId], a: usize, b: usize) -> Result<(), SolveError> {
    model.add_constr(
        format!("sym[{a},{b}]"),
        LinExpr::var(beta_vars[b]) - LinExpr::var(beta_vars[a]),
        Cmp::Le,
        0.0,
    )?;
    Ok(())
}

/// Clamp an attribute to a cap so `+∞` defaults become vacuous-but-linear.
fn clamped(v: f64, cap: f64) -> f64 {
    if v.is_finite() {
        v.min(cap)
    } else {
        cap
    }
}

/// Build the Problem-2 MILP for a problem instance, with the default
/// symmetry-breaking rows (on).
///
/// # Errors
///
/// Returns [`SolveError::InvalidModel`] when the problem fails
/// [`Problem::validate`]-level invariants needed by the encoding (e.g. a
/// node type without implementations).
pub fn encode_problem2(problem: &Problem) -> Result<Encoding, SolveError> {
    encode_problem2_sym(problem, &SymmetryConfig::default())
}

/// Build the Problem-2 MILP with explicit control over the symmetry rows
/// ([`SymmetryConfig::milp_rows`]; `orbit_pruning` does not affect the
/// encoding). With rows off the model is exactly the pre-symmetry encoding.
///
/// # Errors
///
/// Returns [`SolveError::InvalidModel`] when the problem fails
/// [`Problem::validate`]-level invariants needed by the encoding (e.g. a
/// node type without implementations).
pub fn encode_problem2_sym(
    problem: &Problem,
    symmetry: &SymmetryConfig,
) -> Result<Encoding, SolveError> {
    let issues = problem.validate();
    if !issues.is_empty() {
        return Err(SolveError::InvalidModel(issues.join("; ")));
    }

    let t = &problem.template;
    let lib = &problem.library;
    let spec = &problem.spec;
    let mut model = Model::new(format!("{}-p2", t.name()));

    // --- decision variables -------------------------------------------------
    let edge_vars: Vec<VarId> = t
        .candidate_edges()
        .map(|(_, a, b)| model.add_binary(format!("e[{}->{}]", t.node(a).name, t.node(b).name)))
        .collect();

    let mut map_vars: Vec<Vec<(ImplId, VarId)>> = Vec::with_capacity(t.num_nodes());
    let mut beta_vars: Vec<VarId> = Vec::with_capacity(t.num_nodes());
    for n in t.node_ids() {
        let info = t.node(n);
        let vars: Vec<(ImplId, VarId)> = lib
            .impls_of_type(info.ty)
            .iter()
            .map(|&x| {
                let v =
                    model.add_binary(format!("m[{},{}]", info.name, lib.implementation(x).name));
                (x, v)
            })
            .collect();
        map_vars.push(vars);
        beta_vars.push(model.add_binary(format!("beta[{}]", info.name)));
    }

    let timing = spec.timing.is_some();
    let flow = spec.flow.is_some();
    let flow_vars: Vec<VarId> = if flow {
        t.candidate_edges()
            .map(|(_, a, b)| {
                model.add_continuous(
                    format!("f[{}->{}]", t.node(a).name, t.node(b).name),
                    0.0,
                    spec.flow_cap,
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let (tau_vars, t_vars): (Vec<VarId>, Vec<VarId>) = if timing {
        let tau = t
            .candidate_edges()
            .map(|(_, a, b)| {
                model.add_continuous(
                    format!("tau[{}->{}]", t.node(a).name, t.node(b).name),
                    0.0,
                    spec.horizon,
                )
            })
            .collect();
        let tt = t
            .candidate_edges()
            .map(|(_, a, b)| {
                model.add_continuous(
                    format!("t[{}->{}]", t.node(a).name, t.node(b).name),
                    0.0,
                    spec.horizon,
                )
            })
            .collect();
        (tau, tt)
    } else {
        (Vec::new(), Vec::new())
    };

    // --- interconnection contract C^C ---------------------------------------
    for n in t.node_ids() {
        let info = t.node(n);
        let cfg = t.type_config(info.ty);
        let beta = beta_vars[n.index()];
        let maps: Vec<VarId> = map_vars[n.index()].iter().map(|&(_, v)| v).collect();

        // β_i = Σ_x m_{i,x} (assumption φ_A: exactly one impl iff connected).
        let sum_m = LinExpr::sum(maps.iter().copied());
        model.add_constr(
            format!("map_iff[{}]", info.name),
            sum_m - LinExpr::var(beta),
            Cmp::Eq,
            0.0,
        )?;

        let in_edges: Vec<VarId> = t
            .graph()
            .in_edges(n)
            .map(|e| edge_vars[e.id.index()])
            .collect();
        let out_edges: Vec<VarId> = t
            .graph()
            .out_edges(n)
            .map(|e| edge_vars[e.id.index()])
            .collect();
        let incident: Vec<VarId> = in_edges.iter().chain(out_edges.iter()).copied().collect();

        // β_i = 1 ⟺ at least one incident connection.
        if incident.is_empty() {
            // Isolated candidate node can never be instantiated…
            if info.required {
                return Err(SolveError::InvalidModel(format!(
                    "required node {} has no candidate edges",
                    info.name
                )));
            }
            model.add_constr(
                format!("isolated[{}]", info.name),
                LinExpr::var(beta),
                Cmp::Le,
                0.0,
            )?;
        } else {
            menc::indicator_or(&mut model, format!("inst[{}]", info.name), beta, &incident)?;
        }

        if info.required {
            model.add_constr(
                format!("required[{}]", info.name),
                LinExpr::var(beta),
                Cmp::Ge,
                1.0,
            )?;
        }

        // Fan bounds M / N (guarantee φ_G).
        if (cfg.max_in as usize) < in_edges.len() {
            model.add_constr(
                format!("fan_in[{}]", info.name),
                LinExpr::sum(in_edges.iter().copied()),
                Cmp::Le,
                f64::from(cfg.max_in),
            )?;
        }
        if (cfg.max_out as usize) < out_edges.len() {
            model.add_constr(
                format!("fan_out[{}]", info.name),
                LinExpr::sum(out_edges.iter().copied()),
                Cmp::Le,
                f64::from(cfg.max_out),
            )?;
        }

        // Transit coupling: connected on one side ⇒ connected on the other.
        if !cfg.source && !cfg.sink {
            let sum_out = LinExpr::sum(out_edges.iter().copied());
            for (k, &ein) in in_edges.iter().enumerate() {
                model.add_constr(
                    format!("transit_io[{},{k}]", info.name),
                    LinExpr::var(ein) - sum_out.clone(),
                    Cmp::Le,
                    0.0,
                )?;
            }
            let sum_in = LinExpr::sum(in_edges.iter().copied());
            for (k, &eout) in out_edges.iter().enumerate() {
                model.add_constr(
                    format!("transit_oi[{},{k}]", info.name),
                    LinExpr::var(eout) - sum_in.clone(),
                    Cmp::Le,
                    0.0,
                )?;
            }
        }
    }

    // --- symmetry breaking ---------------------------------------------------
    // Orbits of the encoding automorphism group: any permutation preserving
    // type, required flag, cost weight, and candidate adjacency maps a
    // solution of the model (of this one, and of every later cut-augmented
    // model, since certificate cuts are generated per isomorphic embedding
    // and so are closed under these permutations) to an equal-cost solution.
    // Ordering β along the orbits therefore keeps at least the β-lex-largest
    // member of every solution class while pruning its mirror images from
    // branch-and-bound.
    if symmetry.milp_rows {
        let aut = crate::sym::encoding_automorphisms(problem);
        if !aut.is_trivial() {
            let mut sym_rows = 0u64;
            let mut edges: Vec<(usize, usize)> = t
                .candidate_edges()
                .map(|(_, a, b)| (a.index(), b.index()))
                .collect();
            edges.sort_unstable();
            // Is swapping just u and v an automorphism? (Labels already agree
            // for nodes of one orbit, so only adjacency needs checking.)
            let transposable = |u: usize, v: usize| {
                let mut mapped: Vec<(usize, usize)> = edges
                    .iter()
                    .map(|&(a, b)| {
                        let m = |x: usize| match x {
                            _ if x == u => v,
                            _ if x == v => u,
                            _ => x,
                        };
                        (m(a), m(b))
                    })
                    .collect();
                mapped.sort_unstable();
                mapped == edges
            };

            // A pairwise-transposable subset of an orbit carries a full
            // symmetric group, where a monotone β-chain keeps exactly the
            // lex-largest arrangement. Greedily partition each orbit into
            // such cliques and chain each one; these two-term rows are
            // redundant with the prefix-lex rows below but propagate much
            // better through the LP relaxation.
            for orbit in aut.orbits() {
                if orbit.len() < 2 {
                    continue;
                }
                let mut cliques: Vec<Vec<usize>> = Vec::new();
                for &v in &orbit {
                    match cliques
                        .iter_mut()
                        .find(|c| c.iter().all(|&u| transposable(u, v)))
                    {
                        Some(c) => c.push(v),
                        None => cliques.push(vec![v]),
                    }
                }
                for clique in &cliques {
                    for pair in clique.windows(2) {
                        enc_sym(&mut model, &beta_vars, pair[0], pair[1])?;
                        sym_rows += 1;
                    }
                }
            }

            // Symmetry beyond single transpositions (rotations, coupled
            // swaps): one prefix-lexicographic row per group element σ
            // forces β ≥_lex β∘σ over the first moved positions. The
            // β-lex-max member of every solution orbit satisfies all of
            // these rows simultaneously, so none cuts a whole class — and
            // that holds for any subset of group elements, so capping the
            // closure below stays sound (just weaker). For small groups
            // the closure gives the complete lex-leader constraint set;
            // generator-only rows leave most composite symmetries (e.g.
            // the 3-cycles of a line-permutation group) unbroken.
            const MAX_GROUP: usize = 64;
            let n = aut.num_nodes();
            let identity: Vec<usize> = (0..n).collect();
            let mut elems: BTreeSet<Vec<usize>> = BTreeSet::new();
            elems.insert(identity.clone());
            let mut frontier: Vec<Vec<usize>> = vec![identity.clone()];
            while let Some(p) = frontier.pop() {
                for g in aut.generators() {
                    let q: Vec<usize> = (0..n).map(|v| g[p[v]]).collect();
                    if elems.len() >= MAX_GROUP {
                        frontier.clear();
                        break;
                    }
                    if elems.insert(q.clone()) {
                        frontier.push(q);
                    }
                }
            }

            // The ordered binary vector each row compares reads, per moved
            // node ascending, first β then the mapping variables (σ links
            // m[v][i] to m[σ(v)][i] — same type, same menu, same order).
            // Rows over β alone are vacuous whenever every node of an
            // orbit is instantiated (β ≡ 1, the common case for slim
            // templates); the mapping variables carry the real symmetry
            // of "which line runs which implementations". The prefix is
            // capped so the dominant weight stays ≤ 2^7: power-of-two
            // weights are exact in f64, but wide spreads against the
            // unit-coefficient rows degrade basis conditioning — the
            // retry ladder was observed exhausting itself on singular
            // refactorizations at 2^23, and still at 2^15, on heavily
            // symmetric models. Truncation also makes distinct group
            // elements collapse onto identical rows, so rows are deduped
            // by their position list.
            const LEX_PREFIX: usize = 8;
            let mut lex_seq = 0u32;
            let mut seen_rows: BTreeSet<Vec<(VarId, VarId)>> = BTreeSet::new();
            // Branching priorities: a symlex row only prunes once its
            // leading positions are fixed (a 0-fix on the leading variable
            // forces the mirror variable to 0 through the dominant weight),
            // so pull branch-and-bound toward early positions. Each
            // variable keeps the strongest pull any row gives it.
            let mut prio: BTreeMap<VarId, f64> = BTreeMap::new();
            for g in &elems {
                let moved: Vec<usize> = (0..n).filter(|&v| g[v] != v).collect();
                if moved.is_empty() {
                    continue; // identity
                }
                let mut positions: Vec<(VarId, VarId)> = Vec::new();
                'outer: for &v in &moved {
                    positions.push((beta_vars[v], beta_vars[g[v]]));
                    for (mv, mg) in map_vars[v].iter().zip(&map_vars[g[v]]) {
                        if positions.len() >= LEX_PREFIX {
                            break 'outer;
                        }
                        positions.push((mv.1, mg.1));
                    }
                    if positions.len() >= LEX_PREFIX {
                        break;
                    }
                }
                if !seen_rows.insert(positions.clone()) {
                    continue;
                }
                let k = positions.len();
                let mut lhs = LinExpr::new();
                for (i, &(a, b)) in positions.iter().enumerate() {
                    let w = (1u64 << (k - 1 - i)) as f64;
                    lhs.add_term(a, w);
                    lhs.add_term(b, -w);
                    let pull = 1.0 + 8.0 * 0.5_f64.powi(i32::try_from(i).unwrap_or(i32::MAX));
                    for v in [a, b] {
                        let e = prio.entry(v).or_insert(1.0);
                        *e = (*e).max(pull);
                    }
                }
                model.add_constr(format!("symlex[{lex_seq}]"), lhs, Cmp::Ge, 0.0)?;
                lex_seq += 1;
                sym_rows += 1;
            }
            for (&v, &p) in &prio {
                model.set_branch_priority(v, p);
            }
            contrarc_obs::metrics::counter_add("sym.milp_rows", sym_rows);
        }
    }

    // --- flow contract C^F ---------------------------------------------------
    if flow {
        for (e, _, _) in t.candidate_edges() {
            // Flow only on selected edges.
            model.add_constr(
                format!("flow_gate[{}]", e.index()),
                LinExpr::var(flow_vars[e.index()])
                    - LinExpr::term(edge_vars[e.index()], spec.flow_cap),
                Cmp::Le,
                0.0,
            )?;
        }
        for n in t.node_ids() {
            let info = t.node(n);
            let in_flow: LinExpr =
                LinExpr::sum(t.graph().in_edges(n).map(|e| flow_vars[e.id.index()]));
            let out_flow: LinExpr =
                LinExpr::sum(t.graph().out_edges(n).map(|e| flow_vars[e.id.index()]));
            let in_count = t.graph().in_degree(n) as f64;
            let thr_cap = spec.flow_cap * in_count.max(1.0);

            // Throughput (assumption): Σ_in f ≤ Σ_x m·thr(x).
            let thr_sel = LinExpr::weighted_sum(
                map_vars[n.index()]
                    .iter()
                    .map(|&(x, v)| (v, clamped(lib.attr(x, attr::THROUGHPUT), thr_cap))),
            );
            if in_count > 0.0 {
                model.add_constr(
                    format!("throughput[{}]", info.name),
                    in_flow.clone() - thr_sel,
                    Cmp::Le,
                    0.0,
                )?;
            }

            // Conservation (guarantee): Σ_in f + gen ≥ Σ_out f + cons.
            let gen_sel = LinExpr::weighted_sum(
                map_vars[n.index()]
                    .iter()
                    .map(|&(x, v)| (v, clamped(lib.attr(x, attr::FLOW_GEN), spec.flow_cap))),
            );
            let cons_sel = LinExpr::weighted_sum(
                map_vars[n.index()]
                    .iter()
                    .map(|&(x, v)| (v, clamped(lib.attr(x, attr::FLOW_CONS), spec.flow_cap))),
            );
            model.add_constr(
                format!("conserve[{}]", info.name),
                in_flow + gen_sel - out_flow - cons_sel,
                Cmp::Ge,
                0.0,
            )?;
        }
    }

    // --- timing contract C^T -------------------------------------------------
    if timing {
        let big_t = 2.0 * spec.horizon;
        for n in t.node_ids() {
            let info = t.node(n);
            let jin_sel = LinExpr::weighted_sum(
                map_vars[n.index()]
                    .iter()
                    .map(|&(x, v)| (v, clamped(lib.attr(x, attr::JITTER_IN), big_t))),
            );
            let jout_sel = LinExpr::weighted_sum(
                map_vars[n.index()]
                    .iter()
                    .map(|&(x, v)| (v, clamped(lib.attr(x, attr::JITTER_OUT), big_t))),
            );
            let lat_sel = LinExpr::weighted_sum(
                map_vars[n.index()]
                    .iter()
                    .map(|&(x, v)| (v, clamped(lib.attr(x, attr::LATENCY), big_t))),
            );

            // Assumption: e_{a,i} → |t − τ| ≤ j_in.
            for e in t.graph().in_edges(n) {
                let ev = edge_vars[e.id.index()];
                let diff =
                    LinExpr::var(t_vars[e.id.index()]) - LinExpr::var(tau_vars[e.id.index()]);
                // diff − j_in ≤ M(1−e)  and  −diff − j_in ≤ M(1−e)
                model.add_constr(
                    format!("jin_hi[{},{}]", info.name, e.id.index()),
                    diff.clone() - jin_sel.clone() + LinExpr::term(ev, big_t),
                    Cmp::Le,
                    big_t,
                )?;
                model.add_constr(
                    format!("jin_lo[{},{}]", info.name, e.id.index()),
                    -diff - jin_sel.clone() + LinExpr::term(ev, big_t),
                    Cmp::Le,
                    big_t,
                )?;
            }
            // Guarantee: e_{i,b} → |t − τ| ≤ j_out.
            for e in t.graph().out_edges(n) {
                let ev = edge_vars[e.id.index()];
                let diff =
                    LinExpr::var(t_vars[e.id.index()]) - LinExpr::var(tau_vars[e.id.index()]);
                model.add_constr(
                    format!("jout_hi[{},{}]", info.name, e.id.index()),
                    diff.clone() - jout_sel.clone() + LinExpr::term(ev, big_t),
                    Cmp::Le,
                    big_t,
                )?;
                model.add_constr(
                    format!("jout_lo[{},{}]", info.name, e.id.index()),
                    -diff - jout_sel.clone() + LinExpr::term(ev, big_t),
                    Cmp::Le,
                    big_t,
                )?;
            }
            // Guarantee: e_{a,i} ∧ e_{i,b} → τ_out − t_in ≤ latency.
            for ein in t.graph().in_edges(n) {
                for eout in t.graph().out_edges(n) {
                    let ev_in = edge_vars[ein.id.index()];
                    let ev_out = edge_vars[eout.id.index()];
                    let lhs = LinExpr::var(tau_vars[eout.id.index()])
                        - LinExpr::var(t_vars[ein.id.index()])
                        - lat_sel.clone()
                        + LinExpr::term(ev_in, big_t)
                        + LinExpr::term(ev_out, big_t);
                    model.add_constr(
                        format!("lat[{},{},{}]", info.name, ein.id.index(), eout.id.index()),
                        lhs,
                        Cmp::Le,
                        2.0 * big_t,
                    )?;
                }
            }
        }
    }

    // --- objective ------------------------------------------------------------
    let mut cost = LinExpr::new();
    for n in t.node_ids() {
        let alpha = t.node(n).weight;
        for &(x, v) in &map_vars[n.index()] {
            cost.add_term(v, alpha * lib.attr(x, attr::COST));
        }
    }
    model.set_objective(Sense::Minimize, cost);

    Ok(Encoding {
        model,
        edge_vars,
        map_vars,
        beta_vars,
        flow_vars,
        tau_vars,
        t_vars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
    use crate::problem::{FlowSpec, SystemSpec, TimingSpec};
    use crate::template::{Template, TypeConfig};
    use crate::Library;
    use contrarc_milp::SolveOptions;

    /// Source → machine → sink chain with two machine impls.
    fn chain_problem() -> Problem {
        let mut t = Template::new("chain");
        let src_t = t.add_type("src", TypeConfig::source());
        let mach_t = t.add_type("mach", TypeConfig::bounded(2, 2));
        let sink_t = t.add_type("sink", TypeConfig::sink());
        let s = t.add_node("S", src_t);
        let m = t.add_node("M", mach_t);
        let k = t.add_required_node("K", sink_t);
        t.add_candidate_edge(s, m);
        t.add_candidate_edge(m, k);

        let mut lib = Library::new();
        lib.add(
            "S0",
            src_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(FLOW_GEN, 10.0)
                .with(LATENCY, 1.0),
        );
        lib.add(
            "M_cheap",
            mach_t,
            Attrs::new()
                .with(COST, 2.0)
                .with(THROUGHPUT, 10.0)
                .with(LATENCY, 8.0),
        );
        lib.add(
            "M_fast",
            mach_t,
            Attrs::new()
                .with(COST, 6.0)
                .with(THROUGHPUT, 10.0)
                .with(LATENCY, 2.0),
        );
        lib.add(
            "K0",
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
                max_latency: 20.0,
                max_input_jitter: 1.0,
                max_output_jitter: 1.0,
            }),
            flow_cap: 100.0,
            horizon: 100.0,
        };
        Problem::new(t, lib, spec)
    }

    #[test]
    fn encoding_has_expected_variables() {
        let p = chain_problem();
        let enc = encode_problem2(&p).unwrap();
        assert_eq!(enc.edge_vars.len(), 2);
        assert_eq!(enc.map_vars[1].len(), 2, "machine has two impls");
        assert_eq!(enc.beta_vars.len(), 3);
        assert_eq!(enc.flow_vars.len(), 2);
        assert_eq!(enc.tau_vars.len(), 2);
        let stats = enc.model.stats();
        // 2 edges + (1+2+1) maps + 3 betas binaries.
        assert_eq!(stats.num_binaries, 2 + 4 + 3);
    }

    #[test]
    fn solves_to_cheapest_functional_chain() {
        let p = chain_problem();
        let enc = encode_problem2(&p).unwrap();
        let sol = enc
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        // Sink is required, so the whole chain must instantiate: S + M_cheap + K.
        assert!(
            (sol.objective() - 4.0).abs() < 1e-6,
            "objective {}",
            sol.objective()
        );
        for e in &enc.edge_vars {
            assert!(sol.is_set(*e), "both edges selected");
        }
        // The cheap machine is selected.
        let m_cheap = enc.map_vars[1][0].1;
        assert!(sol.is_set(m_cheap));
    }

    #[test]
    fn no_required_node_means_empty_architecture() {
        let mut p = chain_problem();
        let k = p
            .template
            .node_ids()
            .find(|&n| p.template.node(n).name == "K")
            .unwrap();
        p.template.set_required(k, false);
        let enc = encode_problem2(&p).unwrap();
        let sol = enc
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        assert!(
            sol.objective().abs() < 1e-6,
            "empty architecture costs nothing"
        );
        for b in &enc.beta_vars {
            assert!(!sol.is_set(*b));
        }
    }

    #[test]
    fn throughput_limits_flow() {
        let mut p = chain_problem();
        // Shrink machine throughput below the sink demand: infeasible.
        let mach_t = p.template.type_by_name("mach").unwrap();
        let ids: Vec<_> = p.library.impls_of_type(mach_t).to_vec();
        for id in ids {
            // Rebuild impls with tiny throughput.
            let im = p.library.implementation(id).clone();
            let _ = im;
        }
        // Simpler: demand more than the source generates.
        let sink_t = p.template.type_by_name("sink").unwrap();
        let k_impl = p.library.impls_of_type(sink_t)[0];
        let mut im = p.library.implementation(k_impl).clone();
        im.attrs.set(FLOW_CONS, 50.0); // source only generates 10
                                       // Library has no mutate API by design; rebuild it.
        let mut lib2 = Library::new();
        for (id, old) in p.library.iter() {
            if id == k_impl {
                lib2.add(im.name.clone(), im.ty, im.attrs.clone());
            } else {
                lib2.add(old.name.clone(), old.ty, old.attrs.clone());
            }
        }
        p.library = lib2;
        let enc = encode_problem2(&p).unwrap();
        let out = enc.model.solve(&SolveOptions::default()).unwrap();
        assert!(
            !out.is_feasible(),
            "demand exceeding supply must be infeasible"
        );
    }

    #[test]
    fn fan_bounds_respected() {
        // Two sources feeding one machine with max_in = 1.
        let mut t = Template::new("fan");
        let src_t = t.add_type("src", TypeConfig::source());
        let mach_t = t.add_type("mach", TypeConfig::bounded(1, 2));
        let sink_t = t.add_type("sink", TypeConfig::sink());
        let s1 = t.add_node("S1", src_t);
        let s2 = t.add_node("S2", src_t);
        let m = t.add_node("M", mach_t);
        let k = t.add_required_node("K", sink_t);
        t.add_candidate_edge(s1, m);
        t.add_candidate_edge(s2, m);
        t.add_candidate_edge(m, k);

        let mut lib = Library::new();
        lib.add("S", src_t, Attrs::new().with(COST, 1.0).with(FLOW_GEN, 4.0));
        lib.add(
            "M",
            mach_t,
            Attrs::new().with(COST, 1.0).with(THROUGHPUT, 100.0),
        );
        lib.add(
            "K",
            sink_t,
            Attrs::new().with(COST, 1.0).with(FLOW_CONS, 6.0),
        );
        let spec = SystemSpec {
            flow: Some(FlowSpec {
                max_supply: 100.0,
                max_consumption: 100.0,
            }),
            timing: None,
            ..SystemSpec::default()
        };
        let p = Problem::new(t, lib, spec);
        let enc = encode_problem2(&p).unwrap();
        let out = enc.model.solve(&SolveOptions::default()).unwrap();
        // Demand 6 needs both sources (4 each), but max_in = 1 forbids it.
        assert!(!out.is_feasible());
    }

    #[test]
    fn symmetry_rows_preserve_optimum() {
        // Two identical parallel lines: the sym rows must prune permutations
        // without changing the optimal cost.
        let mut t = Template::new("twin");
        let src_t = t.add_type("src", TypeConfig::source());
        let mach_t = t.add_type("mach", TypeConfig::bounded(2, 2));
        let sink_t = t.add_type("sink", TypeConfig::sink());
        for side in ["A", "B"] {
            let s = t.add_node(format!("S{side}"), src_t);
            let m = t.add_node(format!("M{side}"), mach_t);
            let k = t.add_required_node(format!("K{side}"), sink_t);
            t.add_candidate_edge(s, m);
            t.add_candidate_edge(m, k);
        }
        let mut lib = Library::new();
        lib.add(
            "S",
            src_t,
            Attrs::new().with(COST, 1.0).with(FLOW_GEN, 10.0),
        );
        lib.add(
            "M",
            mach_t,
            Attrs::new().with(COST, 2.0).with(THROUGHPUT, 20.0),
        );
        lib.add(
            "K",
            sink_t,
            Attrs::new().with(COST, 1.0).with(FLOW_CONS, 5.0),
        );
        let spec = SystemSpec {
            flow: Some(FlowSpec {
                max_supply: 100.0,
                max_consumption: 100.0,
            }),
            timing: None,
            ..SystemSpec::default()
        };
        let p = Problem::new(t, lib, spec);

        let enc_on = encode_problem2(&p).unwrap();
        let enc_off = encode_problem2_sym(&p, &SymmetryConfig::off()).unwrap();
        assert!(
            enc_on.model.num_constrs() > enc_off.model.num_constrs(),
            "symmetric template must gain symmetry rows"
        );
        let cost_on = enc_on
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap()
            .objective();
        let cost_off = enc_off
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap()
            .objective();
        assert_eq!(
            cost_on.to_bits(),
            cost_off.to_bits(),
            "symmetry rows must preserve the optimum bit-for-bit"
        );
    }

    #[test]
    fn asymmetric_template_gets_no_symmetry_rows() {
        let p = chain_problem();
        let enc_on = encode_problem2(&p).unwrap();
        let enc_off = encode_problem2_sym(&p, &SymmetryConfig::off()).unwrap();
        assert_eq!(enc_on.model.num_constrs(), enc_off.model.num_constrs());
    }

    #[test]
    fn validation_errors_propagate() {
        let mut p = chain_problem();
        let ty = p.template.add_type("ghost", TypeConfig::default());
        p.template.add_node("G", ty);
        let err = encode_problem2(&p).unwrap_err();
        assert!(matches!(err, SolveError::InvalidModel(_)));
    }

    #[test]
    fn registry_lookups() {
        let p = chain_problem();
        let enc = encode_problem2(&p).unwrap();
        let n0 = p.template.node_ids().next().unwrap();
        let src_t = p.template.type_by_name("src").unwrap();
        let s_impl = p.library.impls_of_type(src_t)[0];
        assert!(enc.map_var(n0, s_impl).is_some());
        let mach_t = p.template.type_by_name("mach").unwrap();
        let m_impl = p.library.impls_of_type(mach_t)[0];
        assert!(enc.map_var(n0, m_impl).is_none(), "wrong type for node 0");
    }
}
