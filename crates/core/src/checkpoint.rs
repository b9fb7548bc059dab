//! Checkpointing the exploration loop for interrupt/resume.
//!
//! An [`ExplorerCheckpoint`] captures everything the lazy loop has *learned*
//! — the certificate cuts, the proven objective floor, the iteration and
//! work counters — without the transient solver state, so an interrupted
//! exploration can be continued later (or in another process) from exactly
//! where it stopped: [`Explorer::checkpoint`] /
//! [`Explorer::resume`](crate::Explorer::resume). This module owns the round
//! trip: capture, validation, replay and the text codec.
//!
//! The checkpoint is validated against a **fingerprint** of the Problem-2
//! model the loop solves (symmetry rows included), the system-level spec and
//! the pruning-semantics configuration, so cuts are never replayed into a
//! different model. A checkpoint therefore resumes only in the build and
//! under the `symmetry.milp_rows` setting that wrote it: a different encoding
//! is a [`CheckpointMismatch`](crate::ExploreError::CheckpointMismatch),
//! never a silent misreplay. Budget knobs (iteration caps, time limits,
//! solver options) are deliberately excluded from the fingerprint — raising
//! them is the normal reason to resume. Records that no run writes are
//! [`CheckpointInvalid`](crate::ExploreError::CheckpointInvalid).
//!
//! Persistence uses a small line-oriented text format
//! ([`ExplorerCheckpoint::to_text`] / [`ExplorerCheckpoint::from_text`])
//! with `f64`s round-tripped bit-exactly through their IEEE-754
//! representation. Its last line is an FNV-1a checksum of every byte before
//! it, so changed text fails to parse instead of resuming into a wrong
//! verdict. This module is its only codec.
//!
//! [`Explorer::checkpoint`]: crate::Explorer::checkpoint

use crate::exploration::{ExplorationStats, ExploreError, ExplorerConfig};
use crate::problem::SystemSpec;
use contrarc_milp::{Budget, Cmp, LinExpr, Model, Sense, VarDef, VarId, VarType};
use std::error::Error;
use std::fmt;

/// Format marker for the text serialization.
const HEADER: &str = "contrarc-checkpoint v2";

/// One certificate cut, stored model-independently as `(variable index,
/// coefficient)` terms against the baseline encoding's variable order
/// (auxiliary cut variables follow the baseline block in creation order).
#[derive(Debug, Clone, PartialEq)]
pub struct CutRecord {
    /// Constraint name (diagnostics only).
    pub name: String,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
    /// `(variable index, coefficient)` pairs.
    pub terms: Vec<(usize, f64)>,
}

/// An auxiliary variable created by certificate generation (e.g. the `y`
/// indicator of a whole-scope cut), replayed on resume so cut terms can
/// reference it.
#[derive(Debug, Clone, PartialEq)]
pub struct AuxVarRecord {
    /// Variable name (diagnostics only).
    pub name: String,
    /// Variable kind.
    pub ty: VarType,
    /// Lower bound.
    pub lb: f64,
    /// Upper bound.
    pub ub: f64,
}

/// A resumable snapshot of an exploration in progress.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorerCheckpoint {
    /// Fingerprint of the baseline encoding + pruning configuration the cuts
    /// belong to.
    pub fingerprint: u64,
    /// Next certificate sequence number.
    pub cut_seq: u32,
    /// Proven floor on the optimal cost.
    pub cost_floor: Option<f64>,
    /// Branch-and-bound nodes already charged against the budget.
    pub nodes_used: u64,
    /// Simplex pivots already charged against the budget.
    pub pivots_used: u64,
    /// Statistics at checkpoint time (`total_time` includes the seconds
    /// spent before the interruption). `milp_vars` and `milp_constraints`
    /// size the freshly encoded model, which the auxiliary variables and
    /// cuts extend.
    pub stats: ExplorationStats,
    /// Auxiliary variables created by the cuts, in creation order.
    pub aux_vars: Vec<AuxVarRecord>,
    /// The certificate cuts accumulated so far.
    pub cuts: Vec<CutRecord>,
}

/// Failure to parse a serialized checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointParseError {
    /// 1-based line of the offending record (0 for whole-document issues).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CheckpointParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for CheckpointParseError {}

fn err(line: usize, message: impl Into<String>) -> CheckpointParseError {
    CheckpointParseError {
        line,
        message: message.into(),
    }
}

/// Render an `f64` bit-exactly.
fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64(line: usize, s: &str) -> Result<f64, CheckpointParseError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| err(line, format!("bad f64 bits '{s}'")))
}

fn parse_int<T: std::str::FromStr>(line: usize, s: &str) -> Result<T, CheckpointParseError> {
    s.parse()
        .map_err(|_| err(line, format!("bad integer '{s}'")))
}

fn parse_stats(line: usize, s: &str) -> Result<ExplorationStats, CheckpointParseError> {
    let tok: Vec<&str> = s.split(' ').collect();
    match tok[..] {
        [iterations, cuts_added, milp_vars, milp_constraints, milp_time, refine_time, cert_time, total_time, cache_hits, cache_misses] => {
            Ok(ExplorationStats {
                iterations: parse_int(line, iterations)?,
                cuts_added: parse_int(line, cuts_added)?,
                milp_vars: parse_int(line, milp_vars)?,
                milp_constraints: parse_int(line, milp_constraints)?,
                milp_time: parse_f64(line, milp_time)?,
                refine_time: parse_f64(line, refine_time)?,
                cert_time: parse_f64(line, cert_time)?,
                total_time: parse_f64(line, total_time)?,
                cache_hits: parse_int(line, cache_hits)?,
                cache_misses: parse_int(line, cache_misses)?,
            })
        }
        _ => Err(err(
            line,
            format!("stats needs 10 fields, found {}", tok.len()),
        )),
    }
}

fn cmp_tag(cmp: Cmp) -> &'static str {
    match cmp {
        Cmp::Le => "le",
        Cmp::Ge => "ge",
        Cmp::Eq => "eq",
    }
}

fn parse_cmp(line: usize, s: &str) -> Result<Cmp, CheckpointParseError> {
    match s {
        "le" => Ok(Cmp::Le),
        "ge" => Ok(Cmp::Ge),
        "eq" => Ok(Cmp::Eq),
        _ => Err(err(line, format!("bad comparison '{s}'"))),
    }
}

fn var_type_tag(ty: VarType) -> &'static str {
    match ty {
        VarType::Continuous => "cont",
        VarType::Integer => "int",
        VarType::Binary => "bin",
    }
}

fn parse_var_type(line: usize, s: &str) -> Result<VarType, CheckpointParseError> {
    match s {
        "cont" => Ok(VarType::Continuous),
        "int" => Ok(VarType::Integer),
        "bin" => Ok(VarType::Binary),
        _ => Err(err(line, format!("bad variable type '{s}'"))),
    }
}

/// Whether a variable of type `ty` bounded by `[lb, ub]` has a value: no
/// bound is NaN, and the bounds do not cross once a binary's are clamped to
/// `[0, 1]` and an integral type's are rounded inward.
fn bounds_admit_a_value(ty: VarType, lb: f64, ub: f64) -> bool {
    let (lo, hi) = match ty {
        VarType::Continuous => (lb, ub),
        VarType::Integer => (lb.ceil(), ub.floor()),
        VarType::Binary => (lb.max(0.0).ceil(), ub.min(1.0).floor()),
    };
    !lb.is_nan() && !ub.is_nan() && lo <= hi
}

impl ExplorerCheckpoint {
    /// Capture a loop's state: the variables and rows `model` holds beyond
    /// the freshly encoded model that `stats` sizes are the auxiliary cut
    /// variables and the cuts.
    pub(crate) fn capture(
        model: &Model,
        fingerprint: u64,
        cut_seq: u32,
        cost_floor: Option<f64>,
        budget: &Budget,
        stats: ExplorationStats,
    ) -> Self {
        let aux_vars = model
            .vars()
            .skip(stats.milp_vars)
            .map(|(_, def)| AuxVarRecord {
                name: def.name.clone(),
                ty: def.ty,
                lb: def.lb,
                ub: def.ub,
            })
            .collect();
        let cuts = model
            .constrs()
            .skip(stats.milp_constraints)
            .map(|c| CutRecord {
                name: c.name.clone(),
                cmp: c.cmp,
                rhs: c.rhs,
                terms: c.expr.iter().map(|(v, coeff)| (v.index(), coeff)).collect(),
            })
            .collect();
        ExplorerCheckpoint {
            fingerprint,
            cut_seq,
            cost_floor,
            nodes_used: budget.nodes_used(),
            pivots_used: budget.pivots_used(),
            stats,
            aux_vars,
            cuts,
        }
    }

    /// Validate this checkpoint against a freshly encoded `model`, whose
    /// fingerprint is `fingerprint`, and append its auxiliary variables and
    /// cuts to it. The errors are those of [`crate::Explorer::resume`].
    pub(crate) fn replay(&self, fingerprint: u64, model: &mut Model) -> Result<(), ExploreError> {
        if self.fingerprint != fingerprint {
            return Err(ExploreError::CheckpointMismatch {
                expected: self.fingerprint,
                found: fingerprint,
            });
        }
        let invalid = |msg: String| Err(ExploreError::CheckpointInvalid(msg));
        let (vars, constrs) = (model.num_vars(), model.num_constrs());
        if (self.stats.milp_vars, self.stats.milp_constraints) != (vars, constrs) {
            return invalid(format!(
                "stats record {} vars / {} constraints, the encoding has {vars} / {constrs}",
                self.stats.milp_vars, self.stats.milp_constraints
            ));
        }
        // Every sequence number names at least one cut row.
        if self.cut_seq as usize > self.cuts.len() {
            return invalid(format!(
                "cut sequence number {} exceeds the {} recorded cuts",
                self.cut_seq,
                self.cuts.len()
            ));
        }
        for aux in &self.aux_vars {
            if !bounds_admit_a_value(aux.ty, aux.lb, aux.ub) {
                return invalid(format!(
                    "auxiliary variable '{}' has bounds that admit no value",
                    aux.name
                ));
            }
            model.add_var(VarDef::new(aux.name.clone(), aux.ty, aux.lb, aux.ub));
        }
        let num_vars = model.num_vars();
        for cut in &self.cuts {
            if cut.terms.iter().any(|&(i, _)| i >= num_vars) {
                return invalid(format!(
                    "cut '{}' references a variable outside the encoding",
                    cut.name
                ));
            }
            let expr =
                LinExpr::weighted_sum(cut.terms.iter().map(|&(i, c)| (VarId::from_index(i), c)));
            model.add_constr(cut.name.clone(), expr, cut.cmp, cut.rhs)?;
        }
        Ok(())
    }

    /// Serialize to the line-oriented text format, closed by a checksum line.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!("cut_seq {}\n", self.cut_seq));
        match self.cost_floor {
            Some(v) => out.push_str(&format!("cost_floor {}\n", f64_hex(v))),
            None => out.push_str("cost_floor -\n"),
        }
        // No `..`: a new stats field fails to compile here until it is
        // written, and `parse_stats` builds the struct with a literal.
        let ExplorationStats {
            iterations,
            cuts_added,
            milp_vars,
            milp_constraints,
            milp_time,
            refine_time,
            cert_time,
            total_time,
            cache_hits,
            cache_misses,
        } = self.stats;
        out.push_str(&format!(
            "stats {iterations} {cuts_added} {milp_vars} {milp_constraints} {} {} {} {} {cache_hits} {cache_misses}\n",
            f64_hex(milp_time),
            f64_hex(refine_time),
            f64_hex(cert_time),
            f64_hex(total_time)
        ));
        out.push_str(&format!("usage {} {}\n", self.nodes_used, self.pivots_used));
        out.push_str(&format!("aux_vars {}\n", self.aux_vars.len()));
        for v in &self.aux_vars {
            out.push_str(&format!(
                "{} {} {}\t{}\n",
                var_type_tag(v.ty),
                f64_hex(v.lb),
                f64_hex(v.ub),
                v.name
            ));
        }
        out.push_str(&format!("cuts {}\n", self.cuts.len()));
        for cut in &self.cuts {
            out.push_str(&format!(
                "{} {} {}",
                cmp_tag(cut.cmp),
                f64_hex(cut.rhs),
                cut.terms.len()
            ));
            for &(i, c) in &cut.terms {
                out.push_str(&format!(" {}:{}", i, f64_hex(c)));
            }
            // The name goes last, after a tab, so it may contain spaces.
            out.push('\t');
            out.push_str(&cut.name);
            out.push('\n');
        }
        let mut h = Fnv::new();
        h.bytes(out.as_bytes());
        out.push_str(&format!("checksum {:016x}\n", h.0));
        out
    }

    /// Parse the text format produced by [`ExplorerCheckpoint::to_text`].
    /// The records are parsed first and the closing checksum is checked
    /// last, so a malformed record is reported at its own line.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointParseError`] naming the first malformed line,
    /// or the checksum line when the text does not match its checksum.
    pub fn from_text(text: &str) -> Result<Self, CheckpointParseError> {
        let all: Vec<(usize, &str)> = text.lines().enumerate().map(|(i, l)| (i + 1, l)).collect();
        let mut lines = all.into_iter();

        fn field<'a>(
            lines: &mut std::vec::IntoIter<(usize, &'a str)>,
            key: &str,
        ) -> Result<(usize, &'a str), CheckpointParseError> {
            let (ln, line) = lines
                .next()
                .ok_or_else(|| err(0, format!("missing '{key}'")))?;
            let rest = line
                .strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| err(ln, format!("expected '{key} ...', found '{line}'")))?;
            Ok((ln, rest))
        }

        let (ln, header) = lines.next().ok_or_else(|| err(0, "empty checkpoint"))?;
        if header != HEADER {
            return Err(err(ln, format!("unsupported header '{header}'")));
        }
        let (ln, fp) = field(&mut lines, "fingerprint")?;
        let fingerprint =
            u64::from_str_radix(fp, 16).map_err(|_| err(ln, format!("bad fingerprint '{fp}'")))?;
        let (ln, cs) = field(&mut lines, "cut_seq")?;
        let cut_seq = parse_int(ln, cs)?;
        let (ln, cf) = field(&mut lines, "cost_floor")?;
        let cost_floor = if cf == "-" {
            None
        } else {
            Some(parse_f64(ln, cf)?)
        };
        let (ln, st) = field(&mut lines, "stats")?;
        let stats = parse_stats(ln, st)?;
        let (ln, us) = field(&mut lines, "usage")?;
        let (nodes, pivots) = us
            .split_once(' ')
            .ok_or_else(|| err(ln, "usage needs two fields"))?;
        let nodes_used = parse_int(ln, nodes)?;
        let pivots_used = parse_int(ln, pivots)?;
        let (ln, na) = field(&mut lines, "aux_vars")?;
        let num_aux: usize = parse_int(ln, na)?;
        // Counts come from untrusted text: a corrupt record must produce a
        // parse error, never an unbounded pre-allocation. Each record is at
        // least one line, so any count beyond the remaining line supply is
        // provably truncated input.
        if num_aux > lines.len() {
            return Err(err(
                ln,
                format!("aux var count {num_aux} exceeds remaining input"),
            ));
        }
        let mut aux_vars = Vec::with_capacity(num_aux);
        for _ in 0..num_aux {
            let (ln, line) = lines
                .next()
                .ok_or_else(|| err(0, "truncated aux var list"))?;
            let (head, name) = line
                .split_once('\t')
                .ok_or_else(|| err(ln, "aux var missing name"))?;
            let mut tok = head.split(' ');
            let ty = parse_var_type(
                ln,
                tok.next().ok_or_else(|| err(ln, "aux var missing type"))?,
            )?;
            let lb = parse_f64(ln, tok.next().ok_or_else(|| err(ln, "aux var missing lb"))?)?;
            let ub = parse_f64(ln, tok.next().ok_or_else(|| err(ln, "aux var missing ub"))?)?;
            if tok.next().is_some() {
                return Err(err(ln, "trailing tokens in aux var record"));
            }
            aux_vars.push(AuxVarRecord {
                name: name.to_string(),
                ty,
                lb,
                ub,
            });
        }
        let (ln, nc) = field(&mut lines, "cuts")?;
        let num_cuts: usize = parse_int(ln, nc)?;
        if num_cuts > lines.len() {
            return Err(err(
                ln,
                format!("cut count {num_cuts} exceeds remaining input"),
            ));
        }
        let mut cuts = Vec::with_capacity(num_cuts);
        for _ in 0..num_cuts {
            let (ln, line) = lines.next().ok_or_else(|| err(0, "truncated cut list"))?;
            let (head, name) = line
                .split_once('\t')
                .ok_or_else(|| err(ln, "cut record missing name"))?;
            let mut tok = head.split(' ');
            let cmp = parse_cmp(ln, tok.next().ok_or_else(|| err(ln, "cut missing cmp"))?)?;
            let rhs = parse_f64(ln, tok.next().ok_or_else(|| err(ln, "cut missing rhs"))?)?;
            let nterms: usize = parse_int(
                ln,
                tok.next()
                    .ok_or_else(|| err(ln, "cut missing term count"))?,
            )?;
            // Each term is at least two bytes of the record head; cap the
            // pre-allocation by what the line can physically hold.
            if nterms > head.len() {
                return Err(err(ln, format!("term count {nterms} exceeds record size")));
            }
            let mut terms = Vec::with_capacity(nterms);
            for _ in 0..nterms {
                let t = tok.next().ok_or_else(|| err(ln, "cut truncated"))?;
                let (i, c) = t.split_once(':').ok_or_else(|| err(ln, "bad term"))?;
                terms.push((parse_int(ln, i)?, parse_f64(ln, c)?));
            }
            if tok.next().is_some() {
                return Err(err(ln, "trailing tokens in cut record"));
            }
            cuts.push(CutRecord {
                name: name.to_string(),
                cmp,
                rhs,
                terms,
            });
        }
        let (ln, sum) = field(&mut lines, "checksum")?;
        if let Some((ln, _)) = lines.next() {
            return Err(err(ln, "content after the checksum"));
        }
        let recorded =
            u64::from_str_radix(sum, 16).map_err(|_| err(ln, format!("bad checksum '{sum}'")))?;
        // The checksum line is the last one: it covers every byte before it.
        let body = text.strip_suffix('\n').unwrap_or(text);
        let covered = body.rfind('\n').map_or("", |i| &body[..=i]);
        let mut h = Fnv::new();
        h.bytes(covered.as_bytes());
        if h.0 != recorded {
            return Err(err(ln, "checksum does not match the text"));
        }
        Ok(ExplorerCheckpoint {
            fingerprint,
            cut_seq,
            cost_floor,
            nodes_used,
            pivots_used,
            stats,
            aux_vars,
            cuts,
        })
    }
}

/// 64-bit FNV-1a running hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }
}

/// Fingerprint the Problem-2 model the loop solves, the system-level spec,
/// and the pruning-semantics configuration. Two explorations share a
/// fingerprint when they solve the same model under the same spec and
/// pruning semantics; cuts learned by one are then sound for the other.
/// Budget knobs (iteration caps, time limits, solver options) are excluded.
/// The spec must be hashed explicitly: system-level contracts are checked
/// lazily by refinement and never appear in the Problem-2 model, yet the
/// cuts they produce depend on them.
pub(crate) fn fingerprint(model: &Model, spec: &SystemSpec, config: &ExplorerConfig) -> u64 {
    let mut h = Fnv::new();
    match &spec.flow {
        Some(f) => {
            h.bool(true);
            h.f64(f.max_supply);
            h.f64(f.max_consumption);
        }
        None => h.bool(false),
    }
    match &spec.timing {
        Some(t) => {
            h.bool(true);
            h.f64(t.max_latency);
            h.f64(t.max_input_jitter);
            h.f64(t.max_output_jitter);
        }
        None => h.bool(false),
    }
    h.f64(spec.flow_cap);
    h.f64(spec.horizon);
    h.str(model.name());
    h.usize(model.num_vars());
    for (_, def) in model.vars() {
        h.str(&def.name);
        h.str(var_type_tag(def.ty));
        h.f64(def.lb);
        h.f64(def.ub);
    }
    h.usize(model.num_constrs());
    for c in model.constrs() {
        h.str(&c.name);
        h.str(cmp_tag(c.cmp));
        h.f64(c.rhs);
        h.usize(c.expr.num_terms());
        for (v, coeff) in c.expr.iter() {
            h.usize(v.index());
            h.f64(coeff);
        }
    }
    h.bool(model.sense() == Sense::Maximize);
    h.f64(model.objective().constant());
    h.usize(model.objective().num_terms());
    for (v, coeff) in model.objective().iter() {
        h.usize(v.index());
        h.f64(coeff);
    }
    // `config.symmetry` needs no hash of its own: `milp_rows` shows in the
    // model wherever it adds rows, and `orbit_pruning` changes neither the
    // model nor the cut set.
    h.bool(config.iso_pruning);
    h.bool(config.compositional);
    h.bool(config.dominance_widening);
    h.usize(config.max_paths);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::tests::lines_problem;
    use crate::sym::SymmetryConfig;
    use crate::{explore, Explorer, Problem, Step};

    fn sample() -> ExplorerCheckpoint {
        ExplorerCheckpoint {
            fingerprint: 0xdead_beef_0123_4567,
            cut_seq: 7,
            cost_floor: Some(12.5),
            nodes_used: 99,
            pivots_used: 12345,
            stats: ExplorationStats {
                iterations: 3,
                cuts_added: 5,
                milp_vars: 20,
                milp_constraints: 44,
                milp_time: 0.125,
                refine_time: 0.25,
                cert_time: 0.0625,
                total_time: 0.5,
                cache_hits: 11,
                cache_misses: 4,
            },
            aux_vars: vec![AuxVarRecord {
                name: "cut0[y] indicator".into(),
                ty: VarType::Binary,
                lb: 0.0,
                ub: 1.0,
            }],
            cuts: vec![
                CutRecord {
                    name: "cut[0] iso embedding".into(),
                    cmp: Cmp::Le,
                    rhs: 2.0,
                    terms: vec![(0, 1.0), (3, 1.0), (5, -1.0)],
                },
                CutRecord {
                    name: "cut[1]".into(),
                    cmp: Cmp::Ge,
                    rhs: -1.5,
                    terms: vec![],
                },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let ckpt = sample();
        let text = ckpt.to_text();
        let back = ExplorerCheckpoint::from_text(&text).unwrap();
        assert_eq!(ckpt, back);
    }

    #[test]
    fn round_trip_preserves_awkward_floats() {
        let mut ckpt = sample();
        ckpt.cost_floor = Some(0.1 + 0.2); // not representable exactly
        ckpt.cuts[0].rhs = -0.0;
        ckpt.stats = ExplorationStats {
            iterations: 17,
            cuts_added: 5,
            milp_vars: 120,
            milp_constraints: 240,
            milp_time: 0.1 + 0.2,
            refine_time: f64::MIN_POSITIVE,
            cert_time: -0.0,
            total_time: 123.456_789,
            cache_hits: u64::MAX,
            cache_misses: 3,
        };
        let text = ckpt.to_text();
        let back = ExplorerCheckpoint::from_text(&text).unwrap();
        assert_eq!(back, ckpt);
        // PartialEq equates −0.0 and 0.0; the text holds every f64's bits,
        // so equal texts make the round trip bit for bit.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn none_cost_floor_round_trips() {
        let mut ckpt = sample();
        ckpt.cost_floor = None;
        let back = ExplorerCheckpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(back.cost_floor, None);
    }

    /// The sample's text with its `stats` line (line 5) replaced by each
    /// malformed one: the legacy 8 fields, 11 fields, and a non-numeric
    /// token.
    fn bad_stats_texts() -> Vec<String> {
        let text = sample().to_text();
        let good = text.lines().nth(4).unwrap();
        assert!(good.starts_with("stats 3 "));
        [
            good.split(' ').take(9).collect::<Vec<_>>().join(" "),
            format!("{good} 0"),
            good.replacen("stats 3 ", "stats three ", 1),
        ]
        .iter()
        .map(|bad| text.replacen(good, bad, 1))
        .collect()
    }

    #[test]
    fn rejects_garbage() {
        assert!(ExplorerCheckpoint::from_text("").is_err());
        assert!(ExplorerCheckpoint::from_text("not a checkpoint").is_err());
        let truncated = sample()
            .to_text()
            .lines()
            .take(3)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(ExplorerCheckpoint::from_text(&truncated).is_err());
        for text in bad_stats_texts() {
            assert!(ExplorerCheckpoint::from_text(&text).is_err(), "{text}");
        }
    }

    #[test]
    fn parse_error_reports_line() {
        let mut text = sample().to_text();
        text = text.replace("cut_seq 7", "cut_seq seven");
        let e = ExplorerCheckpoint::from_text(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
        for text in bad_stats_texts() {
            let e = ExplorerCheckpoint::from_text(&text).unwrap_err();
            assert_eq!(e.line, 5, "{e}");
            assert!(e.to_string().contains("line 5"));
        }
    }

    #[test]
    fn checkpoint_resume_reaches_same_optimum() {
        let p = lines_problem(15.0);
        let full = explore(&p, &ExplorerConfig::complete()).unwrap();
        let full_cost = full.architecture().unwrap().cost();
        let full_iters = full.stats().iterations;
        assert!(full_iters >= 2, "problem must need pruning for this test");

        // Interrupt after one iteration, checkpoint, resume, finish.
        let mut ex = Explorer::new(
            &p,
            ExplorerConfig {
                max_iterations: 1,
                ..ExplorerConfig::complete()
            },
        )
        .unwrap();
        loop {
            match ex.step().unwrap() {
                Step::Pruned { .. } => {}
                Step::Exhausted(_) => break,
                s => panic!("expected exhaustion first, got {s:?}"),
            }
        }
        let ckpt = ex.checkpoint();
        assert!(!ckpt.cuts.is_empty());
        assert_eq!(ckpt.stats.iterations, 1);

        let resumed = Explorer::resume(&p, ExplorerConfig::complete(), &ckpt).unwrap();
        let result = resumed.run().unwrap();
        let arch = result.architecture().expect("resumed run must converge");
        assert!((arch.cost() - full_cost).abs() < 1e-6);
        // The resumed run continues the iteration count instead of starting
        // over, and together the two halves match the uninterrupted run.
        assert_eq!(result.stats().iterations, full_iters);
    }

    #[test]
    fn checkpoint_rejects_different_problem() {
        let p15 = lines_problem(15.0);
        let p50 = lines_problem(50.0);
        let ex = Explorer::new(&p15, ExplorerConfig::complete()).unwrap();
        let ckpt = ex.checkpoint();
        let err = Explorer::resume(&p50, ExplorerConfig::complete(), &ckpt).unwrap_err();
        assert!(matches!(err, ExploreError::CheckpointMismatch { .. }));
    }

    #[test]
    fn checkpoint_rejects_different_pruning_config() {
        let p = lines_problem(15.0);
        let ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
        let ckpt = ex.checkpoint();
        let err = Explorer::resume(&p, ExplorerConfig::only_iso(), &ckpt).unwrap_err();
        assert!(matches!(err, ExploreError::CheckpointMismatch { .. }));

        // Symmetry rows change the model the loop solves, so a checkpoint
        // written with them resumes only with them, and the reverse.
        let on = ExplorerConfig::complete();
        let off = ExplorerConfig {
            symmetry: SymmetryConfig::off(),
            ..ExplorerConfig::complete()
        };
        let written = [&on, &off].map(|config| {
            let mut ex = Explorer::new(&p, config.clone()).unwrap();
            let _ = ex.step().unwrap();
            ex.checkpoint()
        });
        assert!(written[0].stats.milp_constraints > written[1].stats.milp_constraints);
        for (ckpt, config) in written.iter().zip([off, on]) {
            let err = Explorer::resume(&p, config, ckpt).unwrap_err();
            assert!(matches!(err, ExploreError::CheckpointMismatch { .. }));
        }
    }

    #[test]
    fn resume_may_raise_budget_knobs() {
        // Budget knobs (iteration caps, time limits) are not fingerprinted:
        // raising them is the whole point of resuming.
        let p = lines_problem(15.0);
        let config = ExplorerConfig {
            max_iterations: 1,
            ..ExplorerConfig::complete()
        };
        let ex = Explorer::new(&p, config).unwrap();
        let ckpt = ex.checkpoint();
        let raised = ExplorerConfig {
            max_iterations: 99,
            time_limit_secs: Some(3600.0),
            ..ExplorerConfig::complete()
        };
        assert!(Explorer::resume(&p, raised, &ckpt).is_ok());
    }

    #[test]
    fn resume_from_text_round_trips_a_real_checkpoint() {
        let p = lines_problem(15.0);
        let mut ex = Explorer::new(
            &p,
            ExplorerConfig {
                max_iterations: 1,
                ..ExplorerConfig::complete()
            },
        )
        .unwrap();
        while !matches!(ex.step().unwrap(), Step::Exhausted(_)) {}
        let text = ex.checkpoint().to_text();
        let resumed = Explorer::resume_from_text(&p, ExplorerConfig::complete(), &text).unwrap();
        let result = resumed.run().unwrap();
        assert!(result.architecture().is_some());
    }

    #[test]
    fn resume_from_text_rejects_every_corruption_mode_structurally() {
        let p = lines_problem(15.0);
        let ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
        let good = ex.checkpoint().to_text();

        // Truncation at every byte boundary that removes content (cutting
        // only the trailing newline leaves a complete document): never a
        // panic, never a silent misparse — every other prefix must error.
        for cut in 0..good.trim_end().len() {
            let truncated = &good[..cut];
            let err = Explorer::resume_from_text(&p, ExplorerConfig::complete(), truncated)
                .expect_err("truncated checkpoint accepted");
            assert!(
                matches!(err, ExploreError::CheckpointParse(_)),
                "byte {cut}: unexpected error {err:?}"
            );
        }

        // Garbage.
        for garbage in [
            "",
            "not a checkpoint",
            "\0\0\0\0",
            "contrarc-checkpoint v999\n",
        ] {
            let err = Explorer::resume_from_text(&p, ExplorerConfig::complete(), garbage)
                .expect_err("garbage accepted");
            assert!(matches!(err, ExploreError::CheckpointParse(_)));
        }

        // Fingerprint mismatch: a checkpoint of a different problem.
        let other = lines_problem(50.0);
        let other_text = Explorer::new(&other, ExplorerConfig::complete())
            .unwrap()
            .checkpoint()
            .to_text();
        let err = Explorer::resume_from_text(&p, ExplorerConfig::complete(), &other_text)
            .expect_err("mismatched checkpoint accepted");
        assert!(matches!(err, ExploreError::CheckpointMismatch { .. }));

        // Hostile record counts must not pre-allocate unboundedly.
        for (from, to) in [
            ("aux_vars 0", "aux_vars 987654321987654321"),
            ("cuts 0", "cuts 987654321987654321"),
        ] {
            let hostile = good.replace(from, to);
            if hostile == good {
                continue;
            }
            let err = Explorer::resume_from_text(&p, ExplorerConfig::complete(), &hostile)
                .expect_err("hostile count accepted");
            assert!(matches!(err, ExploreError::CheckpointParse(_)));
        }
    }

    /// A fresh explorer of `p` and its checkpoint text, carrying stats that
    /// a lossy float format would change, with the model's real sizes.
    fn awkward_checkpoint(p: &Problem) -> (Explorer<'_>, ExplorationStats, String) {
        let ex = Explorer::new(p, ExplorerConfig::complete()).unwrap();
        let stats = ExplorationStats {
            iterations: 17,
            cuts_added: 5,
            milp_vars: ex.stats().milp_vars,
            milp_constraints: ex.stats().milp_constraints,
            milp_time: 0.1 + 0.2, // not exactly representable
            refine_time: f64::MIN_POSITIVE,
            cert_time: -0.0,
            total_time: 123.456_789,
            cache_hits: u64::MAX,
            cache_misses: 3,
        };
        let text = ExplorerCheckpoint {
            stats,
            ..ex.checkpoint()
        }
        .to_text();
        (ex, stats, text)
    }

    #[test]
    fn stats_line_round_trip_is_exact() {
        // A resume takes every stats field from the text bit for bit.
        let p = lines_problem(15.0);
        let (_, stats, text) = awkward_checkpoint(&p);
        let resumed = Explorer::resume_from_text(&p, ExplorerConfig::complete(), &text).unwrap();
        assert_eq!(*resumed.stats(), stats);
        // Bit-exactness beyond PartialEq (−0.0 == 0.0 under PartialEq).
        assert_eq!(
            resumed.stats().cert_time.to_bits(),
            stats.cert_time.to_bits()
        );
    }

    #[test]
    fn stats_line_rejects_malformed_input() {
        let p = lines_problem(15.0);
        let (_, _, text) = awkward_checkpoint(&p);
        let good = text.lines().nth(4).unwrap();
        assert!(good.starts_with("stats 17 "));
        let mangled = good.replacen("17", "seventeen", 1);
        for bad in ["stats ", "stats 1 2 3", mangled.as_str()] {
            let err = Explorer::resume_from_text(
                &p,
                ExplorerConfig::complete(),
                &text.replacen(good, bad, 1),
            )
            .expect_err("malformed stats line accepted");
            assert!(
                matches!(err, ExploreError::CheckpointParse(ref e) if e.line == 5),
                "{err}"
            );
        }
    }

    /// A checkpoint of `p` after its first step, which prunes.
    fn after_one_step(p: &Problem) -> ExplorerCheckpoint {
        let mut ex = Explorer::new(p, ExplorerConfig::complete()).unwrap();
        assert!(matches!(ex.step().unwrap(), Step::Pruned { .. }));
        ex.checkpoint()
    }

    fn assert_invalid(p: &Problem, ckpt: &ExplorerCheckpoint, what: &str) {
        let err = Explorer::resume(p, ExplorerConfig::complete(), ckpt)
            .err()
            .unwrap_or_else(|| panic!("{what} accepted"));
        assert!(
            matches!(err, ExploreError::CheckpointInvalid(_)),
            "{what}: {err}"
        );
    }

    #[test]
    fn resume_rejects_stats_sizes_other_than_the_encodings() {
        let p = lines_problem(15.0);
        let good = after_one_step(&p);
        for (dv, dc) in [(1, 0), (0, 1), (0, usize::MAX)] {
            let mut ckpt = good.clone();
            ckpt.stats.milp_vars = ckpt.stats.milp_vars.wrapping_add(dv);
            ckpt.stats.milp_constraints = ckpt.stats.milp_constraints.wrapping_add(dc);
            assert_invalid(&p, &ckpt, "a stats line of another model size");
        }
        assert!(Explorer::resume(&p, ExplorerConfig::complete(), &good).is_ok());
    }

    #[test]
    fn resume_rejects_a_cut_sequence_number_beyond_the_cuts() {
        let p = lines_problem(15.0);
        let good = after_one_step(&p);
        assert!(good.cut_seq as usize <= good.cuts.len());
        for cut_seq in [good.cuts.len() as u32 + 1, u32::MAX] {
            let ckpt = ExplorerCheckpoint {
                cut_seq,
                ..good.clone()
            };
            assert_invalid(&p, &ckpt, "a cut sequence number beyond the cuts");
        }
    }

    #[test]
    fn resume_rejects_aux_bounds_that_admit_no_value() {
        let p = lines_problem(15.0);
        let good = after_one_step(&p);
        let with_aux = |ty, lb, ub| {
            let mut ckpt = good.clone();
            ckpt.aux_vars.push(AuxVarRecord {
                name: "cut9[y]".into(),
                ty,
                lb,
                ub,
            });
            ckpt
        };
        for (ty, lb, ub) in [
            // Passes `lb <= ub`, but a binary clamps it to [2, 1].
            (VarType::Binary, 2.0, 3.0),
            (VarType::Binary, -3.0, -2.0),
            (VarType::Binary, 0.25, 0.75),
            (VarType::Integer, 0.25, 0.75),
            (VarType::Continuous, 1.0, 0.0),
            (VarType::Continuous, f64::NAN, 1.0),
            (VarType::Binary, 0.0, f64::NAN),
        ] {
            assert_invalid(&p, &with_aux(ty, lb, ub), &format!("{ty:?} [{lb}, {ub}]"));
        }
        for (ty, lb, ub) in [
            (VarType::Binary, 0.0, 1.0),
            (VarType::Binary, 1.0, 5.0),
            (VarType::Integer, -0.5, 0.5),
            (VarType::Continuous, 0.25, 0.25),
        ] {
            assert!(
                Explorer::resume(&p, ExplorerConfig::complete(), &with_aux(ty, lb, ub)).is_ok(),
                "{ty:?} [{lb}, {ub}] rejected"
            );
        }
    }
}
