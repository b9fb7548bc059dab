//! Checkpointing the exploration loop for interrupt/resume.
//!
//! An [`ExplorerCheckpoint`] captures everything the lazy loop has *learned*
//! — the certificate cuts, the proven objective floor, the iteration and
//! work counters — without the transient solver state, so an interrupted
//! exploration can be continued later (or in another process) from exactly
//! where it stopped: [`Explorer::checkpoint`] /
//! [`Explorer::resume`](crate::Explorer::resume).
//!
//! The checkpoint is validated against a **fingerprint** of the baseline
//! Problem-2 encoding plus the pruning-semantics configuration, so cuts are
//! never replayed into a different problem. Budget knobs (iteration caps,
//! time limits, solver tolerances) are deliberately excluded from the
//! fingerprint — raising them is the normal reason to resume.
//!
//! Persistence uses a small line-oriented text format
//! ([`ExplorerCheckpoint::to_text`] / [`ExplorerCheckpoint::from_text`])
//! with `f64`s round-tripped bit-exactly through their IEEE-754
//! representation.
//!
//! [`Explorer::checkpoint`]: crate::Explorer::checkpoint

use crate::explorer::{ExplorationStats, ExplorerConfig};
use crate::problem::SystemSpec;
use contrarc_milp::{Cmp, Model, Sense, VarType};
use std::error::Error;
use std::fmt;

/// Format marker for the text serialization.
const HEADER: &str = "contrarc-checkpoint v1";

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
    /// Variable count of the freshly encoded model (auxiliary cut variables
    /// start after it).
    pub baseline_vars: usize,
    /// Constraint count of the freshly encoded model (cuts start after it).
    pub baseline_constrs: usize,
    /// Next certificate sequence number.
    pub cut_seq: u32,
    /// Proven floor on the optimal cost.
    pub cost_floor: Option<f64>,
    /// Branch-and-bound nodes already charged against the budget.
    pub nodes_used: u64,
    /// Simplex pivots already charged against the budget.
    pub pivots_used: u64,
    /// Statistics at checkpoint time (`total_time` includes the seconds
    /// spent before the interruption).
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

impl ExplorerCheckpoint {
    /// Serialize to the line-oriented text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!("baseline_vars {}\n", self.baseline_vars));
        out.push_str(&format!("baseline_constrs {}\n", self.baseline_constrs));
        out.push_str(&format!("cut_seq {}\n", self.cut_seq));
        match self.cost_floor {
            Some(v) => out.push_str(&format!("cost_floor {}\n", f64_hex(v))),
            None => out.push_str("cost_floor -\n"),
        }
        // The stats record is owned by `ExplorationStats` itself (one field
        // list generates the renderer, the parser, and `Display`).
        out.push_str(&format!("stats {}\n", self.stats.to_stats_line()));
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
        out
    }

    /// Parse the text format produced by [`ExplorerCheckpoint::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointParseError`] naming the first malformed line.
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
        let (ln, bv) = field(&mut lines, "baseline_vars")?;
        let baseline_vars = parse_int(ln, bv)?;
        let (ln, bc) = field(&mut lines, "baseline_constrs")?;
        let baseline_constrs = parse_int(ln, bc)?;
        let (ln, cs) = field(&mut lines, "cut_seq")?;
        let cut_seq = parse_int(ln, cs)?;
        let (ln, cf) = field(&mut lines, "cost_floor")?;
        let cost_floor = if cf == "-" {
            None
        } else {
            Some(parse_f64(ln, cf)?)
        };
        let (ln, st) = field(&mut lines, "stats")?;
        // Legacy 8-field (pre-cache-counter) lines are accepted by the
        // parser; see `ExplorationStats::from_stats_line`.
        let stats = ExplorationStats::from_stats_line(st).map_err(|m| err(ln, m))?;
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
        Ok(ExplorerCheckpoint {
            fingerprint,
            baseline_vars,
            baseline_constrs,
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

/// Fingerprint the baseline Problem-2 encoding, the system-level spec, and
/// the pruning-semantics configuration. Two explorations share a fingerprint
/// exactly when cuts learned by one are sound for the other, so budget knobs
/// (iteration caps, time limits, solver options) are excluded. The spec must
/// be hashed explicitly: system-level contracts are checked lazily by
/// refinement and never appear in the Problem-2 model, yet the cuts they
/// produce depend on them.
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
        h.bytes(&[match def.ty {
            VarType::Continuous => 0,
            VarType::Integer => 1,
            VarType::Binary => 2,
        }]);
        h.f64(def.lb);
        h.f64(def.ub);
    }
    h.usize(model.num_constrs());
    for c in model.constrs() {
        h.str(&c.name);
        h.bytes(&[match c.cmp {
            Cmp::Le => 0,
            Cmp::Ge => 1,
            Cmp::Eq => 2,
        }]);
        h.f64(c.rhs);
        h.usize(c.expr.num_terms());
        for (v, coeff) in c.expr.iter() {
            h.usize(v.index());
            h.f64(coeff);
        }
    }
    h.bytes(&[match model.sense() {
        Sense::Minimize => 0,
        Sense::Maximize => 1,
    }]);
    h.f64(model.objective().constant());
    h.usize(model.objective().num_terms());
    for (v, coeff) in model.objective().iter() {
        h.usize(v.index());
        h.f64(coeff);
    }
    // `config.symmetry` is deliberately absent: callers fingerprint the
    // symmetry-free baseline model, and symmetry reduction is an
    // accelerator that never changes the optimum or the
    // soundness of learned cuts, so checkpoints remain interchangeable
    // across symmetry settings and with pre-symmetry checkpoint files.
    h.bool(config.iso_pruning);
    h.bool(config.compositional);
    h.bool(config.dominance_widening);
    h.usize(config.max_paths);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExplorerCheckpoint {
        ExplorerCheckpoint {
            fingerprint: 0xdead_beef_0123_4567,
            baseline_vars: 20,
            baseline_constrs: 42,
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
        ckpt.stats.total_time = f64::MIN_POSITIVE;
        ckpt.cuts[0].rhs = -0.0;
        let back = ExplorerCheckpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(
            ckpt.cost_floor.unwrap().to_bits(),
            back.cost_floor.unwrap().to_bits()
        );
        assert_eq!(
            ckpt.stats.total_time.to_bits(),
            back.stats.total_time.to_bits()
        );
        assert_eq!(ckpt.cuts[0].rhs.to_bits(), back.cuts[0].rhs.to_bits());
    }

    #[test]
    fn none_cost_floor_round_trips() {
        let mut ckpt = sample();
        ckpt.cost_floor = None;
        let back = ExplorerCheckpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(back.cost_floor, None);
    }

    #[test]
    fn legacy_eight_field_stats_line_parses_with_zero_cache_counters() {
        let text = sample().to_text();
        let legacy: String = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("stats ") {
                    let fields: Vec<&str> = rest.split(' ').collect();
                    format!("stats {}", fields[..8].join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let back = ExplorerCheckpoint::from_text(&legacy).unwrap();
        assert_eq!(back.stats.iterations, sample().stats.iterations);
        assert_eq!(back.stats.cache_hits, 0);
        assert_eq!(back.stats.cache_misses, 0);
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
    }

    #[test]
    fn parse_error_reports_line() {
        let mut text = sample().to_text();
        text = text.replace("cut_seq 7", "cut_seq seven");
        let e = ExplorerCheckpoint::from_text(&text).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.to_string().contains("line 5"));
    }
}
