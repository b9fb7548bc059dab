//! The mixed integer linear programming model.

use crate::constraint::{Cmp, ConstrId, Constraint};
use crate::error::SolveError;
use crate::expr::LinExpr;
use crate::solution::Outcome;
use crate::solver::{SolveOptions, Solver};
use crate::var::{VarDef, VarId, VarType};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Minimize the objective (default).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sense::Minimize => f.write_str("minimize"),
            Sense::Maximize => f.write_str("maximize"),
        }
    }
}

/// Size statistics of a model, as reported in the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Total number of decision variables.
    pub num_vars: usize,
    /// Number of binary variables.
    pub num_binaries: usize,
    /// Number of general integer variables.
    pub num_integers: usize,
    /// Number of linear constraints.
    pub num_constraints: usize,
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vars ({} bin, {} int), {} constraints",
            self.num_vars, self.num_binaries, self.num_integers, self.num_constraints
        )
    }
}

/// A mixed integer linear program.
///
/// A `Model` owns its variables and constraints; [`VarId`]s and [`ConstrId`]s
/// index into it. Constraints may be appended after a solve, which is how the
/// ContrArc exploration loop adds infeasibility-certificate cuts between
/// iterations.
///
/// ```rust
/// use contrarc_milp::{Cmp, Model, Sense, SolveOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Model::new("lp");
/// let x = m.add_continuous("x", 0.0, f64::INFINITY);
/// let y = m.add_continuous("y", 0.0, f64::INFINITY);
/// m.add_constr("c1", x + 2.0 * y, Cmp::Le, 14.0)?;
/// m.add_constr("c2", 3.0 * x - y, Cmp::Ge, 0.0)?;
/// m.add_constr("c3", x - y, Cmp::Le, 2.0)?;
/// m.set_objective(Sense::Maximize, 3.0 * x + 4.0 * y);
/// let sol = m.solve(&SolveOptions::default())?.expect_optimal()?;
/// assert!((sol.objective() - 34.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Model {
    name: String,
    vars: Vec<VarDef>,
    constrs: Vec<Constraint>,
    objective: LinExpr,
    sense: Sense,
    /// Branching priority multipliers indexed by variable; absent entries
    /// read as `1.0`.
    branch_priorities: Vec<f64>,
    /// Identifies this model's history of appends: fresh for every new and
    /// every cloned model, so two states of a model share it only when one
    /// is the other with variables and constraints appended. Not content:
    /// nothing but [`Model::revision`] reads it.
    lineage: u64,
    /// Bumped by every [`Model::set_objective`].
    objective_rev: u64,
}

/// A fresh [`Model`] lineage id.
fn next_lineage() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for Model {
    fn default() -> Self {
        Model {
            name: String::new(),
            vars: Vec::new(),
            constrs: Vec::new(),
            objective: LinExpr::default(),
            sense: Sense::default(),
            branch_priorities: Vec::new(),
            lineage: next_lineage(),
            objective_rev: 0,
        }
    }
}

/// A clone starts a lineage of its own: growing it must not look like
/// growing the original.
impl Clone for Model {
    fn clone(&self) -> Self {
        Model {
            name: self.name.clone(),
            vars: self.vars.clone(),
            constrs: self.constrs.clone(),
            objective: self.objective.clone(),
            sense: self.sense,
            branch_priorities: self.branch_priorities.clone(),
            lineage: next_lineage(),
            objective_rev: self.objective_rev,
        }
    }
}

/// Where a model stands in its history of appends, for a solver that carries
/// work from one solve to the next: compare with [`Revision::extends`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Revision {
    lineage: u64,
    objective_rev: u64,
    num_vars: usize,
    num_constrs: usize,
}

impl Revision {
    /// Whether the model at `self` is the model at `older` with variables
    /// and constraints appended and nothing else changed. A model changes
    /// only by appends and [`Model::set_objective`] (branch priorities aside,
    /// which no carried work depends on), so the same lineage, the same
    /// objective and no fewer variables or constraints prove it in O(1).
    pub(crate) fn extends(&self, older: &Revision) -> bool {
        self.lineage == older.lineage
            && self.objective_rev == older.objective_rev
            && self.num_vars >= older.num_vars
            && self.num_constrs >= older.num_constrs
    }
}

impl Model {
    /// Create an empty model.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            ..Model::default()
        }
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    // ---- variables -------------------------------------------------------

    /// Add a variable from a full definition and return its handle.
    pub fn add_var(&mut self, def: VarDef) -> VarId {
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(def);
        id
    }

    /// Add a continuous variable with the given bounds.
    pub fn add_continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add_var(VarDef::new(name, VarType::Continuous, lb, ub))
    }

    /// Add an integer variable with the given bounds.
    pub fn add_integer(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add_var(VarDef::new(name, VarType::Integer, lb, ub))
    }

    /// Add a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(VarDef::new(name, VarType::Binary, 0.0, 1.0))
    }

    /// Add a free continuous variable (unbounded in both directions).
    pub fn add_free(&mut self, name: impl Into<String>) -> VarId {
        self.add_continuous(name, f64::NEG_INFINITY, f64::INFINITY)
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Definition of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    #[must_use]
    pub fn var(&self, v: VarId) -> &VarDef {
        &self.vars[v.index()]
    }

    /// Name of a variable.
    #[must_use]
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Iterate over `(id, definition)` for all variables.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &VarDef)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, d)| (VarId::from_index(i), d))
    }

    /// Set the branching priority multiplier of a variable. Branch-and-bound
    /// scales its fractionality-based variable selection score by this
    /// factor, so values above `1.0` pull branching toward `v` (e.g. toward
    /// the leading positions of symmetry-breaking lexicographic rows, where
    /// an early 0-fix lets the row prune the mirror subtree) and values in
    /// `(0, 1)` push it away. The default for every variable is `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model or `priority` is not
    /// finite and positive.
    pub fn set_branch_priority(&mut self, v: VarId, priority: f64) {
        assert!(v.index() < self.vars.len(), "unknown variable {v:?}");
        assert!(
            priority.is_finite() && priority > 0.0,
            "branch priority must be finite and positive, got {priority}"
        );
        if self.branch_priorities.len() < self.vars.len() {
            self.branch_priorities.resize(self.vars.len(), 1.0);
        }
        self.branch_priorities[v.index()] = priority;
    }

    /// Branching priority multiplier of a variable (`1.0` unless set).
    #[must_use]
    pub fn branch_priority(&self, v: VarId) -> f64 {
        self.branch_priorities
            .get(v.index())
            .copied()
            .unwrap_or(1.0)
    }

    // ---- constraints -----------------------------------------------------

    /// Add the constraint `expr cmp rhs` and return its handle.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidModel`] if the expression mentions a
    /// variable that does not belong to this model or contains a non-finite
    /// coefficient.
    pub fn add_constr(
        &mut self,
        name: impl Into<String>,
        expr: impl Into<LinExpr>,
        cmp: Cmp,
        rhs: f64,
    ) -> Result<ConstrId, SolveError> {
        let expr = expr.into();
        self.validate_expr(&expr)?;
        if !rhs.is_finite() {
            return Err(SolveError::InvalidModel(
                "constraint rhs must be finite".into(),
            ));
        }
        let id = ConstrId(u32::try_from(self.constrs.len()).expect("too many constraints"));
        self.constrs.push(Constraint::new(name, expr, cmp, rhs));
        Ok(id)
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constrs(&self) -> usize {
        self.constrs.len()
    }

    /// Iterate over all constraints.
    pub fn constrs(&self) -> impl Iterator<Item = &Constraint> {
        self.constrs.iter()
    }

    // ---- objective -------------------------------------------------------

    /// Set the objective function and sense. The expression is checked when
    /// the model is solved, as [`Model::add_constr`] checks a row's.
    pub fn set_objective(&mut self, sense: Sense, expr: impl Into<LinExpr>) {
        self.sense = sense;
        self.objective = expr.into();
        self.objective_rev += 1;
    }

    /// Current objective expression.
    #[must_use]
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// Current objective sense.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    // ---- queries ---------------------------------------------------------

    /// Where this model stands in its history of appends.
    pub(crate) fn revision(&self) -> Revision {
        Revision {
            lineage: self.lineage,
            objective_rev: self.objective_rev,
            num_vars: self.vars.len(),
            num_constrs: self.constrs.len(),
        }
    }

    /// Size statistics (vars/binaries/integers/constraints).
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        let num_binaries = self.vars.iter().filter(|d| d.ty == VarType::Binary).count();
        let num_integers = self
            .vars
            .iter()
            .filter(|d| d.ty == VarType::Integer)
            .count();
        ModelStats {
            num_vars: self.vars.len(),
            num_binaries,
            num_integers,
            num_constraints: self.constrs.len(),
        }
    }

    /// Whether the assignment satisfies every constraint, every bound, and
    /// the integrality requirements, within `tol`.
    #[must_use]
    pub fn is_feasible_point(&self, values: &[f64], tol: f64) -> bool {
        if values.len() < self.vars.len() {
            return false;
        }
        for (i, d) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < d.lb - tol || x > d.ub + tol {
                return false;
            }
            if d.ty.is_integral() && (x - x.round()).abs() > tol {
                return false;
            }
        }
        self.constrs.iter().all(|c| c.satisfied_by(values, tol))
    }

    /// Solve the model with the bundled branch-and-bound solver.
    ///
    /// This is a convenience wrapper around [`Solver::solve`].
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] if the model is malformed or a resource limit
    /// is hit before the outcome is known.
    pub fn solve(&self, options: &SolveOptions) -> Result<Outcome, SolveError> {
        Solver::new(options.clone()).solve(self)
    }

    pub(crate) fn validate_expr(&self, expr: &LinExpr) -> Result<(), SolveError> {
        if let Some(max) = expr.max_var_index() {
            if max >= self.vars.len() {
                return Err(SolveError::InvalidModel(format!(
                    "expression mentions unknown variable index {max} (model has {})",
                    self.vars.len()
                )));
            }
        }
        for (v, c) in expr.iter() {
            if !c.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "non-finite coefficient {c} on variable {}",
                    self.var_name(v)
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model {} ({}):", self.name, self.stats())?;
        writeln!(f, "  {} {}", self.sense, self.objective)?;
        for c in &self.constrs {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        let n = m.add_integer("n", -5.0, 5.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.var_name(b), "b");
        assert_eq!(m.var(n).ty, VarType::Integer);
        m.add_constr("c", x + b, Cmp::Le, 1.5).unwrap();
        assert_eq!(m.num_constrs(), 1);
        let s = m.stats();
        assert_eq!(s.num_binaries, 1);
        assert_eq!(s.num_integers, 1);
        assert_eq!(s.num_vars, 3);
    }

    #[test]
    fn rejects_unknown_variable() {
        let mut m = Model::new("t");
        let _ = m.add_binary("b");
        let ghost = VarId::from_index(10);
        let err = m
            .add_constr("bad", LinExpr::var(ghost), Cmp::Le, 1.0)
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidModel(_)));
    }

    #[test]
    fn rejects_nonfinite() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        assert!(m
            .add_constr("bad", LinExpr::term(x, f64::NAN), Cmp::Le, 1.0)
            .is_err());
        assert!(m
            .add_constr("bad", LinExpr::var(x), Cmp::Le, f64::INFINITY)
            .is_err());
    }

    #[test]
    fn feasibility_check_covers_bounds_and_integrality() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        m.add_constr("c", x + b, Cmp::Le, 1.5).unwrap();
        assert!(m.is_feasible_point(&[0.5, 1.0], 1e-9));
        assert!(!m.is_feasible_point(&[0.5, 0.5], 1e-9), "fractional binary");
        assert!(!m.is_feasible_point(&[1.5, 0.0], 1e-9), "bound violation");
        assert!(
            !m.is_feasible_point(&[1.0, 1.0], 1e-9),
            "constraint violation"
        );
        assert!(!m.is_feasible_point(&[1.0], 1e-9), "short vector");
    }

    #[test]
    fn revisions_tell_appends_from_other_changes() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constr("c", LinExpr::var(x), Cmp::Le, 0.5).unwrap();
        let before = m.revision();
        assert!(before.extends(&before));

        let b = m.add_binary("b");
        m.add_constr("d", x + b, Cmp::Le, 1.0).unwrap();
        m.set_branch_priority(b, 2.0);
        let grown = m.revision();
        assert!(grown.extends(&before));
        assert!(!before.extends(&grown), "a model does not shrink");

        // A clone starts a lineage of its own, and a new objective bumps
        // the revision.
        assert!(!m.clone().revision().extends(&grown));
        m.set_objective(Sense::Minimize, LinExpr::var(x));
        assert!(!m.revision().extends(&grown));
    }

    #[test]
    fn display_lists_everything() {
        let mut m = Model::new("d");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constr("c", LinExpr::var(x), Cmp::Ge, 0.5).unwrap();
        m.set_objective(Sense::Minimize, LinExpr::var(x));
        let text = m.to_string();
        assert!(text.contains("minimize"));
        assert!(text.contains("c: x0 >= 0.5"));
    }
}
