//! Activity-based bound tightening.
//!
//! A light presolve pass that propagates constraint activities into variable
//! bounds before the LP relaxation is built. On the big-M-heavy models that
//! contract encodings produce this both shrinks the search and catches
//! trivially infeasible cut sets early.

use crate::constraint::Cmp;
use crate::model::Model;
use std::fmt;

/// Outcome summary of a presolve pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PresolveReport {
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Number of individual bound tightenings applied.
    pub tightened: usize,
    /// Whether presolve proved the model infeasible.
    pub infeasible: bool,
}

impl fmt::Display for PresolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infeasible {
            write!(f, "presolve: infeasible after {} rounds", self.rounds)
        } else {
            write!(
                f,
                "presolve: {} tightenings in {} rounds",
                self.tightened, self.rounds
            )
        }
    }
}

const MAX_ROUNDS: usize = 16;
const TIGHTEN_EPS: f64 = 1e-9;

/// Run presolve on a model and return the tightened bounds together with a
/// report.
///
/// ```rust
/// use contrarc_milp::{presolve, Cmp, Model};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Model::new("p");
/// let x = m.add_continuous("x", 0.0, 100.0);
/// let y = m.add_continuous("y", 0.0, 100.0);
/// m.add_constr("c", x + y, Cmp::Le, 5.0)?;
/// let (lbs, ubs, report) = presolve(&m);
/// assert!(ubs[x.index()] <= 5.0);
/// assert!(ubs[y.index()] <= 5.0);
/// assert!(!report.infeasible);
/// # let _ = lbs;
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn presolve(model: &Model) -> (Vec<f64>, Vec<f64>, PresolveReport) {
    let mut lbs: Vec<f64> = model.vars().map(|(_, d)| d.lb).collect();
    let mut ubs: Vec<f64> = model.vars().map(|(_, d)| d.ub).collect();
    let mut report = PresolveReport::default();
    report.infeasible = !tighten_with_report(model, &mut lbs, &mut ubs, &mut report);
    (lbs, ubs, report)
}

/// Tighten `lbs`/`ubs` in place. Returns `false` when the model is proven
/// infeasible.
pub(crate) fn tighten_bounds(model: &Model, lbs: &mut [f64], ubs: &mut [f64]) -> bool {
    let mut report = PresolveReport::default();
    tighten_with_report(model, lbs, ubs, &mut report)
}

/// Root bounds for branch-and-bound: model bounds with integral bounds
/// rounded inward, then (when `presolve_enabled`) activity-tightened. `None`
/// when the model is proven infeasible outright.
pub(crate) fn root_bounds(model: &Model, presolve_enabled: bool) -> Option<(Vec<f64>, Vec<f64>)> {
    let mut lbs: Vec<f64> = model.vars().map(|(_, d)| d.lb).collect();
    let mut ubs: Vec<f64> = model.vars().map(|(_, d)| d.ub).collect();
    // Integral bounds can always be rounded inward.
    for (i, (_, d)) in model.vars().enumerate() {
        if d.ty.is_integral() {
            lbs[i] = lbs[i].ceil();
            ubs[i] = ubs[i].floor();
        }
        if lbs[i] > ubs[i] {
            return None;
        }
    }
    if presolve_enabled && !tighten_bounds(model, &mut lbs, &mut ubs) {
        return None;
    }
    Some((lbs, ubs))
}

fn tighten_with_report(
    model: &Model,
    lbs: &mut [f64],
    ubs: &mut [f64],
    report: &mut PresolveReport,
) -> bool {
    let integral: Vec<bool> = model.vars().map(|(_, d)| d.ty.is_integral()).collect();
    for round in 0..MAX_ROUNDS {
        report.rounds = round + 1;
        let mut changed = false;
        for c in model.constrs() {
            // Treat `=` as both `≤` and `≥`.
            let dirs: &[Cmp] = match c.cmp {
                Cmp::Le => &[Cmp::Le],
                Cmp::Ge => &[Cmp::Ge],
                Cmp::Eq => &[Cmp::Le, Cmp::Ge],
            };
            for &dir in dirs {
                // Normalize to Σ aⱼxⱼ ≤ rhs.
                let sign = if dir == Cmp::Le { 1.0 } else { -1.0 };
                let rhs = sign * c.rhs;

                // Minimum activity and whether it is finite.
                let mut min_act = 0.0_f64;
                let mut inf_terms = 0usize;
                for (v, a0) in c.expr.iter() {
                    let a = sign * a0;
                    let contrib = if a > 0.0 {
                        a * lbs[v.index()]
                    } else {
                        a * ubs[v.index()]
                    };
                    if contrib.is_finite() {
                        min_act += contrib;
                    } else {
                        inf_terms += 1;
                    }
                }
                if inf_terms > 1 {
                    continue; // nothing derivable
                }
                for (v, a0) in c.expr.iter() {
                    let a = sign * a0;
                    let i = v.index();
                    let own = if a > 0.0 { a * lbs[i] } else { a * ubs[i] };
                    // Activity of the other terms.
                    let rest = if own.is_finite() {
                        if inf_terms > 0 {
                            continue; // the infinity is elsewhere
                        }
                        min_act - own
                    } else if inf_terms == 1 {
                        min_act
                    } else {
                        continue;
                    };
                    if !rest.is_finite() {
                        continue;
                    }
                    if a > 0.0 {
                        let mut new_ub = (rhs - rest) / a;
                        if integral[i] {
                            new_ub = (new_ub + TIGHTEN_EPS).floor();
                        }
                        if new_ub < ubs[i] - TIGHTEN_EPS {
                            ubs[i] = new_ub;
                            report.tightened += 1;
                            changed = true;
                        }
                    } else {
                        let mut new_lb = (rhs - rest) / a;
                        if integral[i] {
                            new_lb = (new_lb - TIGHTEN_EPS).ceil();
                        }
                        if new_lb > lbs[i] + TIGHTEN_EPS {
                            lbs[i] = new_lb;
                            report.tightened += 1;
                            changed = true;
                        }
                    }
                    if lbs[i] > ubs[i] + 1e-7 {
                        return false;
                    }
                    // Snap tiny inversions caused by the epsilon.
                    if lbs[i] > ubs[i] {
                        ubs[i] = lbs[i];
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model};

    #[test]
    fn tightens_simple_sum() {
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 100.0);
        let y = m.add_continuous("y", 0.0, 100.0);
        m.add_constr("c", x + y, Cmp::Le, 5.0).unwrap();
        let (lbs, ubs, rep) = presolve(&m);
        assert!(!rep.infeasible);
        assert!(ubs[0] <= 5.0 + 1e-9);
        assert!(ubs[1] <= 5.0 + 1e-9);
        assert_eq!(lbs[0], 0.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constr("c", x + y, Cmp::Ge, 3.0).unwrap();
        let (_, _, rep) = presolve(&m);
        assert!(rep.infeasible);
    }

    #[test]
    fn rounds_integer_bounds() {
        let mut m = Model::new("p");
        let x = m.add_integer("x", 0.0, 100.0);
        m.add_constr("c", 2.0 * x, Cmp::Le, 7.0).unwrap();
        let (_, ubs, _) = presolve(&m);
        assert_eq!(ubs[0], 3.0);
    }

    #[test]
    fn ge_direction_raises_lower_bounds() {
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_constr("c", x + y, Cmp::Ge, 8.0).unwrap();
        let (lbs, _, rep) = presolve(&m);
        assert!(!rep.infeasible);
        assert!(lbs[0] >= 6.0 - 1e-9, "x >= 8 - max(y) = 6, got {}", lbs[0]);
    }

    #[test]
    fn equality_propagates_both_ways() {
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 3.0, 4.0);
        m.add_constr("c", x + y, Cmp::Eq, 6.0).unwrap();
        let (lbs, ubs, _) = presolve(&m);
        assert!(ubs[0] <= 3.0 + 1e-9);
        assert!(lbs[0] >= 2.0 - 1e-9);
    }

    #[test]
    fn unbounded_vars_skipped_gracefully() {
        let mut m = Model::new("p");
        let x = m.add_free("x");
        let y = m.add_free("y");
        m.add_constr("c", x + y, Cmp::Le, 5.0).unwrap();
        let (_, _, rep) = presolve(&m);
        assert!(!rep.infeasible);
    }

    #[test]
    fn one_sided_infinity_still_derives() {
        // x free, y in [0,1], x + y <= 5  =>  x <= 5.
        let mut m = Model::new("p");
        let _x = m.add_free("x");
        let _y = m.add_continuous("y", 0.0, 1.0);
        m.add_constr("c", _x + _y, Cmp::Le, 5.0).unwrap();
        let (_, ubs, _) = presolve(&m);
        assert!(ubs[0] <= 5.0 + 1e-9);
    }

    #[test]
    fn report_display() {
        let rep = PresolveReport {
            rounds: 2,
            tightened: 5,
            infeasible: false,
        };
        assert!(rep.to_string().contains("5 tightenings"));
        let bad = PresolveReport {
            rounds: 1,
            tightened: 0,
            infeasible: true,
        };
        assert!(bad.to_string().contains("infeasible"));
    }
}
