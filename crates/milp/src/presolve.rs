//! Activity-based bound tightening.
//!
//! A light presolve pass that propagates constraint activities into variable
//! bounds before the LP relaxation is built. On the big-M-heavy models that
//! contract encodings produce this both shrinks the search and catches
//! trivially infeasible cut sets early.

use crate::constraint::{Cmp, Constraint};
use crate::model::Model;
use crate::solver::ROW_TOL;

const MAX_ROUNDS: usize = 16;
const TIGHTEN_EPS: f64 = 1e-9;

/// Lower and upper bounds, one of each per variable.
pub(crate) type Bounds = (Vec<f64>, Vec<f64>);

/// The bound writes of one [`root_bounds_recorded`] run, round by round:
/// what [`extend`] replays on a grown model instead of propagating every row
/// again.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Record {
    /// Constraints the run propagated: the model's first `rows`.
    rows: usize,
    /// Every bound write in run order, as `(2 · variable + side, value)`
    /// with side [`LOWER`] or [`UPPER`].
    writes: Vec<(u32, f64)>,
    /// Where each round's writes end in `writes`, one entry per round run.
    round_ends: Vec<usize>,
}

/// The bounds [`root_bounds_recorded`] returns, without its record.
#[cfg(test)]
pub(crate) fn root_bounds(model: &Model, presolve_enabled: bool) -> Option<Bounds> {
    root_bounds_recorded(model, presolve_enabled).map(|(bounds, _)| bounds)
}

/// Root bounds for branch-and-bound: model bounds with integral bounds
/// rounded inward, then (when `presolve_enabled`) activity-tightened. `None`
/// when the model is proven infeasible outright. Returned together with the
/// record of the run, for [`extend`].
pub(crate) fn root_bounds_recorded(
    model: &Model,
    presolve_enabled: bool,
) -> Option<(Bounds, Record)> {
    let (mut lbs, mut ubs) = initial_bounds(model)?;
    let mut record = Record {
        rows: model.num_constrs(),
        ..Record::default()
    };
    if presolve_enabled && !tighten(model, &mut lbs, &mut ubs, &mut record) {
        return None;
    }
    Some(((lbs, ubs), record))
}

/// The root bounds of `model` read off `record`, a run on an earlier state
/// of it: the same model before constraints `record.rows..` (and any
/// variables past the earlier ones) were appended. Returns them with the
/// record of the run on `model`.
///
/// In every round of a full run the old rows see exactly the bounds they
/// saw in the recorded run, since they mention only old variables and the
/// appended rows come after them. So if no appended row writes a bound or
/// proves infeasibility against the state each recorded round left, the
/// full run on `model` is the recorded run, round for round, and its result
/// is the recorded final bounds plus the appended variables' rounded
/// bounds. Each round's state is checked, not only the last: an appended
/// row can write at an earlier round, where bounds are looser. `None` when
/// some appended row writes (or a new variable's bounds cross): the run
/// differs, and only [`root_bounds_recorded`] can tell how.
pub(crate) fn extend(mut record: Record, model: &Model) -> Option<(Bounds, Record)> {
    let (mut lbs, mut ubs) = initial_bounds(model)?;
    let integral = integrality(model);
    let mut writes = Vec::new();
    let mut start = 0;
    for (round, &end) in record.round_ends.iter().enumerate() {
        if round > 0 && end == start {
            continue; // the state the round before left, checked already
        }
        for &(slot, value) in &record.writes[start..end] {
            let i = (slot / 2) as usize;
            if slot % 2 == LOWER {
                lbs[i] = value;
            } else {
                ubs[i] = value;
            }
        }
        start = end;
        for c in model.constrs().skip(record.rows) {
            if !propagate(c, &integral, &mut lbs, &mut ubs, &mut writes) || !writes.is_empty() {
                return None;
            }
        }
    }
    record.rows = model.num_constrs();
    Some(((lbs, ubs), record))
}

/// Model bounds with integral bounds rounded inward; `None` when some
/// variable's bounds cross.
fn initial_bounds(model: &Model) -> Option<Bounds> {
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
    Some((lbs, ubs))
}

fn integrality(model: &Model) -> Vec<bool> {
    model.vars().map(|(_, d)| d.ty.is_integral()).collect()
}

/// Propagate row activities into `lbs`/`ubs` in place, for at most
/// `MAX_ROUNDS` rounds, recording every write. Returns `false` when the
/// model is proven infeasible.
fn tighten(model: &Model, lbs: &mut [f64], ubs: &mut [f64], record: &mut Record) -> bool {
    let integral = integrality(model);
    for _ in 0..MAX_ROUNDS {
        let round_start = record.writes.len();
        for c in model.constrs() {
            if !propagate(c, &integral, lbs, ubs, &mut record.writes) {
                return false;
            }
        }
        record.round_ends.push(record.writes.len());
        if record.writes.len() == round_start {
            break;
        }
    }
    true
}

/// Propagate one row's activity into `lbs`/`ubs`, appending each bound it
/// writes to `writes` (see [`Record::writes`]). Returns `false` when the row
/// proves the model infeasible.
fn propagate(
    c: &Constraint,
    integral: &[bool],
    lbs: &mut [f64],
    ubs: &mut [f64],
    writes: &mut Vec<(u32, f64)>,
) -> bool {
    // A row without terms, `0 ⋈ rhs`, holds or fails outright: it fails
    // when it misses its right-hand side by more than the incumbent row
    // check allows, and writes no bound either way.
    if c.expr.num_terms() == 0 {
        return c.violation(&[]) <= ROW_TOL * (1.0 + c.rhs.abs());
    }
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
                    writes.push((slot(i, UPPER), new_ub));
                }
            } else {
                let mut new_lb = (rhs - rest) / a;
                if integral[i] {
                    new_lb = (new_lb - TIGHTEN_EPS).ceil();
                }
                if new_lb > lbs[i] + TIGHTEN_EPS {
                    lbs[i] = new_lb;
                    writes.push((slot(i, LOWER), new_lb));
                }
            }
            if lbs[i] > ubs[i] + 1e-7 {
                return false;
            }
            // Snap tiny inversions caused by the epsilon.
            if lbs[i] > ubs[i] {
                ubs[i] = lbs[i];
                writes.push((slot(i, UPPER), lbs[i]));
            }
        }
    }
    true
}

/// Sides of a [`Record::writes`] slot.
const LOWER: u32 = 0;
const UPPER: u32 = 1;

/// The [`Record::writes`] slot of variable `i`'s bound on `side`.
fn slot(i: usize, side: u32) -> u32 {
    u32::try_from(2 * i).expect("variable count fits in u32") + side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LinExpr, Model};

    #[test]
    fn tightens_simple_sum() {
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 100.0);
        let y = m.add_continuous("y", 0.0, 100.0);
        m.add_constr("c", x + y, Cmp::Le, 5.0).unwrap();
        let (lbs, ubs) = root_bounds(&m, true).expect("feasible");
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
        assert_eq!(root_bounds(&m, true), None);
    }

    #[test]
    fn rounds_integer_bounds() {
        let mut m = Model::new("p");
        let x = m.add_integer("x", 0.0, 100.0);
        m.add_constr("c", 2.0 * x, Cmp::Le, 7.0).unwrap();
        let (_, ubs) = root_bounds(&m, true).expect("feasible");
        assert_eq!(ubs[0], 3.0);
    }

    #[test]
    fn ge_direction_raises_lower_bounds() {
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_constr("c", x + y, Cmp::Ge, 8.0).unwrap();
        let (lbs, _) = root_bounds(&m, true).expect("feasible");
        assert!(lbs[0] >= 6.0 - 1e-9, "x >= 8 - max(y) = 6, got {}", lbs[0]);
    }

    #[test]
    fn equality_propagates_both_ways() {
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 3.0, 4.0);
        m.add_constr("c", x + y, Cmp::Eq, 6.0).unwrap();
        let (lbs, ubs) = root_bounds(&m, true).expect("feasible");
        assert!(ubs[0] <= 3.0 + 1e-9);
        assert!(lbs[0] >= 2.0 - 1e-9);
    }

    #[test]
    fn unbounded_vars_skipped_gracefully() {
        let mut m = Model::new("p");
        let x = m.add_free("x");
        let y = m.add_free("y");
        m.add_constr("c", x + y, Cmp::Le, 5.0).unwrap();
        assert!(root_bounds(&m, true).is_some());
    }

    #[test]
    fn an_appended_row_is_checked_against_every_round() {
        // x − y ≤ 0 and y ≤ 2 over x, y ∈ [0, 10]: round 1 writes y ≤ 2,
        // round 2 writes x ≤ 2, round 3 writes nothing.
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constr("a", x - y, Cmp::Le, 0.0).unwrap();
        m.add_constr("b", 1.0 * y, Cmp::Le, 2.0).unwrap();
        let (_, record) = root_bounds_recorded(&m, true).expect("feasible");
        assert_eq!(record.round_ends, vec![1, 2, 2]);

        // x + z ≤ 20 writes in no round: the recorded run is the full run.
        let z = m.add_continuous("z", 0.0, 4.0);
        let mut loose = m.clone();
        loose.add_constr("loose", x + z, Cmp::Le, 20.0).unwrap();
        assert_eq!(
            extend(record.clone(), &loose),
            root_bounds_recorded(&loose, true)
        );

        // x + z ≤ 5 writes x ≤ 5 against round 1's bounds, though nothing
        // against the final ones (x ≤ 2, z ≤ 4).
        m.add_constr("cut", x + z, Cmp::Le, 5.0).unwrap();
        assert_eq!(extend(record, &m), None);
        let ((_, ubs), _) = root_bounds_recorded(&m, true).expect("feasible");
        assert_eq!(ubs, vec![2.0, 2.0, 4.0]);
    }

    #[test]
    fn an_infeasible_appended_row_asks_for_a_full_run() {
        let mut m = Model::new("p");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_binary("y");
        m.add_constr("a", x + y, Cmp::Le, 20.0).unwrap();
        let (_, record) = root_bounds_recorded(&m, true).expect("feasible");
        m.add_constr("cut", 1.0 * x, Cmp::Ge, 15.0).unwrap();
        assert_eq!(extend(record, &m), None);
        assert_eq!(root_bounds(&m, true), None);
    }

    #[test]
    fn a_row_without_terms_is_decided_outright() {
        let with_row = |cmp, rhs| {
            let mut m = Model::new("p");
            m.add_continuous("x", 0.0, 1.0);
            m.add_constr("c", LinExpr::new(), cmp, rhs).unwrap();
            m
        };
        // 0 ≥ 1, 0 ≤ −1 and 0 = 1 fail; 0 ≤ 1 and 0 = 0 hold.
        for (cmp, rhs) in [(Cmp::Ge, 1.0), (Cmp::Le, -1.0), (Cmp::Eq, 1.0)] {
            assert_eq!(
                root_bounds(&with_row(cmp, rhs), true),
                None,
                "0 {cmp} {rhs}"
            );
        }
        for (cmp, rhs) in [(Cmp::Le, 1.0), (Cmp::Eq, 0.0)] {
            let bounds = root_bounds(&with_row(cmp, rhs), true);
            assert_eq!(bounds, Some((vec![0.0], vec![1.0])), "0 {cmp} {rhs}");
        }
        // Within the row tolerance, `0 = 1e-9` holds.
        assert!(root_bounds(&with_row(Cmp::Eq, 1e-9), true).is_some());
        // An appended failing row sends a carried run to a full one.
        let m = with_row(Cmp::Le, 1.0);
        let (_, record) = root_bounds_recorded(&m, true).expect("feasible");
        let mut grown = m.clone();
        grown
            .add_constr("false", LinExpr::new(), Cmp::Ge, 1.0)
            .unwrap();
        assert_eq!(extend(record, &grown), None);
    }

    #[test]
    fn one_sided_infinity_still_derives() {
        // x free, y in [0,1], x + y <= 5  =>  x <= 5.
        let mut m = Model::new("p");
        let _x = m.add_free("x");
        let _y = m.add_continuous("y", 0.0, 1.0);
        m.add_constr("c", _x + _y, Cmp::Le, 5.0).unwrap();
        let (_, ubs) = root_bounds(&m, true).expect("feasible");
        assert!(ubs[0] <= 5.0 + 1e-9);
    }
}
