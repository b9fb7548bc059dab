//! The root setup of a branch-and-bound solve: presolved root bounds and the
//! equilibrated standard form every node's LP rebinds.
//!
//! An exploration re-solves its selection MILP after every certificate, and
//! a certificate only appends rows (and, for whole-architecture cuts, an
//! auxiliary binary). [`RootSetup::prepare`] therefore grows the previous
//! solve's setup instead of rebuilding it, when two things hold: the model
//! is that solve's model with variables and constraints appended, which the
//! model's [`Revision`] proves in O(1), and the extension provably equals a
//! rebuild, which [`presolve::extend`] and [`RecordedForm::extend`] decide.
//! Every root bound, scale factor and matrix entry is then bit-identical to
//! a rebuild's, and so is every pivot, node and incumbent after it.

use crate::model::{Model, Revision};
use crate::presolve;
use crate::standard_form::RecordedForm;
use contrarc_obs::metrics::counter_add;

/// What a solve sets up before its first node.
#[derive(Debug)]
pub(crate) struct RootSetup {
    /// The model state this setup is for.
    revision: Revision,
    /// Whether activity presolve tightened the bounds: off at the retry
    /// ladder's last rung.
    presolve: bool,
    /// Root bounds: the model's bounds, rounded and presolved.
    pub lbs: Vec<f64>,
    pub ubs: Vec<f64>,
    record: presolve::Record,
    /// The standard form under the root bounds.
    pub form: RecordedForm,
}

/// How a solve's root setup came about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetupReport {
    /// The root bounds were read off the carried presolve record.
    pub presolve_reused: bool,
    /// The standard form was extended (`Some(true)`) or built afresh
    /// (`Some(false)`); `None` when presolve proved the model infeasible
    /// before a form was needed.
    pub form_extended: Option<bool>,
}

impl SetupReport {
    /// Count this setup in the metrics: once per MILP solve, at the point
    /// where the solve commits its outcome.
    pub(crate) fn emit(self) {
        counter_add(
            if self.presolve_reused {
                "milp.presolve_reused"
            } else {
                "milp.presolve_rerun"
            },
            1,
        );
        if let Some(extended) = self.form_extended {
            counter_add(
                if extended {
                    "milp.form_extended"
                } else {
                    "milp.form_rebuilt"
                },
                1,
            );
        }
    }
}

impl RootSetup {
    /// Whether a solve of `model` at presolve setting `presolve` may carry
    /// this setup: `model` is the model it was set up for with variables and
    /// constraints appended, and presolve is set as it was.
    pub(crate) fn fits(&self, model: &Model, presolve: bool) -> bool {
        self.presolve == presolve && model.revision().extends(&self.revision)
    }

    /// The root setup of `model`, grown from `carried` (a setup that
    /// [fits](RootSetup::fits)) where that equals a rebuild and built afresh
    /// otherwise, with how it came about. The setup is `None` when presolve
    /// proves the model infeasible.
    pub(crate) fn prepare(
        model: &Model,
        presolve: bool,
        carried: Option<RootSetup>,
    ) -> (Option<RootSetup>, SetupReport) {
        debug_assert!(carried.as_ref().is_none_or(|s| s.fits(model, presolve)));
        let (form, reused) = match carried {
            Some(setup) => (Some(setup.form), presolve::extend(setup.record, model)),
            None => (None, None),
        };
        let presolve_reused = reused.is_some();
        let Some(((lbs, ubs), record)) =
            reused.or_else(|| presolve::root_bounds_recorded(model, presolve))
        else {
            let report = SetupReport {
                presolve_reused,
                form_extended: None,
            };
            return (None, report);
        };
        let extended = form.and_then(|form| form.extend(model, &lbs, &ubs));
        let report = SetupReport {
            presolve_reused,
            form_extended: Some(extended.is_some()),
        };
        let form = extended.unwrap_or_else(|| RecordedForm::build(model, Some((&lbs, &ubs))));
        let setup = RootSetup {
            revision: model.revision(),
            presolve,
            lbs,
            ubs,
            record,
            form,
        };
        (Some(setup), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presolve::root_bounds_recorded;
    use crate::solver::differential::Rng;
    use crate::solver::{Numerics, SolveOptions, Solver, WarmStart};
    use crate::{Cmp, LinExpr, Sense, VarId};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Panic unless `setup` is, bit for bit, what a solve of `model` at
    /// `presolve` sets up from scratch: the same root bounds (or the same
    /// infeasibility), presolve record, form and equilibration record.
    fn assert_matches_rebuild(model: &Model, presolve: bool, setup: Option<&RootSetup>, ctx: &str) {
        match (setup, root_bounds_recorded(model, presolve)) {
            (None, None) => {}
            (Some(setup), Some(((lbs, ubs), record))) => {
                assert_eq!(bits(&setup.lbs), bits(&lbs), "{ctx}: lower bounds");
                assert_eq!(bits(&setup.ubs), bits(&ubs), "{ctx}: upper bounds");
                assert_eq!(setup.record, record, "{ctx}: presolve record");
                let built = RecordedForm::build(model, Some((&lbs, &ubs)));
                setup.form.assert_bit_identical(&built, ctx);
                assert_eq!(setup.revision, model.revision(), "{ctx}: revision");
                assert_eq!(setup.presolve, presolve, "{ctx}: presolve setting");
            }
            (setup, rebuilt) => panic!(
                "{ctx}: the carried setup is {} but a rebuild is {}",
                if setup.is_some() {
                    "feasible"
                } else {
                    "infeasible"
                },
                if rebuilt.is_some() {
                    "feasible"
                } else {
                    "infeasible"
                },
            ),
        }
    }

    /// The setup a solve of `model` at `presolve` starts from when offered
    /// `carried`, which it takes only if it fits; checked against a rebuild.
    fn next(
        model: &Model,
        presolve: bool,
        carried: Option<RootSetup>,
        ctx: &str,
    ) -> (Option<RootSetup>, SetupReport) {
        let carried = carried.filter(|s| s.fits(model, presolve));
        let (setup, report) = RootSetup::prepare(model, presolve, carried);
        assert_matches_rebuild(model, presolve, setup.as_ref(), ctx);
        (setup, report)
    }

    const REBUILT: SetupReport = SetupReport {
        presolve_reused: false,
        form_extended: Some(false),
    };

    /// A variable of a random kind, with a finite lower bound.
    fn add_var(m: &mut Model, rng: &mut Rng) -> VarId {
        let i = m.num_vars();
        match rng.below(4) {
            0 => m.add_binary(format!("b{i}")),
            1 => {
                let lb = rng.below(3) as f64 - 1.0;
                m.add_integer(format!("n{i}"), lb, lb + rng.below(6) as f64)
            }
            2 => {
                let lb = rng.quarter(-2.0, 1.0);
                m.add_continuous(format!("x{i}"), lb, lb + rng.quarter(0.25, 8.0))
            }
            _ => m.add_continuous(format!("y{i}"), 0.0, f64::INFINITY),
        }
    }

    /// A row over `first` and up to two more random variables, with
    /// coefficients of either sign that one time in four are scaled by up
    /// to 2^±4, so some rows move column factors. The row holds at the
    /// variables' lower bounds, with room to spare that may be zero, so
    /// some rows tighten bounds. One row in forty instead asks `first` for
    /// more than its upper bound (or than 10 if it has none), which
    /// presolve proves infeasible when that bound is finite.
    fn add_row(m: &mut Model, rng: &mut Rng, first: VarId) {
        let name = format!("c{}", m.num_constrs());
        if rng.below(40) == 0 {
            let ub = m.var(first).ub.min(10.0);
            m.add_constr(name, LinExpr::var(first), Cmp::Ge, ub + 1.0)
                .unwrap();
            return;
        }
        let mut expr = LinExpr::new();
        let mut var = first;
        for _ in 0..1 + rng.below(3) {
            let mut a = rng.quarter(0.25, 4.0);
            if rng.below(2) == 0 {
                a = -a;
            }
            if rng.below(4) == 0 {
                a *= 2.0_f64.powi(rng.below(9) as i32 - 4);
            }
            expr.add_term(var, a);
            var = random_var(m, rng);
        }
        let at_lb: f64 = expr.iter().map(|(v, a)| a * m.var(v).lb).sum();
        let room = if rng.below(4) == 0 {
            0.0
        } else {
            rng.quarter(0.0, 16.0)
        };
        let (cmp, rhs) = match rng.below(7) {
            0..=2 => (Cmp::Le, at_lb + room),
            3..=5 => (Cmp::Ge, at_lb - room),
            _ => (Cmp::Eq, at_lb),
        };
        m.add_constr(name, expr, cmp, rhs).unwrap();
    }

    fn random_var(m: &Model, rng: &mut Rng) -> VarId {
        VarId::from_index(rng.below(m.num_vars() as u64) as usize)
    }

    /// 3–7 variables under 2–5 rows, with a random objective.
    fn base_model(rng: &mut Rng) -> Model {
        let mut m = Model::new("grow");
        for _ in 0..3 + rng.below(5) {
            add_var(&mut m, rng);
        }
        for _ in 0..2 + rng.below(4) {
            let v = random_var(&m, rng);
            add_row(&mut m, rng, v);
        }
        let obj: LinExpr = m
            .vars()
            .map(|(v, _)| LinExpr::term(v, rng.quarter(-4.0, 4.0)))
            .sum();
        let sense = if rng.below(2) == 0 {
            Sense::Minimize
        } else {
            Sense::Maximize
        };
        m.set_objective(sense, obj);
        m
    }

    /// One cut-loop step: one time in three an auxiliary variable with a
    /// row of its own, then one to three rows over any variables.
    fn grow(m: &mut Model, rng: &mut Rng) {
        for _ in 0..rng.below(3).saturating_sub(1) {
            let aux = add_var(m, rng);
            add_row(m, rng, aux);
        }
        for _ in 0..1 + rng.below(3) {
            let v = random_var(m, rng);
            add_row(m, rng, v);
        }
    }

    #[test]
    fn carried_setups_equal_rebuilds_while_random_models_grow() {
        // Reused and rerun presolves, extended and rebuilt forms and
        // infeasible models, over carried setups.
        let (mut reused, mut rerun, mut extended, mut rebuilt, mut infeasible) = (0, 0, 0, 0, 0);
        for seed in 0..40 {
            let mut rng = Rng::new(seed);
            let mut model = base_model(&mut rng);
            let (mut carried, _) = next(&model, true, None, &format!("seed {seed} base"));
            for step in 0..24 {
                let ctx = format!("seed {seed} step {step}");
                grow(&mut model, &mut rng);
                let had_setup = carried.is_some();
                let (setup, report) = next(&model, true, carried, &ctx);
                if had_setup {
                    match report.presolve_reused {
                        true => reused += 1,
                        false => rerun += 1,
                    }
                    match report.form_extended {
                        Some(true) => extended += 1,
                        Some(false) => rebuilt += 1,
                        None => infeasible += 1,
                    }
                } else {
                    assert!(!report.presolve_reused, "{ctx}");
                    assert_ne!(report.form_extended, Some(true), "{ctx}");
                }
                carried = setup;
                if carried.is_none() {
                    // Start a fresh chain: an infeasible model stays so.
                    model = base_model(&mut rng);
                    carried = next(&model, true, None, &format!("{ctx} restart")).0;
                }
            }
        }
        let tally = [reused, rerun, extended, rebuilt, infeasible];
        assert!(
            tally.iter().all(|&n| n >= 5),
            "[reused, rerun, extended, rebuilt, infeasible] = {tally:?}"
        );
    }

    /// `x, y ∈ [0, 10]`, `z` binary, under `x − y ≤ 0` and `y ≤ 2`.
    fn chain_model() -> Model {
        let mut m = Model::new("chain");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        let z = m.add_binary("z");
        m.add_constr("a", x - y, Cmp::Le, 0.0).unwrap();
        m.add_constr("b", 1.0 * y, Cmp::Le, 2.0).unwrap();
        m.set_objective(Sense::Maximize, x + y + z);
        m
    }

    #[test]
    fn each_fallback_is_reached_and_rebuilds_exactly() {
        let (x, z) = (VarId::from_index(0), VarId::from_index(2));
        let mut m = chain_model();
        let (setup, _) = next(&m, true, None, "base");

        // A cut that writes in no round: both halves carried.
        m.add_constr("loose", x + z, Cmp::Le, 20.0).unwrap();
        let (setup, report) = next(&m, true, setup, "loose");
        let carried = SetupReport {
            presolve_reused: true,
            form_extended: Some(true),
        };
        assert_eq!(report, carried);

        // An auxiliary variable in a cut that writes x ≤ 5 against round
        // 1's bounds only: presolve reruns, the form still extends.
        let w = m.add_continuous("w", 0.0, 4.0);
        m.add_constr("early", x + w, Cmp::Le, 5.0).unwrap();
        let (setup, report) = next(&m, true, setup, "early");
        let rerun = SetupReport {
            presolve_reused: false,
            form_extended: Some(true),
        };
        assert_eq!(report, rerun);

        // An entry that moves x's factor: the form rebuilds.
        m.add_constr("big", 1000.0 * x, Cmp::Le, 5000.0).unwrap();
        let (setup, report) = next(&m, true, setup, "big");
        let moved = SetupReport {
            presolve_reused: true,
            form_extended: Some(false),
        };
        assert_eq!(report, moved);

        // An infeasible cut: presolve reruns and proves it.
        m.add_constr("infeasible", 1.0 * x, Cmp::Ge, 15.0).unwrap();
        let (setup, report) = next(&m, true, setup, "infeasible");
        assert!(setup.is_none());
        assert!(!report.presolve_reused);
        assert_eq!(report.form_extended, None);
    }

    /// The state a default solve of `m` hands on.
    fn solve(m: &Model) -> WarmStart {
        Solver::new(SolveOptions::default())
            .solve_with_state(m, None)
            .unwrap()
            .1
            .expect("an optimum with warm starts on")
    }

    #[test]
    fn a_new_objective_drops_the_setup() {
        let mut m = chain_model();
        let state = solve(&m);
        m.set_objective(Sense::Minimize, LinExpr::var(VarId::from_index(0)));
        let carried = state.take_setup(&m, true);
        assert!(carried.is_none());
        assert_eq!(next(&m, true, carried, "new objective").1, REBUILT);
    }

    #[test]
    fn clones_diverging_after_a_shared_solve_drop_the_setup() {
        let m = chain_model();
        let state = solve(&m);
        let x = VarId::from_index(0);
        let (mut left, mut right) = (m.clone(), m.clone());
        left.add_constr("l", 1.0 * x, Cmp::Le, 7.0).unwrap();
        right.add_constr("r", 1.0 * x, Cmp::Ge, 1.0).unwrap();
        for (clone, ctx) in [(&left, "left"), (&right, "right")] {
            let carried = state.take_setup(clone, true);
            assert!(carried.is_none(), "{ctx}");
            assert_eq!(next(clone, true, carried, ctx).1, REBUILT, "{ctx}");
        }
        // The original, grown in place, still takes it; a clone of the
        // state carries the basis only.
        let mut grown = m;
        grown.add_constr("g", 1.0 * x, Cmp::Le, 7.0).unwrap();
        assert!(state.clone().take_setup(&grown, true).is_none());
        assert!(state.take_setup(&grown, true).is_some());
    }

    #[test]
    fn a_solve_at_the_last_rung_does_not_take_a_presolved_setup() {
        let mut m = chain_model();
        let state = solve(&m);
        m.add_constr("g", LinExpr::var(VarId::from_index(0)), Cmp::Le, 7.0)
            .unwrap();
        // Rung 3 turns presolve off: the setup stays for a presolved solve.
        let numerics = Numerics::at_rung(Numerics::TOP_RUNG);
        let carried = state.take_setup(&m, numerics.presolve);
        assert!(carried.is_none());
        assert_eq!(next(&m, numerics.presolve, carried, "rung 3").1, REBUILT);
        assert!(state.take_setup(&m, true).is_some());
    }
}
