//! Cross-crate tests of the contract algebra: MILP-backed refinement checked
//! against independent interval reasoning.

use contrarc_contracts::{Contract, Pred, RefinementChecker, Vocabulary};
use proptest::prelude::*;

/// Interval contract over one variable: assumes `x ∈ [a_lo, a_hi]`,
/// guarantees `y ∈ [g_lo, g_hi]`.
#[derive(Debug, Clone, Copy)]
struct IntervalContract {
    a: (f64, f64),
    g: (f64, f64),
}

fn to_contract(
    name: &str,
    c: IntervalContract,
    x: contrarc_milp::VarId,
    y: contrarc_milp::VarId,
) -> Contract {
    let a = Pred::ge(1.0 * x, c.a.0).and(Pred::le(1.0 * x, c.a.1));
    let g = Pred::ge(1.0 * y, c.g.0).and(Pred::le(1.0 * y, c.g.1));
    Contract::new(name, a, g)
}

/// Ground-truth refinement for interval contracts (on a domain where both
/// assumption sets are nonempty): `C ⪯ C'` iff `A' ⊆ A` and
/// `sat(G) ⊆ sat(G')`.
fn interval_refines(c: IntervalContract, cp: IntervalContract, dom: (f64, f64)) -> bool {
    // A' ⊆ A over the x domain.
    let ap = (cp.a.0.max(dom.0), cp.a.1.min(dom.1));
    let a = (c.a.0.max(dom.0), c.a.1.min(dom.1));
    let a_ok = ap.0 > ap.1 || (ap.0 >= a.0 && ap.1 <= a.1);
    if !a_ok {
        return false;
    }
    // sat(G) ⊆ sat(G'): a behaviour (x, y) violates the target only when
    // x ∈ A' and y ∉ G'. It is allowed by the source when y ∈ G or x ∉ A.
    // Check over a fine grid (exact enough for interval endpoints chosen on
    // the grid).
    let steps = 60;
    for xi in 0..=steps {
        let x = dom.0 + (dom.1 - dom.0) * f64::from(xi) / f64::from(steps);
        for yi in 0..=steps {
            let y = dom.0 + (dom.1 - dom.0) * f64::from(yi) / f64::from(steps);
            let in_a = x >= c.a.0 && x <= c.a.1;
            let in_g = y >= c.g.0 && y <= c.g.1;
            let in_ap = x >= cp.a.0 && x <= cp.a.1;
            let in_gp = y >= cp.g.0 && y <= cp.g.1;
            let sat_g = in_g || !in_a;
            let sat_gp = in_gp || !in_ap;
            if sat_g && !sat_gp {
                return false;
            }
        }
    }
    true
}

fn grid_val(raw: u8) -> f64 {
    // Endpoints on a coarse grid so the checker's ε-margins never straddle a
    // ground-truth boundary.
    f64::from(raw % 11)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn milp_refinement_matches_interval_reasoning(
        raw in proptest::array::uniform8(0u8..44)
    ) {
        let sort2 = |a: f64, b: f64| if a <= b { (a, b) } else { (b, a) };
        let c = IntervalContract {
            a: sort2(grid_val(raw[0]), grid_val(raw[1])),
            g: sort2(grid_val(raw[2]), grid_val(raw[3])),
        };
        let cp = IntervalContract {
            a: sort2(grid_val(raw[4]), grid_val(raw[5])),
            g: sort2(grid_val(raw[6]), grid_val(raw[7])),
        };
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 10.0);
        let y = voc.add_continuous("y", 0.0, 10.0);
        let cc = to_contract("c", c, x, y);
        let ccp = to_contract("cp", cp, x, y);
        let checker = RefinementChecker::new();
        let got = checker.check(&voc, [&cc], &ccp).unwrap().holds();
        let want = interval_refines(c, cp, (0.0, 10.0));
        prop_assert_eq!(got, want, "c = {:?}, c' = {:?}", c, cp);
    }
}

#[test]
fn composition_is_commutative_for_refinement() {
    let mut voc = Vocabulary::new();
    let x = voc.add_continuous("x", 0.0, 10.0);
    let y = voc.add_continuous("y", 0.0, 10.0);
    let c1 = Contract::new("c1", Pred::ge(1.0 * x, 1.0), Pred::le(1.0 * y, 5.0));
    let c2 = Contract::new(
        "c2",
        Pred::ge(1.0 * y, 0.0),
        Pred::le(1.0 * x + 1.0 * y, 12.0),
    );
    let ab = c1.compose(&c2);
    let ba = c2.compose(&c1);
    let checker = RefinementChecker::new();
    assert!(checker.check(&voc, [&ab], &ba).unwrap().holds());
    assert!(checker.check(&voc, [&ba], &ab).unwrap().holds());
}

#[test]
fn composition_is_monotone_under_refinement() {
    // If C1 ⪯ C1', then C1 ⊗ C2 ⪯ C1' ⊗ C2 (independent implementability).
    let mut voc = Vocabulary::new();
    let x = voc.add_continuous("x", 0.0, 10.0);
    let y = voc.add_continuous("y", 0.0, 10.0);
    let strong = Contract::new("s", Pred::True, Pred::le(1.0 * x, 3.0));
    let weak = Contract::new("w", Pred::True, Pred::le(1.0 * x, 6.0));
    let other = Contract::new("o", Pred::True, Pred::le(1.0 * y, 4.0));
    let checker = RefinementChecker::new();
    assert!(checker.check(&voc, [&strong], &weak).unwrap().holds());
    let lhs = strong.compose(&other);
    let rhs = weak.compose(&other);
    assert!(checker.check(&voc, [&lhs], &rhs).unwrap().holds());
}

#[test]
fn conjunction_refines_both_viewpoints() {
    let mut voc = Vocabulary::new();
    let lat = voc.add_continuous("lat", 0.0, 100.0);
    let pow = voc.add_continuous("pow", 0.0, 100.0);
    let timing = Contract::new("t", Pred::True, Pred::le(1.0 * lat, 10.0));
    let power = Contract::new("p", Pred::True, Pred::le(1.0 * pow, 50.0));
    let both = timing.conjoin(&power);
    let checker = RefinementChecker::new();
    assert!(checker.check(&voc, [&both], &timing).unwrap().holds());
    assert!(checker.check(&voc, [&both], &power).unwrap().holds());
    // The conjunction is strictly stronger than either side alone.
    assert!(!checker.check(&voc, [&timing], &both).unwrap().holds());
}
