//! The shared variable space that contracts are written over.

use contrarc_milp::{Model, SolveError, VarId, VarType};
use std::collections::HashMap;
use std::fmt;

/// A declaration-ordered table of named, bounded variables.
///
/// Contracts reference variables by [`VarId`]; a `Vocabulary` gives those ids
/// meaning (name, bounds, kind) and can instantiate them into a fresh
/// [`Model`] for satisfiability and refinement queries. Because ids are dense
/// indices assigned in declaration order, a predicate written against a
/// vocabulary is valid in every model the vocabulary instantiates.
///
/// Bounds matter: the encoder computes big-M constants from them, so prefer
/// tight, finite domains.
///
/// ```rust
/// use contrarc_contracts::Vocabulary;
/// let mut voc = Vocabulary::new();
/// let t = voc.add_continuous("t", 0.0, 100.0);
/// assert_eq!(voc.name(t), "t");
/// assert_eq!(voc.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Vocabulary {
    defs: Vec<VarDecl>,
    by_name: HashMap<String, VarId>,
}

#[derive(Debug, Clone, PartialEq)]
struct VarDecl {
    name: String,
    ty: VarType,
    lb: f64,
    ub: f64,
}

impl Vocabulary {
    /// Empty vocabulary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a continuous variable with bounds `[lb, ub]`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared or bounds are invalid.
    pub fn add_continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add(name, VarType::Continuous, lb, ub)
    }

    /// Declare a binary variable.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add(name, VarType::Binary, 0.0, 1.0)
    }

    /// Declare an integer variable with bounds `[lb, ub]`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared or bounds are invalid.
    pub fn add_integer(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add(name, VarType::Integer, lb, ub)
    }

    fn add(&mut self, name: impl Into<String>, ty: VarType, lb: f64, ub: f64) -> VarId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "variable `{name}` already declared in this vocabulary"
        );
        assert!(
            !lb.is_nan() && !ub.is_nan() && lb <= ub,
            "invalid bounds for `{name}`"
        );
        let id = VarId::from_index(self.defs.len());
        self.by_name.insert(name.clone(), id);
        self.defs.push(VarDecl { name, ty, lb, ub });
        id
    }

    /// Number of declared variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the vocabulary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not declared in this vocabulary.
    #[must_use]
    pub fn name(&self, v: VarId) -> &str {
        &self.defs[v.index()].name
    }

    /// Bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not declared in this vocabulary.
    #[must_use]
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        let d = &self.defs[v.index()];
        (d.lb, d.ub)
    }

    /// Look up a variable by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// Instantiate every declared variable into a fresh [`Model`], in
    /// declaration order so contract [`VarId`]s remain valid.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for forward
    /// compatibility with validation at instantiation time.
    pub fn instantiate(&self, model_name: impl Into<String>) -> Result<Model, SolveError> {
        let mut model = Model::new(model_name);
        for d in &self.defs {
            match d.ty {
                VarType::Continuous => model.add_continuous(d.name.clone(), d.lb, d.ub),
                VarType::Binary => model.add_binary(d.name.clone()),
                VarType::Integer => model.add_integer(d.name.clone(), d.lb, d.ub),
            };
        }
        Ok(model)
    }
}

impl fmt::Display for Vocabulary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "vocabulary ({} variables):", self.defs.len())?;
        for d in &self.defs {
            writeln!(f, "  {} : {:?} in [{}, {}]", d.name, d.ty, d.lb, d.ub)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_order_matches_model_order() {
        let mut voc = Vocabulary::new();
        let a = voc.add_continuous("a", 0.0, 1.0);
        let b = voc.add_binary("b");
        let c = voc.add_integer("c", -2.0, 2.0);
        let model = voc.instantiate("m").unwrap();
        assert_eq!(model.num_vars(), 3);
        assert_eq!(model.var_name(a), "a");
        assert_eq!(model.var_name(b), "b");
        assert_eq!(model.var_name(c), "c");
        assert_eq!(model.var(c).ty, VarType::Integer);
    }

    #[test]
    fn lookup_and_bounds() {
        let mut voc = Vocabulary::new();
        let t = voc.add_continuous("t", 1.0, 9.0);
        assert_eq!(voc.lookup("t"), Some(t));
        assert_eq!(voc.lookup("missing"), None);
        assert_eq!(voc.bounds(t), (1.0, 9.0));
        assert!(!voc.is_empty());
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_names_rejected() {
        let mut voc = Vocabulary::new();
        voc.add_continuous("x", 0.0, 1.0);
        voc.add_binary("x");
    }

    #[test]
    fn display_lists_vars() {
        let mut voc = Vocabulary::new();
        voc.add_continuous("flow", 0.0, 50.0);
        assert!(voc.to_string().contains("flow"));
    }
}
