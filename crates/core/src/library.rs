//! The implementation library `ℒ = ⋃ₖ ℒₖ`.

use crate::attr::Attrs;
use crate::template::TypeId;
use std::fmt;

/// Opaque handle to a library implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImplId(pub(crate) u32);

impl ImplId {
    /// Dense index of this implementation (insertion order).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an `ImplId` from a dense index. Only valid for the library
    /// that issued it.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ImplId(u32::try_from(index).expect("impl index overflow"))
    }
}

impl fmt::Display for ImplId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "impl{}", self.0)
    }
}

/// A concrete implementation a component node can be mapped to.
#[derive(Debug, Clone, PartialEq)]
pub struct Implementation {
    /// Implementation name (e.g. `M_fast`).
    pub name: String,
    /// The component type this implementation realizes (`ℒ_k`).
    pub ty: TypeId,
    /// Attribute values (cost, latency, throughput, …).
    pub attrs: Attrs,
}

/// The implementation library.
///
/// ```rust
/// use contrarc::{Library, Template, TypeConfig};
/// use contrarc::attr::{Attrs, COST};
/// let mut t = Template::new("t");
/// let mach = t.add_type("machine", TypeConfig::default());
/// let mut lib = Library::new();
/// let fast = lib.add("fast", mach, Attrs::new().with(COST, 9.0));
/// let slow = lib.add("slow", mach, Attrs::new().with(COST, 3.0));
/// assert_eq!(lib.impls_of_type(mach), &[fast, slow]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Library {
    impls: Vec<Implementation>,
    by_type: Vec<Vec<ImplId>>,
}

impl Library {
    /// Empty library.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an implementation for a type.
    pub fn add(&mut self, name: impl Into<String>, ty: TypeId, attrs: Attrs) -> ImplId {
        let id = ImplId(u32::try_from(self.impls.len()).expect("too many implementations"));
        self.impls.push(Implementation {
            name: name.into(),
            ty,
            attrs,
        });
        if self.by_type.len() <= ty.index() {
            self.by_type.resize_with(ty.index() + 1, Vec::new);
        }
        self.by_type[ty.index()].push(id);
        id
    }

    /// Number of implementations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.impls.len()
    }

    /// Whether the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.impls.is_empty()
    }

    /// Implementation metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this library.
    #[must_use]
    pub fn implementation(&self, id: ImplId) -> &Implementation {
        &self.impls[id.index()]
    }

    /// Attribute of an implementation (with neutral defaults for missing
    /// keys; see [`Attrs::get`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this library.
    #[must_use]
    pub fn attr(&self, id: ImplId, key: &str) -> f64 {
        self.impls[id.index()].attrs.get(key)
    }

    /// Implementations available for a type (`ℒ_k`), in registration order.
    #[must_use]
    pub fn impls_of_type(&self, ty: TypeId) -> &[ImplId] {
        self.by_type.get(ty.index()).map_or(&[], Vec::as_slice)
    }

    /// Iterate over all `(id, implementation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ImplId, &Implementation)> {
        self.impls
            .iter()
            .enumerate()
            .map(|(i, im)| (ImplId::from_index(i), im))
    }

    /// Largest finite value of an attribute across the library (used for
    /// big-M bounds). Returns `default` when no implementation has a finite
    /// value for the key.
    #[must_use]
    pub fn max_finite_attr(&self, key: &str, default: f64) -> f64 {
        self.impls
            .iter()
            .map(|im| im.attrs.get(key))
            .filter(|v| v.is_finite())
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
            .unwrap_or(default)
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "library ({} implementations):", self.impls.len())?;
        for (id, im) in self.iter() {
            writeln!(f, "  {id} {} : type {} {}", im.name, im.ty, im.attrs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{COST, LATENCY};

    #[test]
    fn registration_and_lookup() {
        let mut lib = Library::new();
        let t0 = TypeId::from_index(0);
        let t1 = TypeId::from_index(1);
        let a = lib.add("a", t0, Attrs::new().with(COST, 1.0));
        let b = lib.add("b", t1, Attrs::new().with(COST, 2.0));
        let c = lib.add("c", t0, Attrs::new().with(COST, 3.0));
        assert_eq!(lib.len(), 3);
        assert_eq!(lib.impls_of_type(t0), &[a, c]);
        assert_eq!(lib.impls_of_type(t1), &[b]);
        assert_eq!(lib.attr(c, COST), 3.0);
        assert_eq!(lib.implementation(b).name, "b");
    }

    #[test]
    fn unknown_type_has_no_impls() {
        let lib = Library::new();
        assert!(lib.impls_of_type(TypeId::from_index(7)).is_empty());
        assert!(lib.is_empty());
    }

    #[test]
    fn max_finite_attr_skips_infinity() {
        let mut lib = Library::new();
        let t = TypeId::from_index(0);
        lib.add("x", t, Attrs::new().with(LATENCY, 4.0));
        lib.add("y", t, Attrs::new()); // LATENCY defaults to 0
        assert_eq!(lib.max_finite_attr(LATENCY, 0.0), 4.0);
        assert_eq!(lib.max_finite_attr("missing", 9.0), 0.0);
        let empty = Library::new();
        assert_eq!(empty.max_finite_attr(LATENCY, 7.5), 7.5);
    }

    #[test]
    fn display_lists_impls() {
        let mut lib = Library::new();
        lib.add("m1", TypeId::from_index(0), Attrs::new().with(COST, 5.0));
        assert!(lib.to_string().contains("m1"));
    }
}
