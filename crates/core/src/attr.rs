//! Component/implementation attributes.
//!
//! Implementations in the library carry numeric attributes (cost, latency,
//! throughput, …). Attribute keys are plain strings with well-known constants
//! for the viewpoints the paper uses; the exploration engine reads exactly
//! these keys.

use std::collections::BTreeMap;
use std::fmt;

/// Monetary (or abstract) cost of an implementation; the objective minimizes
/// the weighted sum of selected costs.
pub const COST: &str = "cost";
/// Worst-case processing latency contributed by the component.
pub const LATENCY: &str = "latency";
/// Output jitter bound the component guarantees.
pub const JITTER_OUT: &str = "jitter_out";
/// Input jitter bound the component assumes.
pub const JITTER_IN: &str = "jitter_in";
/// Maximum input flow the component can absorb (`f^P` in the paper).
pub const THROUGHPUT: &str = "throughput";
/// Flow generated by the component (`f^S`), nonzero for sources.
pub const FLOW_GEN: &str = "flow_gen";
/// Flow consumed by the component (`f^C`), nonzero for sinks and lossy
/// intermediates.
pub const FLOW_CONS: &str = "flow_cons";

/// An attribute map: key → value.
///
/// Missing keys read as their *neutral* defaults (zero, except
/// [`THROUGHPUT`] and [`JITTER_IN`], which default to `+∞` — "no limit").
///
/// ```rust
/// use contrarc::attr::{Attrs, COST, THROUGHPUT};
/// let a = Attrs::new().with(COST, 5.0);
/// assert_eq!(a.get(COST), 5.0);
/// assert_eq!(a.get(THROUGHPUT), f64::INFINITY);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attrs(BTreeMap<String, f64>);

impl Attrs {
    /// Empty attribute map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: f64) -> Self {
        self.set(key, value);
        self
    }

    /// Insert or overwrite an attribute.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        assert!(!value.is_nan(), "attribute values must not be NaN");
        self.0.insert(key.into(), value);
    }

    /// Read an attribute, falling back to its neutral default.
    #[must_use]
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(match key {
            THROUGHPUT | JITTER_IN => f64::INFINITY,
            _ => 0.0,
        })
    }

    /// Read an attribute only if explicitly present.
    #[must_use]
    pub fn get_opt(&self, key: &str) -> Option<f64> {
        self.0.get(key).copied()
    }

    /// Whether an attribute is explicitly present.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, f64)> for Attrs {
    fn from_iter<T: IntoIterator<Item = (String, f64)>>(iter: T) -> Self {
        Attrs(iter.into_iter().collect())
    }
}

impl fmt::Display for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_neutral() {
        let a = Attrs::new();
        assert_eq!(a.get(COST), 0.0);
        assert_eq!(a.get(LATENCY), 0.0);
        assert_eq!(a.get(THROUGHPUT), f64::INFINITY);
        assert_eq!(a.get(JITTER_IN), f64::INFINITY);
        assert_eq!(a.get_opt(COST), None);
        assert!(!a.contains(COST));
    }

    #[test]
    fn builder_and_set() {
        let mut a = Attrs::new().with(COST, 3.0).with(LATENCY, 1.5);
        assert_eq!(a.get(COST), 3.0);
        a.set(COST, 4.0);
        assert_eq!(a.get(COST), 4.0);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Attrs::new().with(COST, f64::NAN);
    }

    #[test]
    fn display_and_collect() {
        let a: Attrs = vec![("cost".to_string(), 1.0)].into_iter().collect();
        assert_eq!(a.to_string(), "{cost: 1}");
    }
}
