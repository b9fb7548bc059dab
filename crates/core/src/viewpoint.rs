//! Requirement viewpoints.

use std::fmt;

/// A requirement viewpoint `d ∈ 𝐝` (Section III of the paper).
///
/// Viewpoints partition into *path-specific* ones — requirements stated along
/// source→sink paths, checked compositionally per path by Algorithm 1 — and
/// whole-architecture ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Viewpoint {
    /// Structural interconnection and mapping constraints (`C^C`). Fully
    /// enforced by the candidate-selection MILP; never re-checked at the
    /// system level.
    Interconnection,
    /// Flow/power delivery (`C^F`): generation, consumption, throughput.
    Flow,
    /// Timing (`C^T`): latency and jitter along paths.
    Timing,
}

impl Viewpoint {
    /// Whether Algorithm 1 checks this viewpoint per source→sink path
    /// (`𝐝_p`) rather than on the whole architecture (`𝐝_o`).
    #[must_use]
    pub fn is_path_specific(self) -> bool {
        matches!(self, Viewpoint::Timing)
    }

    /// All viewpoints, in checking order.
    #[must_use]
    pub fn all() -> [Viewpoint; 3] {
        [
            Viewpoint::Interconnection,
            Viewpoint::Flow,
            Viewpoint::Timing,
        ]
    }
}

impl fmt::Display for Viewpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Viewpoint::Interconnection => f.write_str("interconnection"),
            Viewpoint::Flow => f.write_str("flow"),
            Viewpoint::Timing => f.write_str("timing"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_specificity() {
        assert!(Viewpoint::Timing.is_path_specific());
        assert!(!Viewpoint::Flow.is_path_specific());
        assert!(!Viewpoint::Interconnection.is_path_specific());
    }

    #[test]
    fn display_and_all() {
        assert_eq!(Viewpoint::Flow.to_string(), "flow");
        assert_eq!(Viewpoint::all().len(), 3);
    }
}
