//! # contrarc-par
//!
//! Thread-count helpers. The exploration itself runs on one thread; these
//! two functions remain only because the exploration benchmark reports the
//! machine's core count and resolves its workloads' `threads` settings with
//! them. They go, with this crate, in the next change to the benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The number of logical cores the OS reports, with a floor of 1.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolve a requested thread count: `0` means "use every available core",
/// anything else is taken literally (with a floor of 1).
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        available_parallelism()
    } else {
        requested.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
        assert_eq!(effective_threads(1), 1);
    }
}
