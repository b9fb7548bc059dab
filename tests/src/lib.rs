//! Integration-test-only crate: see the `tests/` directory for the tests.

/// The README's Rust snippets, compiled (and, unless marked `no_run`, run)
/// as doc tests.
#[cfg(doctest)]
#[doc = include_str!("../../README.md")]
struct ReadmeDoctests;
