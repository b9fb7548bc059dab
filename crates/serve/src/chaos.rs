//! Deterministic chaos harness for the job server.
//!
//! Compiled only with the `fault-injection` cargo feature. A [`ChaosConfig`]
//! derives, from a seed, a fixed schedule of worker failures: which attempts
//! of which jobs panic, after how many exploration steps, and whether the
//! checkpoint write immediately preceding the panic is torn — cut in half,
//! or changed by one flipped bit.
//! The schedule is a pure function of `(seed, job, attempt)`, so a chaos run
//! is exactly reproducible — and because every injected failure strikes
//! before the final permitted attempt, every job still completes, with a
//! final incumbent bit-identical to the fault-free run.

/// Seeded failure schedule for the server's workers.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the failure schedule. Different seeds exercise different
    /// interleavings of panics and truncations.
    pub seed: u64,
    /// Maximum panicking attempts per job. Every job panics at least once
    /// and at most this many times; must stay **below** the server's
    /// `max_attempts` so the final attempt always runs clean.
    pub max_panics: u32,
    /// Also tear (on a seeded coin flip) the checkpoint written right before
    /// an injected panic, simulating a crash mid-write: the same seeded
    /// schedule either halves the text or flips one bit of one ASCII byte
    /// in place. The recovery path must then reject the torn slot and fall
    /// back to the previous checkpoint or to scratch.
    pub truncate_checkpoints: bool,
}

impl ChaosConfig {
    /// A schedule with up to 2 panicking attempts per job and torn
    /// checkpoint writes enabled.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            max_panics: 2,
            truncate_checkpoints: true,
        }
    }
}

/// What chaos has planned for one `(job, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttemptChaos {
    /// Panic after this many exploration steps of the attempt (1-based);
    /// `None` means the attempt runs clean.
    pub panic_after_steps: Option<u64>,
    /// Tear the checkpoint written at the panic step (instead of writing
    /// the good text), by the seeded draw [`torn_write`] takes; `None`
    /// writes it intact.
    pub tear_before_panic: Option<u64>,
}

impl AttemptChaos {
    pub(crate) const CLEAN: AttemptChaos = AttemptChaos {
        panic_after_steps: None,
        tear_before_panic: None,
    };
}

/// SplitMix64: the standard 64-bit finalizer-style mixer. Good enough to
/// decorrelate `(seed, job, attempt)` tuples and fully deterministic.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn mix(seed: u64, job: u64, attempt: u64, salt: u64) -> u64 {
    splitmix64(
        seed ^ splitmix64(job.wrapping_mul(0x0100_0000_01b3))
            ^ splitmix64(attempt.wrapping_mul(0x9e37_79b9))
            ^ salt,
    )
}

/// The failure schedule for one attempt. `max_attempts` is the server's
/// retry ceiling; injected panics are confined to attempts strictly before
/// it so the job always has a clean final attempt.
pub(crate) fn plan_attempt(
    cfg: &ChaosConfig,
    job: u64,
    attempt: u32,
    max_attempts: u32,
) -> AttemptChaos {
    let ceiling = cfg.max_panics.min(max_attempts.saturating_sub(1));
    if ceiling == 0 {
        return AttemptChaos::CLEAN;
    }
    // Every job panics at least once: chaos that never fires proves nothing.
    let n_panics = 1 + (mix(cfg.seed, job, 0, 0x01) % u64::from(ceiling)) as u32;
    if attempt > n_panics {
        return AttemptChaos::CLEAN;
    }
    let panic_after_steps = 1 + mix(cfg.seed, job, u64::from(attempt), 0x02) % 3;
    let tear = mix(cfg.seed, job, u64::from(attempt), 0x03);
    AttemptChaos {
        panic_after_steps: Some(panic_after_steps),
        tear_before_panic: (cfg.truncate_checkpoints && tear & 1 == 0).then_some(tear >> 1),
    }
}

/// Tear checkpoint text as a crash mid-write would. An even `draw` keeps the
/// first half of the bytes; an odd one flips the low bit of a drawn byte,
/// which keeps the ASCII text ASCII. Neither parses: counts precede records,
/// and the closing checksum line covers every byte before it.
pub(crate) fn torn_write(text: &str, draw: u64) -> String {
    if draw & 1 == 0 {
        let mut cut = text.len() / 2;
        while cut > 0 && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        return text[..cut].to_string();
    }
    let mut bytes = text.as_bytes().to_vec();
    let i = ((draw >> 1) % bytes.len() as u64) as usize;
    bytes[i] ^= 1;
    String::from_utf8(bytes).expect("checkpoint text is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let cfg = ChaosConfig::new(42);
        for job in 0..16 {
            let mut panics = 0;
            for attempt in 1..=3 {
                let a = plan_attempt(&cfg, job, attempt, 3);
                let b = plan_attempt(&cfg, job, attempt, 3);
                assert_eq!(a, b, "schedule must be a pure function of inputs");
                if a.panic_after_steps.is_some() {
                    panics += 1;
                }
            }
            assert!(panics >= 1, "job {job}: every job must panic at least once");
            assert!(panics <= 2, "job {job}: panics bounded by max_panics");
            // The final attempt is always clean.
            assert_eq!(plan_attempt(&cfg, job, 3, 3), AttemptChaos::CLEAN);
        }
    }

    #[test]
    fn seeds_produce_different_schedules() {
        let a: Vec<_> = (0..32)
            .map(|j| plan_attempt(&ChaosConfig::new(1), j, 1, 3))
            .collect();
        let b: Vec<_> = (0..32)
            .map(|j| plan_attempt(&ChaosConfig::new(2), j, 1, 3))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn no_injection_when_retries_disabled() {
        // max_attempts == 1 leaves no room for a clean final attempt, so
        // chaos must stand down entirely rather than wedge jobs.
        let cfg = ChaosConfig::new(7);
        for job in 0..8 {
            assert_eq!(plan_attempt(&cfg, job, 1, 1), AttemptChaos::CLEAN);
        }
    }

    #[test]
    fn torn_write_halves_at_a_char_boundary() {
        let text = "0123456789";
        assert_eq!(torn_write(text, 0), "01234");
        assert!(torn_write("é", 0).is_empty());
    }

    #[test]
    fn torn_write_flips_one_bit_in_place() {
        let text = "checksum 0123456789abcdef";
        let mut flipped = std::collections::BTreeSet::new();
        for draw in (1..200).step_by(2) {
            let torn = torn_write(text, draw);
            let changed: Vec<usize> = (0..text.len())
                .filter(|&i| text.as_bytes()[i] != torn.as_bytes()[i])
                .collect();
            assert_eq!(torn.len(), text.len());
            assert!(matches!(changed[..], [i] if text.as_bytes()[i] ^ torn.as_bytes()[i] == 1));
            flipped.insert(changed[0]);
        }
        assert_eq!(flipped.len(), text.len(), "every byte can be drawn");
    }
}
