//! Machine-speed calibration. On a shared host the same exploration can take
//! 1.6 times as long from one second to the next, because other work
//! competes for the cores. A fixed kernel, timed next to each exploration,
//! says how fast the machine ran then, and the end-to-end run reports times
//! scaled to a fixed reference speed.
//!
//! The kernel is dense Gaussian elimination with partial pivoting on a
//! 48×48 matrix (the floating-point work of simplex pivots and LU
//! factorization) plus float formatting and parsing (branchy integer work).
//! Six candidates were timed after each of 750 `epn-loop` explorations in
//! six runs: elimination, sorting with binary search, hash-map probes,
//! pointer chasing over 2 MiB, float formatting, B-tree updates. Exploration
//! time grew as elimination time to the power 0.93 and as formatting time
//! to the power 1.16; the mix, two thirds elimination and one third
//! formatting, tracked it at power 1.02, so the scaled times hold across
//! fast and slow spells alike (their medians over the six runs spread 1.1%
//! where the raw ones spread 22.5%). The kernel uses none of the
//! repository's code, so a change to the program cannot move it.
//!
//! The kernel has to run where the exploration runs. A 1-thread
//! exploration runs on one core, so the kernel runs on the exploring thread
//! between explorations ([`kernel_s`]). A multi-thread exploration keeps
//! every core busy, so a [`Sampler`] thread runs the kernel beside it every
//! [`SAMPLE_PERIOD`] and the exploration takes the median of the samples
//! that fall inside it; snapshots between explorations miss how the machine
//! changes during a 3-second dive.

use std::fmt::Write;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Nominal kernel seconds: a round figure near the kernel's median time on a
/// 2-core Intel Xeon virtual machine in its faster, less contended spells
/// (0.066 to 0.073 ms). A scaled time is
/// `wall seconds * REFERENCE_KERNEL_S / kernel seconds`, so it reads about
/// as wall seconds on that machine at that speed.
pub const REFERENCE_KERNEL_S: f64 = 7.0e-5;

/// Matrix order of the kernel's eliminations.
const ORDER: usize = 48;

/// Format-parse round trips per kernel run.
const FORMATS: usize = 200;

/// Kernel runs per calibration between explorations.
const RUNS: usize = 7;

/// Kernel runs per sample of a [`Sampler`]; fewer than [`RUNS`], so that
/// the sampler takes under 1% of a core from the exploration.
const SAMPLER_RUNS: usize = 3;

/// Time between a [`Sampler`]'s samples.
const SAMPLE_PERIOD: Duration = Duration::from_millis(50);

/// Gaussian elimination with partial pivoting on a fixed pseudo-random
/// [`ORDER`]×[`ORDER`] matrix; returns the log-determinant so the work
/// cannot be optimised away. The matrix lives on the stack: the kernel
/// never allocates, so a [`Sampler`] thread adds no allocator arena to the
/// process's resident set.
fn eliminate() -> f64 {
    let n = ORDER;
    // xorshift64*, fixed seed: every run does identical work.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut a = [0.0f64; ORDER * ORDER];
    for x in &mut a {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11;
        *x = bits as f64 / (1u64 << 53) as f64 - 0.5;
    }
    let a = black_box(&mut a);
    let mut logdet = 0.0;
    for k in 0..n {
        let p = (k..n)
            .max_by(|&i, &j| a[i * n + k].abs().total_cmp(&a[j * n + k].abs()))
            .unwrap_or(k);
        if p != k {
            for c in 0..n {
                a.swap(k * n + c, p * n + c);
            }
        }
        let pivot = a[k * n + k];
        logdet += pivot.abs().ln();
        for i in k + 1..n {
            let f = a[i * n + k] / pivot;
            for c in k..n {
                a[i * n + c] -= f * a[k * n + c];
            }
        }
    }
    logdet
}

/// A fixed-size text buffer on the stack.
struct Text {
    bytes: [u8; 64],
    len: usize,
}

impl Write for Text {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(std::fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// Format `n` pseudo-random floats as decimal text and parse them back;
/// returns their sum.
fn format_parse(n: usize) -> f64 {
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut sum = 0.0;
    for _ in 0..n {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 1e6;
        let mut text = Text {
            bytes: [0; 64],
            len: 0,
        };
        let _ = write!(text, "{x}");
        sum += std::str::from_utf8(&text.bytes[..text.len])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .unwrap_or(0.0);
    }
    sum
}

/// One kernel run: two eliminations and [`FORMATS`] format-parse round
/// trips, which on the reference machine take about two thirds and one
/// third of its time.
fn kernel() {
    black_box(eliminate());
    black_box(eliminate());
    black_box(format_parse(black_box(FORMATS)));
}

/// The median wall seconds of `RUNS` kernel runs.
fn timed_median<const RUNS: usize>() -> f64 {
    let mut times = [0.0; RUNS];
    for t in &mut times {
        let t0 = Instant::now();
        kernel();
        *t = t0.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    times[RUNS / 2]
}

/// One calibration on the calling thread: the median of [`RUNS`] kernel
/// runs.
pub fn kernel_s() -> f64 {
    timed_median::<RUNS>()
}

/// A thread that times the kernel every [`SAMPLE_PERIOD`] until
/// [`Sampler::finish`]. Its sample buffer is allocated before the thread
/// starts, so for runs up to the capacity it asks for the thread never
/// allocates.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, f64)>>,
}

impl Sampler {
    /// Start sampling, with room for `seconds` of samples.
    pub fn start(seconds: f64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut samples = Vec::with_capacity((seconds / SAMPLE_PERIOD.as_secs_f64()) as usize);
        let handle = thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                let kernel = timed_median::<SAMPLER_RUNS>();
                samples.push((Instant::now(), kernel));
                thread::park_timeout(SAMPLE_PERIOD);
            }
            samples
        });
        Self { stop, handle }
    }

    /// Stop the thread, wait for it, and return its samples as (time
    /// taken, kernel seconds).
    pub fn finish(self) -> Vec<(Instant, f64)> {
        self.stop.store(true, Ordering::Release);
        self.handle.thread().unpark();
        self.handle.join().unwrap_or_default()
    }
}

/// The kernel seconds of the samples taken in `(from, to]`, in order.
pub fn between(samples: &[(Instant, f64)], from: Instant, to: Instant) -> Vec<f64> {
    samples
        .iter()
        .filter(|&&(at, _)| at > from && at <= to)
        .map(|&(_, kernel)| kernel)
        .collect()
}
