//! Regenerates **Table II** of the paper: EPN exploration across template
//! configurations `(L, R, APU)` under the three ablation modes ("only
//! subgraph isomorphism", "only decomposition", "Complete").
//!
//! Usage: `cargo run --release -p contrarc-bench --bin table2 [max_rows]`
//!    or: `cargo run --release -p contrarc-bench --bin table2 [from] [to]`
//!
//! The default runs the first 5 (smallest) configurations; `table2 10` runs
//! the paper's full list, and `table2 5 8` runs rows 5..8 (useful for
//! chunked runs — the large two-sided templates take a while with the
//! bundled solver). `CONTRARC_TIME_LIMIT` (seconds) caps each method per
//! row; timed-out cells report the budget with no cost.

use contrarc_bench::harness::{render_table2, run_table2_row, table2_configs, time_limit_secs};
use contrarc_obs::event;

fn main() {
    contrarc_bench::init_bin_tracing();
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|s| s.parse().expect("row arguments must be numbers"))
        .collect();
    let (from, to) = match args.as_slice() {
        [] => (0, 5),
        [n] => (0, *n),
        [a, b] => (*a, *b),
        _ => panic!("usage: table2 [max_rows] | table2 [from] [to]"),
    };
    println!("=== Table II: EPN synthesis — ablation of the two techniques ===");
    println!("(per-method budget: {} s)\n", time_limit_secs());
    let configs = table2_configs();
    let mut rows = Vec::new();
    for config in configs.iter().take(to).skip(from) {
        event!("table2.row", config = config.label());
        rows.push(run_table2_row(config, time_limit_secs()));
    }
    println!("{}", render_table2(&rows));
    println!("expected shape: 'complete' dominates both ablations in time;");
    println!("iso-pruning needs far fewer iterations than decomposition-only.");
    contrarc_obs::flush_sink();
}
