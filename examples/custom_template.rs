//! Building a custom system from scratch, including direct use of the
//! contract algebra: a redundant sensor-fusion avionics chain where the
//! exploration must decide between one fast sensor or two cheap redundant
//! ones, and the contract layer is used directly to inspect why a candidate
//! was rejected.
//!
//! Run with: `cargo run --example custom_template`

use contrarc::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
use contrarc::{
    explore, ExplorerConfig, FlowSpec, Library, Problem, SystemSpec, Template, TimingSpec,
    TypeConfig,
};
use contrarc_contracts::{Contract, Pred, RefinementChecker, Vocabulary};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: exploration over a redundant-sensor template ---------------
    let mut template = Template::new("sensor-fusion");
    let sensor_t = template.add_type("sensor", TypeConfig::source());
    let fusion_t = template.add_type("fusion", TypeConfig::bounded(3, 1));
    let fcc_t = template.add_type("flight-computer", TypeConfig::sink());

    // Three candidate sensor slots, one fusion node, one flight computer.
    let sensors: Vec<_> = (0..3)
        .map(|i| template.add_node(format!("imu{i}"), sensor_t))
        .collect();
    let fusion = template.add_node("fusion", fusion_t);
    let fcc = template.add_required_node("fcc", fcc_t);
    for &s in &sensors {
        template.add_candidate_edge(s, fusion);
    }
    template.add_candidate_edge(fusion, fcc);

    let mut library = Library::new();
    // A cheap sensor delivers 40 samples/s; the tactical one 120.
    library.add(
        "imu-consumer",
        sensor_t,
        Attrs::new()
            .with(COST, 3.0)
            .with(FLOW_GEN, 40.0)
            .with(LATENCY, 4.0),
    );
    library.add(
        "imu-tactical",
        sensor_t,
        Attrs::new()
            .with(COST, 11.0)
            .with(FLOW_GEN, 120.0)
            .with(LATENCY, 1.0),
    );
    library.add(
        "kalman",
        fusion_t,
        Attrs::new()
            .with(COST, 5.0)
            .with(THROUGHPUT, 200.0)
            .with(LATENCY, 2.0),
    );
    library.add(
        "fcc",
        fcc_t,
        Attrs::new()
            .with(COST, 6.0)
            .with(FLOW_CONS, 100.0)
            .with(LATENCY, 1.0),
    );

    // The flight computer demands 100 samples/s: one tactical sensor (120)
    // or three consumer ones (3 × 40) can provide it.
    let spec = SystemSpec {
        flow: Some(FlowSpec {
            max_supply: 400.0,
            max_consumption: 400.0,
        }),
        timing: Some(TimingSpec {
            max_latency: 12.0,
            max_input_jitter: 1.0,
            max_output_jitter: 1.0,
        }),
        flow_cap: 500.0,
        horizon: 1000.0,
    };
    let problem = Problem::new(template, library, spec);
    let result = explore(&problem, &ExplorerConfig::complete())?;
    match result.architecture() {
        Some(arch) => println!("{}", arch.describe(&problem)),
        None => println!("no feasible sensor configuration"),
    }

    // --- Part 2: the contract algebra directly -------------------------------
    // Why is a 3-consumer-sensor design acceptable? Check the refinement by
    // hand: the fused supply contract must refine the demand contract.
    let mut voc = Vocabulary::new();
    let supply = voc.add_continuous("samples_per_s", 0.0, 500.0);

    let three_consumer = Contract::new("3×imu-consumer", Pred::True, Pred::ge(1.0 * supply, 120.0));
    let demand = Contract::new("fcc-demand", Pred::True, Pred::ge(1.0 * supply, 100.0));
    let checker = RefinementChecker::new();
    let refinement = checker.check(&voc, [&three_consumer], &demand)?;
    println!("\nthree consumer sensors refine the demand contract: {refinement}");

    let one_consumer = Contract::new("1×imu-consumer", Pred::True, Pred::ge(1.0 * supply, 40.0));
    let refinement = checker.check(&voc, [&one_consumer], &demand)?;
    println!("a single consumer sensor: {refinement}");
    Ok(())
}
