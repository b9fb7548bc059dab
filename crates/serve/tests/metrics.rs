//! Aggregate server metrics. Kept in its own integration-test binary: the
//! metrics registry is process-global, and sharing a process with other
//! server tests would mix their counters into the snapshot.

use contrarc_obs::metrics::with_metrics;
use contrarc_serve::{JobServer, JobSpec, ServerConfig};
use contrarc_systems::rpl::{build as build_rpl, RplConfig, RplLines};

fn rpl_problem() -> contrarc::Problem {
    build_rpl(
        &RplConfig {
            max_latency: 42.0,
            ..RplConfig::default()
        },
        RplLines::LineA,
    )
}

#[test]
fn server_publishes_queue_retry_and_checkpoint_metrics() {
    let problem = rpl_problem();
    let ((), report) = with_metrics(|| {
        let server = JobServer::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let a = server.submit(JobSpec::new("a", problem.clone())).unwrap();
        let b = server.submit(JobSpec::new("b", problem.clone())).unwrap();
        assert!(server.wait(a).unwrap().is_terminal());
        assert!(server.wait(b).unwrap().is_terminal());
        server.take(a);
        server.drain();
    });
    assert_eq!(report.counter("serve.jobs.submitted"), Some(2));
    assert_eq!(report.counter("serve.jobs.completed"), Some(2));
    assert_eq!(report.counter("serve.jobs.evicted"), Some(1));
    assert!(
        report.counter("serve.checkpoints.written").unwrap_or(0) > 0,
        "periodic checkpointing must record writes"
    );
    let depth = report.gauge("serve.queue.depth").expect("gauge published");
    assert_eq!(depth.value, 0, "queue empties by the end");
    assert!(depth.max >= 1, "two jobs on one worker must have queued");
    let busy = report.gauge("serve.workers.busy").expect("gauge published");
    assert_eq!(busy.value, 0, "all workers idle by the end");
    assert!(busy.max >= 1, "some worker must have been busy");
}

#[test]
fn job_trace_ends_with_metrics_snapshot() {
    let problem = rpl_problem();
    let dir = std::env::temp_dir().join(format!(
        "contrarc-serve-final-metrics-{}",
        std::process::id()
    ));
    let ((), _report) = with_metrics(|| {
        let server = JobServer::new(ServerConfig {
            workers: 1,
            trace_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let id = server
            .submit(JobSpec::new("traced", problem.clone()))
            .unwrap();
        assert!(server.wait(id).unwrap().is_terminal());
        server.drain();
    });
    let text = std::fs::read_to_string(dir.join("job-0.jsonl")).unwrap();
    let last = text.lines().last().expect("trace has events");
    let doc = contrarc_obs::json::parse(last).expect("trace line is valid JSON");
    assert_eq!(
        doc.get("event").and_then(|v| v.as_str()),
        Some("metrics_snapshot")
    );
    let explored = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("explore.iterations"))
        .and_then(|v| v.as_num());
    assert!(
        explored.is_some_and(|n| n >= 1.0),
        "final snapshot must carry the registry the job settled under: {last}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
