//! Layer-contrast self-check on the traced output: each layer does most of
//! its work in one workload and little in another, and the attribution
//! covers the traced run. The workloads run one after another to keep the
//! peak heap to one workload's.

use sdnbuf_perfbench::traced_rep;
use sdnbuf_perfbench::workloads::{Counts, Workload, DEFAULT_SEED};

/// The attributed sum must cover this share of the traced run's wall time.
const COVERAGE: f64 = 0.9;

#[test]
fn layers_contrast_across_workloads() {
    let (rep, attr) = traced_rep(Workload::MissStorm, DEFAULT_SEED);
    let share = attr.slow_path_share();
    assert!(
        share > 0.5,
        "miss_storm: flowtable+switchbuf+controller+openflow carry only {:.1}% of the attributed time",
        100.0 * share
    );
    let covered = attr.total_ns() as f64 / rep.run.as_nanos() as f64;
    assert!(
        covered >= COVERAGE,
        "miss_storm: attribution covers {:.1}% of the traced run",
        100.0 * covered
    );

    let (rep, attr) = traced_rep(Workload::BulkFlows, DEFAULT_SEED);
    let share = attr.slow_path_share();
    assert!(
        share < 0.1,
        "bulk_flows: flowtable+switchbuf+controller+openflow carry {:.1}% of the attributed time",
        100.0 * share
    );
    let covered = attr.total_ns() as f64 / rep.run.as_nanos() as f64;
    assert!(
        covered >= COVERAGE,
        "bulk_flows: attribution covers {:.1}% of the traced run",
        100.0 * covered
    );

    let (rep, attr) = traced_rep(Workload::LossyRecovery, DEFAULT_SEED);
    let rerequests_per_flow = Counts::of(&rep.cells).rerequests as f64 / rep.flows as f64;
    assert!(rerequests_per_flow > 0.0, "lossy_recovery: no re-requests");
    assert!(
        attr.count("buffer_rerequest") > 0,
        "lossy_recovery: no traced re-requests"
    );
    let covered = attr.total_ns() as f64 / rep.run.as_nanos() as f64;
    assert!(
        covered >= COVERAGE,
        "lossy_recovery: attribution covers {:.1}% of the traced run",
        100.0 * covered
    );
}
