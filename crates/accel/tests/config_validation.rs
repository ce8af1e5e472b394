//! Configuration validation for the accelerator models — these construct
//! engines below the `tdgraph::prelude` stability boundary, so they are
//! tested with the crate that owns them.

use tdgraph_accel::tdgraph::{TdGraph, TdGraphConfig};

#[test]
fn invalid_engine_configurations_panic() {
    assert!(std::panic::catch_unwind(|| {
        TdGraph::with_config(TdGraphConfig { stack_depth: 0, ..TdGraphConfig::default() })
    })
    .is_err());
}
