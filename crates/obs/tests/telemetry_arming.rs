//! The telemetry recorder is disarmed until [`oppsla_obs::arm`]: a
//! disarmed hook records nothing. Arming is one-way and process-wide, so
//! this check lives in a test binary of its own where nothing else arms.

use oppsla_obs::{
    arm, count, count_n, enabled, flush, observe_image_queries, op_timer, snapshot, Counter, OpKind,
};

#[test]
fn hooks_record_only_once_armed() {
    assert!(!enabled(), "the recorder starts disarmed");
    count(Counter::QueryBaseline);
    count_n(Counter::QueryRefine, 10);
    observe_image_queries(7);
    drop(op_timer(OpKind::Conv));
    flush();
    assert!(snapshot().is_zero(), "disarmed hooks recorded something");

    arm();
    assert!(enabled());
    count(Counter::QueryBaseline);
    observe_image_queries(7);
    drop(op_timer(OpKind::Conv));
    let snap = snapshot();
    assert_eq!(snap.get(Counter::QueryBaseline), 1);
    assert_eq!(snap.images_observed(), 1);
    assert_eq!(snap.op_calls[OpKind::Conv as usize], 1);
}
