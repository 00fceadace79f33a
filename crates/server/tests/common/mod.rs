//! Checks shared by the server's integration tests.

use greedy_server::prelude::RoundTrace;

/// Asserts that every trace's stage timings tile its `total_us`. The apply,
/// WAL, publish and feed stages are adjacent intervals spanning the commit,
/// each truncated to whole µs on its own, so their sum trails `total_us` by
/// at most 3. Repair runs inside apply.
pub fn assert_stages_tile(traces: &[RoundTrace]) {
    for t in traces {
        let stages = t.apply_us + t.wal_us + t.publish_us + t.feed_us;
        assert!(
            stages <= t.total_us && t.total_us <= stages + 3,
            "stages {stages} us do not tile total {} us: {t:?}",
            t.total_us
        );
        assert!(
            t.repair_us <= t.apply_us,
            "repair {} us exceeds apply {} us: {t:?}",
            t.repair_us,
            t.apply_us
        );
    }
}
