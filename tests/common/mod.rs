//! Helpers shared by the seeded sweep suites (`mod common;` in each).

/// The seed range of a sweep: `{prefix}_SEED_START` / `{prefix}_SEED_COUNT`
/// override the defaults (start 0, `default_count` seeds), so one failing
/// seed reruns alone and CI can widen the sweep without a code change.
pub fn seed_range(prefix: &str, default_count: u64) -> std::ops::Range<u64> {
    let get = |suffix: &str, default: u64| {
        std::env::var(format!("{prefix}_SEED_{suffix}"))
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let start = get("START", 0);
    start..start + get("COUNT", default_count)
}
