pub fn storm_jitter() -> u64 {
    storm_entropy()
}
pub fn storm_entropy() -> u64 {
    let t = SystemTime::now(); // grail-lint: allow(wall-clock, workbench-only jitter salt, chaos schedules are ChaCha-seeded and never read it)
    0
}
