pub fn storm_jitter() -> u64 {
    storm_entropy()
}
pub fn storm_entropy() -> u64 {
    let t = SystemTime::now();
    0
}
