pub fn jitter() -> u64 {
    entropy_word()
}
pub fn entropy_word() -> u64 {
    let t = SystemTime::now(); // grail-lint: allow(wall-clock, host-side cache salt, never reaches sim state)
    0
}
