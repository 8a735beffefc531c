pub fn jitter() -> u64 {
    entropy_word()
}
pub fn entropy_word() -> u64 {
    let t = SystemTime::now();
    0
}
