pub fn run_row(now: SimInstant) -> f64 {
    now.as_secs_f64()
}
