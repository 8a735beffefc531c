pub fn run_row() -> f64 {
    let started = Instant::now();
    started.elapsed().as_secs_f64()
}
