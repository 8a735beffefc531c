fn replay_is_fast() {
    let started = Instant::now();
}
