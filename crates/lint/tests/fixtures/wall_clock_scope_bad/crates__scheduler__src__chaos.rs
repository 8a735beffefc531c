pub fn schedule_storm() {
    let j = storm_jitter();
}
