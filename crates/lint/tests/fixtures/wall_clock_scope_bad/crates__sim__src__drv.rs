pub fn advance() {
    let j = jitter();
}
