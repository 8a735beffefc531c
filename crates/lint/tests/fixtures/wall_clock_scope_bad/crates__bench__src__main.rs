fn main() {
    let started = std::time::Instant::now();
    println!("{:?}", started.elapsed());
}
