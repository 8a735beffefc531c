fn main() {
    println!("{} rows", grail_bench::EXPERIMENTS.len());
}
