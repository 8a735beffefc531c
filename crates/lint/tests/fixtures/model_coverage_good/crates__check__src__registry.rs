//! Fixture: the registry's covers list names every protocol machine.

pub struct ModelEntry {
    pub name: &'static str,
    pub covers: &'static [&'static str],
}

pub const REGISTRY: &[ModelEntry] = &[ModelEntry {
    name: "cell-run",
    covers: &["sim::cell::CellRun", "sim::parallel::CellRun"],
}];
