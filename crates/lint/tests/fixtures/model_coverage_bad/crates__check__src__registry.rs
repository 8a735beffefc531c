//! Fixture: a grail-check registry whose covers lists miss a machine.

pub struct ModelEntry {
    pub name: &'static str,
    pub covers: &'static [&'static str],
}

pub const REGISTRY: &[ModelEntry] = &[ModelEntry {
    name: "cell-run",
    covers: &["sim::parallel::CellRun"],
}];
