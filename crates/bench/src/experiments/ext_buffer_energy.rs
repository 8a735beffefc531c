//! EXT-BUF — Sec. 4.3's buffer-manager redesign: replacement policies
//! scored on *Joules* (DRAM residency + device re-fetch), not hit rate.
//!
//! A Zipf-skewed page trace over a heterogeneous hierarchy: half the
//! working set lives on flash (cheap re-fetch), half on a nearline disk
//! (expensive re-fetch). Classic recency policies ignore the asymmetry;
//! the energy-aware policy evicts cheap-to-refetch pages first. A
//! second sweep shows DRAM-rank consolidation cutting background power.

use super::Outcome;
use crate::ExperimentRecord;
use grail_buffer::policy::PolicyKind;
use grail_buffer::pool::{BufferPool, EnergyModel};
use grail_buffer::ranks::RankPlacement;
use grail_par::Runner;
use grail_power::units::{Joules, SimDuration, SimInstant, Watts};
use grail_storage::page::PageId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

const PAGES: u32 = 4096;
const POOL: usize = 512;
const ACCESSES: usize = 200_000;

/// Deterministic Zipf-ish page trace (rank-biased sampling).
fn trace(seed: u64) -> Vec<PageId> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..ACCESSES)
        .map(|_| {
            // Inverse-power sampling: rank ∝ u^alpha with alpha > 1
            // concentrates on low ranks.
            let u: f64 = rng.random_range(0.0f64..1.0);
            let rank = (u.powf(3.0) * PAGES as f64) as u32;
            PageId::new(0, rank.min(PAGES - 1))
        })
        .collect()
}

/// Re-fetch energy by page home: even pages on flash, odd on disk.
fn refetch(p: PageId) -> Joules {
    if p.index.is_multiple_of(2) {
        Joules::new(0.05)
    } else {
        Joules::new(2.0)
    }
}

/// Drive the trace through a pool under `kind`; the row's detail line
/// splits its energy into residency and re-fetch.
fn policy_row(kind: PolicyKind, t: &[PageId], residency: Watts) -> (ExperimentRecord, String) {
    let mut pool = BufferPool::new(
        POOL,
        kind,
        EnergyModel {
            residency_watts_per_page: residency,
        },
    );
    for (i, p) in t.iter().enumerate() {
        let now = SimInstant::EPOCH + SimDuration::from_millis(i as u64 * 5);
        pool.access(*p, now, refetch(*p));
    }
    let name = pool.policy_name().to_string();
    let stats = pool.finish(SimInstant::EPOCH + SimDuration::from_millis(ACCESSES as u64 * 5));
    let rec = ExperimentRecord::new(
        "EXT-BUF",
        &name,
        ACCESSES as f64 * 0.005,
        stats.total_energy().joules(),
        ACCESSES as f64,
        serde_json::json!({
            "hit_rate": stats.hit_rate(),
            "residency_j": stats.residency_energy.joules(),
            "refetch_j": stats.refetch_energy.joules(),
        }),
    );
    let detail = format!(
        "    hit rate {:.3}  residency {:.1}J  refetch {:.1}J",
        stats.hit_rate(),
        stats.residency_energy.joules(),
        stats.refetch_energy.joules()
    );
    (rec, detail)
}

pub(super) fn run(runner: &Runner) -> Outcome {
    let mut out = Outcome::default();
    let t = trace(11);
    let residency = Watts::new(0.0005);
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Clock,
        PolicyKind::TwoQ,
        PolicyKind::EnergyAware {
            residency_watts_per_page: residency,
        },
    ];
    // The four pools are independent and each walks the whole trace, so
    // they fan out; rows keep the policy order above.
    for (rec, detail) in runner.run(&policies, |_, kind| policy_row(*kind, &t, residency)) {
        out.push(rec);
        out.detail(detail);
    }
    let energy_of = |name: &str| {
        let (rec, _) = out
            .rows
            .iter()
            .find(|(r, _)| r.config == name)
            .expect("ran");
        rec.energy_j
    };
    let vs_lru = 100.0 * energy_of("energy") / energy_of("lru");
    out.say(format!(
        "energy-aware vs LRU: {vs_lru:.1}% of LRU's buffer-attributable energy"
    ));

    // Rank consolidation sweep.
    let idle = Watts::new(4.0);
    let sr = Watts::new(0.8);
    let span = SimDuration::from_secs(1000);
    let mut spread = RankPlacement::new(4, 1024);
    let mut packed = RankPlacement::new(4, 1024);
    for i in 0..2048u32 {
        spread.place_interleaved(PageId::new(1, i));
        packed.place(PageId::new(1, i));
    }
    let e_spread = spread.background_energy(span, idle, sr).joules();
    let e_packed = packed.background_energy(span, idle, sr).joules();
    out.push(ExperimentRecord::new(
        "EXT-BUF",
        "rank_consolidation",
        span.as_secs_f64(),
        e_packed,
        2048.0,
        serde_json::json!({"interleaved_j": e_spread, "saved_frac": 1.0 - e_packed / e_spread}),
    ));
    out.detail(format!(
            "    DRAM ranks (4 × 1024 pages, pool half full): interleaved {} powered, {e_spread:.0} J; consolidated {} powered, {e_packed:.0} J ({:.1}% saved)",
            spread.powered_ranks(),
            packed.powered_ranks(),
            100.0 * (1.0 - e_packed / e_spread)
        ));
    out
}
