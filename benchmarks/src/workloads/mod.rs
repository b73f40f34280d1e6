//! The four workloads and what they share.

pub mod analyze;
pub mod pipeline;
pub mod service;
pub mod simulate;

mod live;

/// Population of a workload: as sized, or a twentieth of it under `--tiny`
/// (for the unit tests and a smoke run; tiny numbers are never compared).
pub fn population(nodes: usize, tiny: bool) -> usize {
    if tiny {
        nodes / 20
    } else {
        nodes
    }
}

/// Set-up of the workloads that have no feed or dataset to prepare
/// (scenario construction is the program's own work and is timed): a
/// warm-up simulation of half the workload's population into a counting
/// sink. Long enough, and free of fsyncs, so that `setup_s` is a steady
/// number.
pub fn warm_up(ctx: &mut crate::run::Ctx, nodes: usize, days: u64) {
    let warm_up = simulate::simulate(ctx, population(nodes, ctx.tiny) / 2, days);
    ctx.tally
        .check(warm_up.entries > 0, || "warm-up observed nothing".into());
}
