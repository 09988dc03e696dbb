//! Group ticking: advancing many independent servers' windows through one
//! wide [`SolveBatch`].
//!
//! A two-socket server only ever occupies two solver lanes, so a
//! `SolveBatch<2>` leaves the SoA kernel's width on the table. The
//! [`GroupTicker`] packs the sockets of up to `LANES / 2` *uncorrelated*
//! servers into one batch: every member runs its pre-solve half
//! (fault effects, rail snapshot, activity and noise draws, DPLL settle),
//! all lanes converge in one fixed-point pass, then every member finishes
//! its window (CPMs, control, thermal) from its own lanes. Members that
//! draw alike — a sweep block's mode clones — draw once between them.
//!
//! This is the only place a window is orchestrated: a solo server is a
//! group of one ([`Simulation::tick`] ticks a `GroupTicker::<2>`, and
//! [`Simulation::run`] is `run_group::<2>`).
//!
//! Lanes are arithmetically independent — the batched kernel reproduces
//! the scalar loop bit for bit per lane regardless of its neighbours or
//! the batch's width (the tests below and `tests/solver_equivalence.rs`
//! pin it) — so a server's windows come out the same in a group of any
//! width. That
//! independence is what lets [`crate::cache::SolveCache::solve_group`]
//! pack whichever requests missed the cache — a sweep block's modes, a
//! fleet shard-epoch's servers — into one group without perturbing a
//! single result.

use crate::chip::{SocketTick, TickPrelude};
use crate::measure::{Accumulator, RunSummary};
use crate::server::{Simulation, TickSetup};
use crate::solve::{LaneSolution, SolveBatch};
use p7_obs::trace;
use p7_types::NUM_SOCKETS;

/// Scratch for ticking a group of servers through one wide
/// [`SolveBatch`]. Holds the batch and each member's staged window on the
/// stack, so building a ticker and every [`GroupTicker::tick_group`]
/// perform no heap allocation.
pub struct GroupTicker<const LANES: usize> {
    batch: SolveBatch<LANES>,
    /// Sized `LANES` although at most `LANES / 2` are used: a const
    /// generic expression cannot size an array on stable Rust.
    members: [Option<Member>; LANES],
}

/// One member's window between its begin and finish halves.
struct Member {
    /// The member's `"tick"` span, open until the whole group is settled.
    _span: trace::Span,
    setup: TickSetup,
    preludes: [TickPrelude; NUM_SOCKETS],
}

impl<const LANES: usize> Default for GroupTicker<LANES> {
    fn default() -> Self {
        GroupTicker {
            batch: SolveBatch::new(),
            members: std::array::from_fn(|_| None),
        }
    }
}

impl<const LANES: usize> GroupTicker<LANES> {
    /// A fresh ticker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many two-socket servers one batch can hold.
    #[must_use]
    pub const fn capacity() -> usize {
        LANES / NUM_SOCKETS
    }

    /// Advances every server in `sims` by one 32 ms window, solving all of
    /// their sockets as lanes of a single batch. `sink(i, ticks)` is
    /// called once per server, in slice order, with its window's
    /// observations.
    ///
    /// Servers routed through the scalar oracle keep their scalar solve
    /// (their lanes are simply left unoccupied), so a mixed group gives
    /// every server the windows it would get at any other width. Groups
    /// smaller than [`GroupTicker::capacity`] leave the remaining lanes
    /// masked out — the kernel's occupancy masking makes a partial batch
    /// exact, not approximate.
    ///
    /// # Panics
    ///
    /// Panics when `sims` holds more servers than the batch has lanes for.
    pub fn tick_group(
        &mut self,
        sims: &mut [&mut Simulation],
        mut sink: impl FnMut(usize, [SocketTick; NUM_SOCKETS]),
    ) {
        assert!(
            sims.len() * NUM_SOCKETS <= LANES,
            "group of {} servers needs {} lanes, batch has {LANES}",
            sims.len(),
            sims.len() * NUM_SOCKETS,
        );
        let members = &mut self.members[..sims.len()];

        // Phase 1 — every member's pre-solve half. The per-server "tick"
        // span opens here and closes when the whole group is settled: one
        // span per server-window, keyed by its window index. A member that
        // draws like an earlier one (a sweep block's modes are clones of
        // one build) takes that member's draws instead of repeating them.
        for g in 0..sims.len() {
            let (earlier, rest) = sims.split_at_mut(g);
            let sim = &mut *rest[0];
            let span = trace::span("tick", sim.next_tick_index() as u64);
            let setup = sim.begin_tick();
            let twin = earlier.iter().position(|other| sim.draws_like(other));
            let preludes = match twin {
                Some(t) => sim.begin_windows_as(&setup, earlier[t], &staged(&members[t]).preludes),
                None => sim.begin_windows(&setup),
            };
            members[g] = Some(Member {
                _span: span,
                setup,
                preludes,
            });
        }

        // Phase 2 — one kernel pass over every non-oracle socket.
        self.batch.clear();
        for (g, (sim, member)) in sims.iter().zip(members.iter()).enumerate() {
            if sim.wants_scalar_oracle() {
                continue;
            }
            let member = staged(member);
            for s in 0..NUM_SOCKETS {
                self.batch.load(
                    g * NUM_SOCKETS + s,
                    &sim.lane_spec(s, &member.setup, &member.preludes[s]),
                );
            }
        }
        if self.batch.occupancy() > 0 {
            self.batch.solve();
        }

        // Phase 3 — every member finishes and settles its own window.
        for (g, (sim, member)) in sims.iter_mut().zip(members.iter()).enumerate() {
            let member = staged(member);
            let solutions: [LaneSolution; NUM_SOCKETS] =
                std::array::from_fn(|s| lane_solution(&self.batch, sim, g, s, member));
            let ticks = sim.finish_windows(&member.setup, &member.preludes, &solutions);
            sink(g, sim.settle_tick(&member.setup, ticks));
        }
        members.fill_with(|| None);
    }
}

/// A member staged by phase 1 of [`GroupTicker::tick_group`].
fn staged(member: &Option<Member>) -> &Member {
    member.as_ref().expect("phase 1 staged every member")
}

/// One socket's converged solution: its batch lane, or a scalar solve for
/// oracle servers. The one place the oracle is chosen.
fn lane_solution<const LANES: usize>(
    batch: &SolveBatch<LANES>,
    sim: &Simulation,
    group: usize,
    socket: usize,
    member: &Member,
) -> LaneSolution {
    #[cfg(feature = "scalar-oracle")]
    if sim.wants_scalar_oracle() {
        return sim.solve_scalar_socket(socket, &member.setup, &member.preludes[socket]);
    }
    let _ = (sim, member);
    batch.lane(group * NUM_SOCKETS + socket)
}

/// Runs every server for `warmup + measure` windows in lane-batched
/// groups of [`GroupTicker::capacity`] (slice order defines the groups),
/// returning each server's averaged [`RunSummary`] in slice order.
///
/// Lanes are independent, so each summary is the same at any `LANES`:
/// the width is a throughput choice, not a semantic one.
///
/// # Panics
///
/// Panics if `measure` is zero.
#[must_use]
pub fn run_group<const LANES: usize>(
    sims: &mut [&mut Simulation],
    measure: usize,
    warmup: usize,
) -> Vec<RunSummary> {
    assert!(measure > 0, "must measure at least one window");
    let mut ticker = GroupTicker::<LANES>::new();
    let mut summaries = Vec::with_capacity(sims.len());
    let cap = GroupTicker::<LANES>::capacity().max(1);
    for chunk in sims.chunks_mut(cap) {
        for sim in chunk.iter_mut() {
            sim.reserve_telemetry(measure + warmup);
        }
        for _ in 0..warmup {
            ticker.tick_group(chunk, |_, _| {});
        }
        let mut accs: Vec<Accumulator> = chunk
            .iter()
            .map(|sim| Accumulator::new(sim.config().nominal_voltage(), sim.running_mask()))
            .collect();
        for _ in 0..measure {
            ticker.tick_group(chunk, |g, ticks| accs[g].add(&ticks));
        }
        summaries.extend(
            accs.into_iter()
                .map(|acc| acc.finish().expect("measure > 0 windows were accumulated")),
        );
    }
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::config::ServerConfig;
    use p7_control::GuardbandMode;
    use p7_workloads::Catalog;

    fn sim(name: &str, cores: usize, seed: u64, mode: GuardbandMode) -> Simulation {
        let w = Catalog::power7plus().get(name).unwrap().clone();
        let a = Assignment::single_socket(&w, cores).unwrap();
        Simulation::new(ServerConfig::power7plus(seed), a, mode).unwrap()
    }

    fn mixed_fleet() -> Vec<Simulation> {
        [
            ("raytrace", 4, 42, GuardbandMode::Undervolt),
            ("lu_cb", 1, 7, GuardbandMode::Overclock),
            ("radix", 8, 13, GuardbandMode::StaticGuardband),
            ("vips", 2, 99, GuardbandMode::Undervolt),
            ("swaptions", 6, 3, GuardbandMode::Undervolt),
            ("mcf", 3, 1, GuardbandMode::Overclock),
        ]
        .into_iter()
        .map(|(n, c, s, m)| sim(n, c, s, m))
        .collect()
    }

    fn solo_summaries(measure: usize, warmup: usize) -> Vec<RunSummary> {
        mixed_fleet()
            .iter_mut()
            .map(|s| s.run(measure, warmup))
            .collect()
    }

    #[test]
    fn group_run_is_bitwise_identical_to_solo_runs() {
        for lanes_label in ["8", "16"] {
            let mut fleet = mixed_fleet();
            let mut refs: Vec<&mut Simulation> = fleet.iter_mut().collect();
            let grouped = match lanes_label {
                "8" => run_group::<8>(&mut refs, 12, 6),
                _ => run_group::<16>(&mut refs, 12, 6),
            };
            assert_eq!(grouped, solo_summaries(12, 6), "LANES {lanes_label}");
        }
    }

    #[test]
    fn partial_groups_mask_the_remainder_lanes() {
        // 6 servers in 16-lane batches: one full group of 8 would fit,
        // so all 6 share one batch with 4 lanes masked out — the
        // non-multiple occupancy must still be exact.
        let mut fleet = mixed_fleet();
        let mut refs: Vec<&mut Simulation> = fleet.iter_mut().collect();
        let grouped = run_group::<16>(&mut refs, 9, 4);
        assert_eq!(grouped, solo_summaries(9, 4));

        // And a single odd server in a wide batch (occupancy 2 of 16).
        let mut one = sim("raytrace", 5, 4242, GuardbandMode::Undervolt);
        let mut solo = sim("raytrace", 5, 4242, GuardbandMode::Undervolt);
        let mut refs = vec![&mut one];
        let grouped = run_group::<16>(&mut refs, 7, 3);
        assert_eq!(grouped[0], solo.run(7, 3));
    }

    #[test]
    fn faulted_servers_group_tick_like_solo() {
        use p7_faults::FaultPlan;
        let plan = FaultPlan::named("droop-storm").unwrap();
        let build = || {
            let mut fleet = mixed_fleet();
            fleet[1].set_fault_plan(plan.clone()).unwrap();
            fleet[4].set_fault_plan(plan.clone()).unwrap();
            fleet
        };
        let mut grouped_fleet = build();
        let mut refs: Vec<&mut Simulation> = grouped_fleet.iter_mut().collect();
        let grouped = run_group::<8>(&mut refs, 40, 5);
        let solo: Vec<RunSummary> = build().iter_mut().map(|s| s.run(40, 5)).collect();
        assert_eq!(grouped, solo);
    }

    #[cfg(feature = "scalar-oracle")]
    #[test]
    fn oracle_servers_keep_the_scalar_path_inside_a_group() {
        let mut fleet = mixed_fleet();
        fleet[0].set_scalar_oracle(true);
        fleet[3].set_scalar_oracle(true);
        let mut refs: Vec<&mut Simulation> = fleet.iter_mut().collect();
        let grouped = run_group::<16>(&mut refs, 10, 5);
        assert_eq!(grouped, solo_summaries(10, 5));
    }

    #[test]
    fn clones_share_draws_in_a_group_and_keep_their_own_streams() {
        // Clones of one build under other modes draw identically, so in a
        // group the later ones take the first one's draws. Each must still
        // run exactly like a simulation built for its mode, also after it
        // leaves the group and draws for itself again.
        let build = |mode| sim("bodytrack", 5, 23, mode);
        let built = build(GuardbandMode::Undervolt);
        let modes = [
            GuardbandMode::Undervolt,
            GuardbandMode::Overclock,
            GuardbandMode::StaticGuardband,
        ];
        let mut clones = modes.map(|mode| built.clone().with_mode(mode));
        let mut fresh = modes.map(build);
        let mut refs: Vec<&mut Simulation> = clones.iter_mut().collect();
        let grouped = run_group::<8>(&mut refs, 10, 4);
        let solo: Vec<RunSummary> = fresh.iter_mut().map(|s| s.run(10, 4)).collect();
        assert_eq!(grouped, solo);
        for (clone, fresh) in clones.iter_mut().zip(&mut fresh) {
            assert_eq!(clone.run(8, 0), fresh.run(8, 0), "{}", fresh.mode());
        }
    }

    #[test]
    fn group_ticker_is_reusable_across_groups() {
        let mut ticker = GroupTicker::<8>::new();
        let mut a = sim("raytrace", 2, 5, GuardbandMode::Undervolt);
        let mut b = sim("radix", 7, 6, GuardbandMode::Undervolt);
        let mut first = vec![&mut a];
        ticker.tick_group(&mut first, |_, _| {});
        let mut second = vec![&mut b];
        let mut seen = 0;
        ticker.tick_group(&mut second, |g, _| {
            assert_eq!(g, 0);
            seen += 1;
        });
        assert_eq!(seen, 1);

        let mut b_solo = sim("radix", 7, 6, GuardbandMode::Undervolt);
        b_solo.tick();
        // b advanced exactly one window, unperturbed by a's earlier group.
        assert_eq!(b.next_tick_index(), 1);
        assert_eq!(b_solo.next_tick_index(), 1);
    }
}
