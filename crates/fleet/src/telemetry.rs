//! The fleet engine's metric families, as cached handles into the global
//! [`p7_obs`] registry — the same accessor idiom as `p7_sim::telemetry`.
//!
//! Every family here counts shards or server-epochs, never which worker
//! handled them, so all of them are jobs-invariant. Panic retries and
//! quarantines of shards land in the executor's shared
//! `ags_point_retries_total` / `ags_point_quarantines_total`.

use p7_obs::metrics::{global, Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Bucket bounds for solver-lane occupancy per fleet group solve. A group
/// packs up to 8 two-socket servers into a 16-lane batch; low buckets mean
/// the cache already held most of the epoch's operating points.
pub const GROUP_LANES_BOUNDS: &[f64] = &[2.0, 4.0, 8.0, 12.0, 16.0];

macro_rules! counter_accessor {
    ($(#[$doc:meta])* $fn_name:ident, $name:literal, $help:literal) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Arc<Counter> {
            static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
            HANDLE.get_or_init(|| global().counter($name, $help))
        }
    };
}

macro_rules! histogram_accessor {
    ($(#[$doc:meta])* $fn_name:ident, $name:literal, $help:literal, $bounds:expr) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Arc<Histogram> {
            static HANDLE: OnceLock<Arc<Histogram>> = OnceLock::new();
            HANDLE.get_or_init(|| global().histogram($name, $help, $bounds))
        }
    };
}

counter_accessor!(
    /// Shards claimed by fleet workers.
    shards_claimed,
    "ags_fleet_shards_claimed_total",
    "Fleet shards claimed by workers"
);

counter_accessor!(
    /// Server-epochs simulated or served from the solve cache.
    server_epochs,
    "ags_fleet_server_epochs_total",
    "Active fleet server-epochs resolved (simulated or cache-served)"
);

counter_accessor!(
    /// Server-epochs spent suspended (zero assigned threads or draining).
    idle_server_epochs,
    "ags_fleet_idle_server_epochs_total",
    "Fleet server-epochs spent in standby (idle or draining)"
);

histogram_accessor!(
    /// Solver lanes occupied per fleet group solve.
    group_lanes,
    "ags_fleet_group_lanes",
    "Solver lanes occupied per fleet group solve (2 per simulated server)",
    GROUP_LANES_BOUNDS
);

/// Touches every fleet metric family so exporters see the full schema
/// (zero-valued included) before any fleet campaign runs.
pub fn register_all() {
    let _ = shards_claimed();
    let _ = server_epochs();
    let _ = idle_server_epochs();
    let _ = group_lanes();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_stable_handles() {
        register_all();
        let enabled_before = global().is_enabled();
        global().set_enabled(true);
        let before = shards_claimed().get();
        shards_claimed().inc();
        assert_eq!(shards_claimed().get(), before + 1);
        global().set_enabled(enabled_before);
        assert!(GROUP_LANES_BOUNDS.windows(2).all(|w| w[0] < w[1]));
    }
}
