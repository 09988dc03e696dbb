//! The fleet campaign specification: cluster size, horizon, traffic
//! shape and determinism parameters, serde-serializable so campaigns can
//! be journaled and resumed exactly like sweeps.

use crate::traffic::{TrafficModel, CORES_PER_SERVER};
use p7_sim::{validate_run_windows, CampaignManifest, SimError};
use p7_workloads::Catalog;
use serde::{Deserialize, Serialize};

/// Default servers per shard: one shard's sockets exactly fill a
/// 16-lane solve group, so a worker converges a whole shard-epoch in a
/// single kernel pass.
pub const DEFAULT_SHARD_SERVERS: usize = 8;

/// Most servers one fleet spec may describe (1 Mi). The engine compiles
/// one tenant (experiment, workload profile and fingerprint, about
/// 470 B) per server up front, so a fleet at the bound takes about
/// 500 MB before the first epoch runs; the full campaign has 1000.
pub const MAX_FLEET_SERVERS: usize = 1 << 20;

/// Most server-epochs (`servers × epochs`) one fleet spec may describe
/// (16 Mi). The report holds one 40 B `EpochOutcome` per server-epoch,
/// about 670 MB at the bound; the full campaign has 24 000.
pub const MAX_FLEET_SERVER_EPOCHS: usize = 1 << 24;

/// A complete fleet campaign description.
///
/// Everything a run depends on is in here; a [`FleetSpec`] plus the
/// workload catalog fully determines every number in the report, so a
/// campaign is byte-identical at any worker count and across any
/// interrupt/resume split.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Number of two-socket servers in the fleet.
    pub servers: usize,
    /// Control-plane epochs to simulate.
    pub epochs: usize,
    /// The open-loop demand shape.
    pub traffic: TrafficModel,
    /// Master seed: per-server silicon seeds and tenant assignment
    /// derive from it.
    pub seed: u64,
    /// Telemetry windows measured per active server-epoch.
    pub measure_ticks: usize,
    /// Warm-up windows discarded per active server-epoch.
    pub warmup_ticks: usize,
    /// Servers per shard — the unit of worker claiming, panic quarantine
    /// and journal checkpoints.
    pub shard_servers: usize,
}

impl FleetSpec {
    /// The full-scale campaign: a thousand servers over one diurnal
    /// period.
    #[must_use]
    pub fn power7plus() -> Self {
        FleetSpec {
            servers: 1000,
            epochs: 24,
            traffic: TrafficModel::Diurnal,
            seed: 42,
            measure_ticks: 12,
            warmup_ticks: 6,
            shard_servers: DEFAULT_SHARD_SERVERS,
        }
    }

    /// The shortened CI campaign: small fleet, flash-crowd traffic (the
    /// most state-diverse shape), few ticks.
    #[must_use]
    pub fn smoke() -> Self {
        FleetSpec {
            servers: 24,
            epochs: 6,
            traffic: TrafficModel::FlashCrowd,
            seed: 42,
            measure_ticks: 6,
            warmup_ticks: 3,
            shard_servers: DEFAULT_SHARD_SERVERS,
        }
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides fleet size and horizon.
    #[must_use]
    pub fn with_scale(mut self, servers: usize, epochs: usize) -> Self {
        self.servers = servers;
        self.epochs = epochs;
        self
    }

    /// Overrides the traffic model.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Number of shards — the campaign's schedulable (and journaled)
    /// units.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.servers.div_ceil(self.shard_servers.max(1))
    }

    /// The global server-index range of shard `shard`.
    #[must_use]
    pub fn shard_range(&self, shard: usize) -> std::ops::Range<usize> {
        let per = self.shard_servers.max(1);
        let start = shard * per;
        start..(start + per).min(self.servers)
    }

    /// Validates the spec against the workload catalog.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty fleet, horizon
    /// or shard size, or an empty catalog; [`SimError::Spec`] for a fleet
    /// above [`MAX_FLEET_SERVERS`] or [`MAX_FLEET_SERVER_EPOCHS`], or tick
    /// counts that fail [`validate_run_windows`].
    pub fn validate(&self, catalog: &Catalog) -> Result<(), SimError> {
        let invalid = |reason: &'static str| Err(SimError::InvalidConfig { reason });
        if self.servers == 0 {
            return invalid("fleet needs at least one server");
        }
        if self.epochs == 0 {
            return invalid("fleet needs at least one epoch");
        }
        if self.servers > MAX_FLEET_SERVERS {
            return Err(SimError::Spec {
                reason: format!(
                    "fleet of {} servers exceeds the {MAX_FLEET_SERVERS}-server bound",
                    self.servers
                ),
            });
        }
        if self
            .servers
            .checked_mul(self.epochs)
            .is_none_or(|n| n > MAX_FLEET_SERVER_EPOCHS)
        {
            return Err(SimError::Spec {
                reason: format!(
                    "fleet of {} servers x {} epochs exceeds the \
                     {MAX_FLEET_SERVER_EPOCHS}-server-epoch bound",
                    self.servers, self.epochs
                ),
            });
        }
        validate_run_windows(self.measure_ticks, self.warmup_ticks)?;
        if self.shard_servers == 0 {
            return invalid("fleet shards need at least one server");
        }
        if catalog.iter().next().is_none() {
            return invalid("workload catalog is empty");
        }
        Ok(())
    }

    /// Canonical JSON of the spec.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] for malformed JSON.
    pub fn from_json(text: &str) -> Result<Self, SimError> {
        serde::json::from_str(text).map_err(|e| SimError::Spec {
            reason: format!("bad fleet spec JSON: {e}"),
        })
    }

    /// The journal manifest pinning this campaign.
    #[must_use]
    pub fn manifest(&self) -> CampaignManifest {
        CampaignManifest::new("fleet", self.seed, self.to_json())
    }

    /// Total thread capacity of the fleet.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.servers * CORES_PER_SERVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p7_sim::MAX_RUN_WINDOWS;

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [
            FleetSpec::power7plus(),
            FleetSpec::smoke().with_seed(7),
            FleetSpec::smoke()
                .with_scale(3, 9)
                .with_traffic(TrafficModel::RollingDeploy),
        ] {
            let back = FleetSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(FleetSpec::from_json("{").is_err());
    }

    #[test]
    fn shards_partition_the_fleet() {
        let spec = FleetSpec::smoke().with_scale(21, 4);
        assert_eq!(spec.shards(), 3);
        let mut seen = Vec::new();
        for shard in 0..spec.shards() {
            seen.extend(spec.shard_range(shard));
        }
        assert_eq!(seen, (0..21).collect::<Vec<_>>());
        assert_eq!(spec.shard_range(2), 16..21, "tail shard is partial");
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let catalog = Catalog::power7plus();
        assert!(FleetSpec::smoke().validate(&catalog).is_ok());
        assert!(FleetSpec::smoke()
            .with_scale(0, 4)
            .validate(&catalog)
            .is_err());
        assert!(FleetSpec::smoke()
            .with_scale(4, 0)
            .validate(&catalog)
            .is_err());
        let mut zero_ticks = FleetSpec::smoke();
        zero_ticks.measure_ticks = 0;
        assert!(zero_ticks.validate(&catalog).is_err());
        let mut zero_shard = FleetSpec::smoke();
        zero_shard.shard_servers = 0;
        assert!(zero_shard.validate(&catalog).is_err());
    }

    #[test]
    fn validation_bounds_fleet_size_and_run_windows() {
        let catalog = Catalog::power7plus();
        let refused =
            |spec: &FleetSpec| matches!(spec.validate(&catalog), Err(SimError::Spec { .. }));
        // Exactly at both size bounds.
        let at_bound = FleetSpec::smoke().with_scale(MAX_FLEET_SERVERS, 16);
        assert_eq!(at_bound.servers * at_bound.epochs, MAX_FLEET_SERVER_EPOCHS);
        assert!(at_bound.validate(&catalog).is_ok());
        assert!(refused(
            &FleetSpec::smoke().with_scale(MAX_FLEET_SERVERS + 1, 1)
        ));
        assert!(refused(
            &FleetSpec::smoke().with_scale(MAX_FLEET_SERVERS, 17)
        ));
        assert!(refused(&FleetSpec::smoke().with_scale(2, usize::MAX)));

        let mut ticks = FleetSpec::smoke();
        ticks.measure_ticks = MAX_RUN_WINDOWS - ticks.warmup_ticks;
        assert!(ticks.validate(&catalog).is_ok());
        ticks.measure_ticks += 1;
        assert!(refused(&ticks));
    }

    #[test]
    fn manifest_pins_the_spec() {
        let m = FleetSpec::smoke().manifest();
        assert_eq!(m.kind, "fleet");
        assert_eq!(m.seed, 42);
        assert_eq!(
            FleetSpec::from_json(&m.spec_json).unwrap(),
            FleetSpec::smoke()
        );
    }
}
