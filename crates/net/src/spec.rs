//! The spawn contract between hub and node processes.
//!
//! A [`NodeSpec`] is everything one resource process needs to rebuild
//! its share of the grid deterministically: config, topology, database
//! partition, and its [`RoundSchedule`] (fault-plan slice + recovery
//! mode). The node mints its resource from it by core's recipe,
//! `MineConfig::resource`, the one every driver builds its grid by. The
//! hub writes it as JSON to a per-resource file and passes the path as
//! the single CLI argument — keeping secrets (none live here; keys are
//! re-derived from the session seed by `SessionCipher::session_keys`)
//! and large payloads off the command line.

use gridmine_arm::Database;
use gridmine_core::RoundSchedule;

/// Everything a `gridmine-node` process needs to join a session.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct NodeSpec {
    /// Session id this process belongs to (echoed in the handshake).
    pub session: u64,
    /// This process's resource id.
    pub resource: usize,
    /// Cipher tag: `"mock"` or `"paillier"`.
    pub cipher: String,
    /// The session seed: the grid keys derive from it, and core's recipe
    /// mixes the resource seed from it.
    pub seed: u64,
    /// Minimum frequency threshold as `(num, den)`.
    pub min_freq: (u32, u32),
    /// Minimum confidence threshold as `(num, den)`.
    pub min_conf: (u32, u32),
    /// k-privacy parameter.
    pub k: i64,
    /// Protocol rounds.
    pub rounds: usize,
    /// Full grid adjacency (`adjacency[u]` = neighbors of `u`), shared
    /// so the node can pre-compute every neighbor's counter layout.
    pub adjacency: Vec<Vec<usize>>,
    /// The voted item domain (`gridmine_core::item_domain` over every
    /// partition).
    pub items: Vec<u32>,
    /// This resource's database partition.
    pub db: Database,
    /// This resource's slice of the fault plan and the recovery mode.
    /// A process the hub kills from outside gets it without its own
    /// outage; its successor gets the full slice.
    pub schedule: RoundSchedule,
    /// Set on a respawned process: the tick it rejoins at (it restores
    /// from `state_dir` before peering).
    pub resume_tick: Option<u64>,
    /// Hub address to dial (`127.0.0.1:port`).
    pub hub: String,
    /// Directory for persisted state: `{u}.image` ([`crate::state`])
    /// survives a process kill for warm restart.
    pub state_dir: String,
    /// When set, the node sends garbage bytes after the handshake —
    /// the Byzantine fixture for codec-door verdict tests.
    pub hostile: bool,
    /// True when the hub's session has a live recorder: the node then
    /// records its events and forwards them as `Frame::Obs`. The hub
    /// derives it from its recorder; off, no event is formatted, framed
    /// or sent.
    #[serde(default)]
    pub observed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::Transaction;
    use gridmine_core::{RecoveryMode, RecoveryPolicy};
    use gridmine_topology::FaultPlan;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = NodeSpec {
            session: 7,
            resource: 1,
            cipher: "mock".into(),
            seed: 0x417E,
            min_freq: (1, 3),
            min_conf: (1, 2),
            k: 1,
            rounds: 6,
            adjacency: vec![vec![1], vec![0, 2], vec![1]],
            items: vec![1, 2, 3],
            db: Database::from_transactions(vec![Transaction::of(0, &[1, 2])]),
            schedule: RoundSchedule::of(
                &FaultPlan::new(1).with_crash(1, 2, Some(4)).with_crash(0, 1, Some(4)),
                1,
                RecoveryMode::Checkpoint(RecoveryPolicy::default()),
            ),
            resume_tick: None,
            hub: "127.0.0.1:9".into(),
            state_dir: "/tmp/x".into(),
            hostile: false,
            observed: true,
        };
        let json = serde_json::to_string(&spec).expect("encode");
        let back: NodeSpec = serde_json::from_str(&json).expect("decode");
        assert_eq!(back.resource, 1);
        assert_eq!(back.adjacency, spec.adjacency);
        assert_eq!(back.schedule, spec.schedule);
        assert!(back.schedule.wipes_at(2) && back.schedule.restores_at(4));
        assert_eq!(back.schedule.heal_edges(4, &[0, 2]), vec![0, 2]);
        assert!(back.observed);
        // A spec that does not say is unobserved.
        let silent = json.replace(",\"observed\":true", "");
        assert_ne!(silent, json);
        let back: NodeSpec = serde_json::from_str(&silent).expect("decode without the flag");
        assert!(!back.observed);
    }
}
