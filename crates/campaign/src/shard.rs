//! Deterministic fault-universe partitioning for sharded campaigns.
//!
//! A full campaign over the sequential engine is minutes of wall-clock
//! and, without partitioning, an all-or-nothing run — one crash loses
//! everything. A [`ShardPlan`] splits any fault universe (gate,
//! datapath, sequential) into `N` contiguous, balanced shards; each
//! shard runs as an ordinary campaign over its range (the engine
//! driver is handed that slice of the universe) and is checkpointed as a
//! `scdp.campaign.report/v4` document carrying a [`ShardInfo`] section.
//! Because every fault replays the same deterministic input stream
//! independently of its neighbours, re-merging the partial reports
//! ([`crate::CampaignReport::merge`]) reproduces the unsharded report
//! **bit for bit** — tallies, per-fault outcomes and latency histograms
//! — at any shard count and thread count.

use crate::error::CampaignError;

/// A deterministic partition of `total_faults` universe indices into
/// `shards` contiguous, maximally balanced ranges.
///
/// ```
/// use scdp_campaign::ShardPlan;
///
/// let plan = ShardPlan::new(10, 4).expect("valid plan");
/// let ranges: Vec<_> = (0..4).map(|i| plan.range(i)).collect();
/// assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    total_faults: u64,
    shards: u32,
}

impl ShardPlan {
    /// A plan over `total_faults` universe indices in `shards` pieces.
    /// Empty universes and plans with more shards than faults are fine
    /// (surplus shards get empty ranges) — what matters is that the
    /// ranges always tile `0..total_faults` deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::ZeroShards`] when `shards` is 0.
    pub fn new(total_faults: u64, shards: u32) -> Result<ShardPlan, CampaignError> {
        if shards == 0 {
            return Err(CampaignError::ZeroShards);
        }
        Ok(ShardPlan {
            total_faults,
            shards,
        })
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of universe indices the plan partitions.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    /// The universe range of shard `index`: the first
    /// `total_faults % shards` shards carry one extra fault, so shard
    /// sizes differ by at most one.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shards` (validate with
    /// [`ShardPlan::check_index`] first).
    #[must_use]
    pub fn range(&self, index: u32) -> std::ops::Range<u64> {
        assert!(index < self.shards, "shard index out of range");
        let (index, shards) = (u64::from(index), u64::from(self.shards));
        let q = self.total_faults / shards;
        let r = self.total_faults % shards;
        let start = index * q + index.min(r);
        let len = q + u64::from(index < r);
        start..start + len
    }

    /// Validates a shard index against the plan.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::ShardIndexOutOfRange`] when
    /// `index >= shards`.
    pub fn check_index(&self, index: u32) -> Result<(), CampaignError> {
        if index >= self.shards {
            return Err(CampaignError::ShardIndexOutOfRange {
                index,
                count: self.shards,
            });
        }
        Ok(())
    }
}

/// The shard section of a `scdp.campaign.report/v4` document: which
/// slice of which partition this partial report covers, plus the
/// configuration fingerprint that guards merges and resumes against
/// mixing checkpoints from different campaigns.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// This shard's index in the plan.
    pub index: u32,
    /// Number of shards in the plan.
    pub count: u32,
    /// First universe index covered (inclusive).
    pub fault_start: u64,
    /// One past the last universe index covered.
    pub fault_end: u64,
    /// Size of the whole (unsharded) fault universe.
    pub total_faults: u64,
    /// Fingerprint of the campaign configuration — scenario, backend,
    /// fault model, input plan, drop policy, duration — shared by every
    /// shard of one sweep ([`config_fingerprint`]).
    pub plan_hash: u64,
}

impl ShardInfo {
    /// The shard section of a run restricted to `shard` (`(index,
    /// count)`) of a `universe`-fault campaign, stamped with the
    /// configuration fingerprint `plan_hash` computes; `None` for an
    /// unsharded run. The one construction every spec shape uses.
    ///
    /// # Errors
    ///
    /// [`CampaignError::ZeroShards`] or
    /// [`CampaignError::ShardIndexOutOfRange`] for a malformed
    /// selection.
    pub fn resolve(
        shard: Option<(u32, u32)>,
        universe: u64,
        plan_hash: impl FnOnce() -> u64,
    ) -> Result<Option<ShardInfo>, CampaignError> {
        let Some((index, count)) = shard else {
            return Ok(None);
        };
        let plan = ShardPlan::new(universe, count)?;
        plan.check_index(index)?;
        let range = plan.range(index);
        Ok(Some(ShardInfo {
            index,
            count,
            fault_start: range.start,
            fault_end: range.end,
            total_faults: universe,
            plan_hash: plan_hash(),
        }))
    }
}

/// The canonical fingerprint part of an input space (stable labels,
/// never `Debug` output).
#[must_use]
pub(crate) fn space_part(space: scdp_coverage::InputSpace) -> String {
    match space {
        scdp_coverage::InputSpace::Exhaustive => "exhaustive".to_string(),
        scdp_coverage::InputSpace::Sampled { per_fault, seed } => {
            format!("sampled:{per_fault}:{seed}")
        }
    }
}

/// FNV-1a (64-bit) over the canonical campaign-configuration parts —
/// the one fingerprint construction shared by the campaign specs
/// (which stamp it into [`ShardInfo::plan_hash`] and use it to decide
/// whether an existing checkpoint belongs to the sweep being resumed)
/// and by [`crate::CampaignReport::merge`]'s consistency checks.
///
/// Parts are hashed with a separator so `["ab", "c"]` and `["a", "bc"]`
/// differ; callers pass label-stable serialisations, never `Debug`
/// output.
#[must_use]
pub fn config_fingerprint<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        for b in part.as_bytes() {
            fold(*b);
        }
        fold(0x1f); // unit separator between parts
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_universe_for_any_shard_count() {
        for total in [0u64, 1, 7, 64, 1422, 100_003] {
            for shards in [1u32, 2, 3, 4, 7, 64, 1000] {
                let plan = ShardPlan::new(total, shards).expect("valid");
                let mut cursor = 0u64;
                let mut sizes = Vec::new();
                for i in 0..shards {
                    let r = plan.range(i);
                    assert_eq!(r.start, cursor, "ranges must tile ({total}/{shards})");
                    cursor = r.end;
                    sizes.push(r.end - r.start);
                }
                assert_eq!(cursor, total);
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced split ({total}/{shards})");
            }
        }
    }

    #[test]
    fn invalid_plans_are_typed_errors() {
        assert_eq!(ShardPlan::new(10, 0), Err(CampaignError::ZeroShards));
        let plan = ShardPlan::new(10, 3).unwrap();
        assert!(plan.check_index(2).is_ok());
        assert_eq!(
            plan.check_index(3),
            Err(CampaignError::ShardIndexOutOfRange { index: 3, count: 3 })
        );
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.total_faults(), 10);
    }

    #[test]
    fn fingerprint_separates_parts_and_is_stable() {
        let a = config_fingerprint(["ab", "c"]);
        let b = config_fingerprint(["a", "bc"]);
        assert_ne!(a, b, "part boundaries must matter");
        assert_eq!(a, config_fingerprint(["ab", "c"]), "deterministic");
        assert_ne!(config_fingerprint([]), config_fingerprint([""]));
    }
}
