//! Simulated durable storage: what a crash *actually* does to a disk.
//!
//! PRs 2–4 proved the control plane recovers from crashes — but their
//! Raft logs and intent records lived in in-memory `Vec`s that survived
//! `kill`/`revive` perfectly intact. Real crashes are not that polite:
//! they lose the unsynced suffix, tear the record that was mid-write,
//! and (over time) silently rot bytes that were synced long ago. This
//! module provides the physical layer those failure modes live in:
//!
//! - [`SimDisk`] — an append-only byte device. Writes land in a
//!   **volatile buffer** until an explicit [`SimDisk::fsync`] barrier
//!   moves them to the durable region. [`SimDisk::crash`] drops the
//!   volatile buffer, optionally keeping a *seeded prefix* of it (a torn
//!   write that partially reached the platter).
//! - [`DiskFaultPlan`] — a seeded plan arming the interesting physics:
//!   torn writes, a capacity that yields [`StorageError::NoSpace`],
//!   fsync latency (lagging disks), and a write index at which the disk
//!   fails mid-operation (so the crash lands *between* a write and its
//!   barrier — the only way an in-flight record can exist).
//! - Targeted bit rot ([`SimDisk::rot_byte`]) — flips one seeded bit in
//!   the synced region, for scrub/checksum chaos.
//!
//! The default disk is **fault-free and fsync-on-write**: every write is
//! durable immediately and a crash loses nothing. That default keeps
//! every pre-existing experiment (E12–E20) byte-identical; only the E21
//! storage-chaos schedules arm plans.

use flexnet_types::{Result, SimDuration, StorageError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded plan of physical disk faults. The default plan is fault-free.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFaultPlan {
    /// Seed for the disk's private RNG (tear offsets, rot targets).
    /// Disks never draw from their owner's RNG, so arming a plan cannot
    /// perturb any other seeded stream.
    pub seed: u64,
    /// On crash, keep a seeded prefix of the volatile buffer — the torn
    /// write that partially reached the platter. Off: the crash drops
    /// the volatile buffer cleanly.
    pub tear_on_crash: bool,
    /// Total capacity in bytes; writes that would exceed it are refused
    /// with [`StorageError::NoSpace`] (and do not happen at all).
    pub capacity: Option<u64>,
    /// Latency charged per fsync barrier (a lagging disk). Accounted in
    /// [`DiskStats::lag_charged`] and returned from [`SimDisk::fsync`]
    /// so callers can bill it to simulated time.
    pub fsync_lag: SimDuration,
    /// The 1-based write index at which the disk fails mid-operation:
    /// the write's bytes land in the volatile buffer but the device
    /// trips before the barrier, and every later operation fails until
    /// [`SimDisk::crash`] resets the medium. This is how a crash lands
    /// *inside* an append.
    pub crash_at_write: Option<u64>,
}

impl Default for DiskFaultPlan {
    fn default() -> DiskFaultPlan {
        DiskFaultPlan::fault_free()
    }
}

impl DiskFaultPlan {
    /// The quiet plan: no tearing, no capacity limit, no lag, no trips.
    pub fn fault_free() -> DiskFaultPlan {
        DiskFaultPlan {
            seed: 0,
            tear_on_crash: false,
            capacity: None,
            fsync_lag: SimDuration::ZERO,
            crash_at_write: None,
        }
    }

    /// A fault-free plan with its private RNG seeded (so later targeted
    /// rot/tear draws are deterministic per seed).
    pub fn seeded(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            seed,
            ..DiskFaultPlan::fault_free()
        }
    }

    /// Arms crash-tearing of the in-flight write.
    pub fn tearing(mut self) -> DiskFaultPlan {
        self.tear_on_crash = true;
        self
    }

    /// Caps the disk at `bytes`.
    pub fn with_capacity(mut self, bytes: u64) -> DiskFaultPlan {
        self.capacity = Some(bytes);
        self
    }

    /// Charges `lag` per fsync barrier.
    pub fn with_fsync_lag(mut self, lag: SimDuration) -> DiskFaultPlan {
        self.fsync_lag = lag;
        self
    }

    /// Trips the device mid-way through its `n`th write (1-based).
    pub fn crash_at_write(mut self, n: u64) -> DiskFaultPlan {
        self.crash_at_write = Some(n);
        self
    }
}

/// Observability counters for one disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Writes accepted (into the volatile buffer).
    pub writes: u64,
    /// Fsync barriers completed.
    pub fsyncs: u64,
    /// Crashes survived by the medium.
    pub crashes: u64,
    /// Crashes that left a torn prefix of the in-flight write.
    pub torn_crashes: u64,
    /// Bytes dropped from the volatile buffer across all crashes.
    pub dropped_bytes: u64,
    /// Bytes flipped by injected rot.
    pub rotted_bytes: u64,
    /// Writes refused with `NoSpace`.
    pub nospace_refusals: u64,
    /// Total fsync latency charged.
    pub lag_charged: SimDuration,
}

/// An append-only simulated disk with volatile-until-fsync semantics.
#[derive(Debug, Clone)]
pub struct SimDisk {
    synced: Vec<u8>,
    volatile: Vec<u8>,
    plan: DiskFaultPlan,
    rng: StdRng,
    /// The device tripped mid-write (see `DiskFaultPlan::crash_at_write`)
    /// and refuses all I/O until the node crashes and recovers.
    tripped: bool,
    stats: DiskStats,
}

impl Default for SimDisk {
    fn default() -> SimDisk {
        SimDisk::new()
    }
}

impl SimDisk {
    /// A fault-free disk (fsync-on-write from the caller's perspective:
    /// nothing interesting ever sits in the volatile buffer across a
    /// crash, because nothing ever fails).
    pub fn new() -> SimDisk {
        SimDisk::with_plan(DiskFaultPlan::fault_free())
    }

    /// A disk with `plan` armed.
    pub fn with_plan(plan: DiskFaultPlan) -> SimDisk {
        let rng = StdRng::seed_from_u64(plan.seed ^ 0xD15C_0000_0000_0000);
        SimDisk {
            synced: Vec::new(),
            volatile: Vec::new(),
            plan,
            rng,
            tripped: false,
            stats: DiskStats::default(),
        }
    }

    /// Appends `bytes` to the volatile buffer.
    ///
    /// Fails with [`StorageError::NoSpace`] (write refused, no partial
    /// state) when the capacity would be exceeded, and with
    /// [`StorageError::TornRecord`]-to-be semantics when the armed
    /// `crash_at_write` trips: the bytes land in the volatile buffer but
    /// the device dies before any barrier — the caller must treat the
    /// node as crashed (its ack must never be sent).
    pub fn write(&mut self, bytes: &[u8]) -> Result<()> {
        if self.tripped {
            return Err(flexnet_types::FlexError::Unavailable(
                "disk tripped mid-write; medium needs a crash-recover cycle".into(),
            ));
        }
        if let Some(cap) = self.plan.capacity {
            let used = (self.synced.len() + self.volatile.len()) as u64;
            if used + bytes.len() as u64 > cap {
                self.stats.nospace_refusals += 1;
                return Err(StorageError::NoSpace {
                    needed: bytes.len() as u64,
                    capacity: cap,
                }
                .into());
            }
        }
        self.stats.writes += 1;
        self.volatile.extend_from_slice(bytes);
        if self.plan.crash_at_write == Some(self.stats.writes) {
            self.tripped = true;
            return Err(flexnet_types::FlexError::Unavailable(
                "disk failed mid-write (fault plan)".into(),
            ));
        }
        Ok(())
    }

    /// The fsync barrier: moves the volatile buffer to the durable
    /// region and returns the latency charged (zero on quiet plans).
    pub fn fsync(&mut self) -> Result<SimDuration> {
        if self.tripped {
            return Err(flexnet_types::FlexError::Unavailable(
                "disk tripped mid-write; medium needs a crash-recover cycle".into(),
            ));
        }
        self.synced.append(&mut self.volatile);
        self.stats.fsyncs += 1;
        self.stats.lag_charged += self.plan.fsync_lag;
        Ok(self.plan.fsync_lag)
    }

    /// A crash: the volatile buffer is lost. With `tear_on_crash` armed
    /// and bytes in flight, a seeded prefix of the buffer survives on
    /// the platter — the torn write recovery's scrub must detect. The
    /// medium itself survives (and a tripped device resets).
    pub fn crash(&mut self) {
        self.stats.crashes += 1;
        self.tripped = false;
        if self.volatile.is_empty() {
            return;
        }
        let len = self.volatile.len();
        if self.plan.tear_on_crash {
            // 1..len keeps the tear strictly partial: at least one byte
            // reached the platter, at least one byte did not.
            let keep = if len == 1 { 1 } else { self.rng.gen_range(1..len) };
            self.stats.torn_crashes += 1;
            self.stats.dropped_bytes += (len - keep) as u64;
            self.synced.extend_from_slice(&self.volatile[..keep]);
        } else {
            self.stats.dropped_bytes += len as u64;
        }
        self.volatile.clear();
    }

    /// The durable region (what a post-crash recovery gets to read).
    pub fn synced_bytes(&self) -> &[u8] {
        &self.synced
    }

    /// Bytes currently volatile (would be lost by a crash).
    pub fn volatile_len(&self) -> usize {
        self.volatile.len()
    }

    /// Whether the device tripped mid-write and is refusing I/O.
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Rewrites the durable region wholesale. Recovery uses this to
    /// repair the medium after scrub-truncation (dropping a torn tail),
    /// and compaction uses it to delete covered segments.
    pub fn set_synced(&mut self, bytes: Vec<u8>) {
        self.synced = bytes;
        self.volatile.clear();
    }

    /// Flips one seeded bit of one seeded byte in `synced[lo..hi)` —
    /// injected bit rot. Returns the offset hit, or `None` when the
    /// range is empty. Draws only from the disk's private RNG.
    pub fn rot_byte(&mut self, lo: usize, hi: usize) -> Option<usize> {
        let hi = hi.min(self.synced.len());
        if lo >= hi {
            return None;
        }
        let at = self.rng.gen_range(lo..hi);
        let bit = self.rng.gen_range(0..8u32);
        self.synced[at] ^= 1 << bit;
        self.stats.rotted_bytes += 1;
        Some(at)
    }

    /// Observability counters.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// The armed plan.
    pub fn plan(&self) -> &DiskFaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_types::FlexError;

    #[test]
    fn default_disk_is_fault_free_and_crash_loses_only_volatile() {
        let mut d = SimDisk::new();
        d.write(b"hello").unwrap();
        d.fsync().unwrap();
        d.write(b" world").unwrap();
        assert_eq!(d.volatile_len(), 6);
        d.crash();
        assert_eq!(d.synced_bytes(), b"hello");
        assert_eq!(d.volatile_len(), 0);
        assert_eq!(d.stats().dropped_bytes, 6);
        assert_eq!(d.stats().torn_crashes, 0);
    }

    #[test]
    fn tearing_crash_keeps_a_strict_prefix_of_the_inflight_write() {
        let mut d = SimDisk::with_plan(DiskFaultPlan::seeded(7).tearing());
        d.write(b"synced").unwrap();
        d.fsync().unwrap();
        d.write(b"in-flight-record").unwrap();
        d.crash();
        let synced = d.synced_bytes();
        assert!(synced.starts_with(b"synced"));
        let torn = &synced[6..];
        assert!(!torn.is_empty() && torn.len() < 16, "torn {} bytes", torn.len());
        assert!(b"in-flight-record".starts_with(torn));
        assert_eq!(d.stats().torn_crashes, 1);
    }

    #[test]
    fn capacity_refuses_writes_with_typed_nospace_and_no_partial_state() {
        let mut d = SimDisk::with_plan(DiskFaultPlan::seeded(1).with_capacity(8));
        d.write(b"12345678").unwrap();
        let err = d.write(b"x").unwrap_err();
        assert!(matches!(
            err,
            FlexError::Storage(StorageError::NoSpace { needed: 1, capacity: 8 })
        ));
        d.fsync().unwrap();
        assert_eq!(d.synced_bytes(), b"12345678");
        assert_eq!(d.stats().nospace_refusals, 1);
    }

    #[test]
    fn fsync_lag_is_charged_and_accounted() {
        let lag = SimDuration::from_micros(250);
        let mut d = SimDisk::with_plan(DiskFaultPlan::seeded(2).with_fsync_lag(lag));
        d.write(b"abc").unwrap();
        assert_eq!(d.fsync().unwrap(), lag);
        d.write(b"def").unwrap();
        d.fsync().unwrap();
        assert_eq!(d.stats().lag_charged, lag + lag);
    }

    #[test]
    fn crash_at_write_trips_the_device_until_a_crash_recover_cycle() {
        let mut d = SimDisk::with_plan(DiskFaultPlan::seeded(3).crash_at_write(2).tearing());
        d.write(b"first").unwrap();
        d.fsync().unwrap();
        let err = d.write(b"second").unwrap_err();
        assert!(matches!(err, FlexError::Unavailable(_)));
        assert!(d.is_tripped());
        assert!(matches!(d.fsync(), Err(FlexError::Unavailable(_))));
        assert!(matches!(d.write(b"x"), Err(FlexError::Unavailable(_))));
        d.crash();
        assert!(!d.is_tripped());
        // The torn prefix of "second" reached the platter.
        assert!(d.synced_bytes().len() > 5);
        d.write(b"after").unwrap();
        d.fsync().unwrap();
    }

    #[test]
    fn rot_flips_exactly_one_bit_in_range_deterministically() {
        let mk = || {
            let mut d = SimDisk::with_plan(DiskFaultPlan::seeded(9));
            d.write(&[0u8; 64]).unwrap();
            d.fsync().unwrap();
            d
        };
        let mut a = mk();
        let mut b = mk();
        let at_a = a.rot_byte(16, 48).unwrap();
        let at_b = b.rot_byte(16, 48).unwrap();
        assert_eq!(at_a, at_b, "rot draws only from the disk's private rng");
        assert!((16..48).contains(&at_a));
        let diff: u32 = a.synced_bytes().iter().map(|&x| x.count_ones()).sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(a.stats().rotted_bytes, 1);
    }

    #[test]
    fn rot_outside_synced_range_is_a_noop() {
        let mut d = SimDisk::new();
        assert_eq!(d.rot_byte(0, 10), None);
        d.write(b"ab").unwrap();
        d.fsync().unwrap();
        assert_eq!(d.rot_byte(2, 10), None);
    }
}
