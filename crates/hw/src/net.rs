//! Network link model and remote block devices.
//!
//! Aurora can attach a *network backend* to a persistence group: the
//! checkpoint stream is shipped to another host (`sls send` / `sls recv`,
//! replication, live migration). We model the paper's 10 GbE fabric as a
//! point-to-point [`LinkModel`] with one-way latency and bandwidth, and a
//! [`RemoteDev`] — a block device reached through such a link — so the
//! same object-store code runs against local and remote media.

use std::sync::Arc;

use aurora_sim::cost::dev as costdev;
use aurora_sim::error::Result;
use aurora_sim::rng::Xoshiro256;
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::{PageData, SimClock};

use crate::dev::{BlockDev, DevInfo, DevStats};
use crate::BLOCK_SIZE;

/// A point-to-point network link.
#[derive(Debug)]
pub struct LinkModel {
    /// One-way propagation + stack latency (ns).
    pub latency_ns: u64,
    /// Usable bandwidth (bytes/sec).
    pub bandwidth: u64,
    clock: Arc<SimClock>,
    busy_until: SimTime,
    /// Total bytes moved over the link.
    pub bytes_moved: u64,
}

impl LinkModel {
    /// Creates a link with explicit parameters.
    pub fn new(clock: Arc<SimClock>, latency_ns: u64, bandwidth: u64) -> Self {
        LinkModel {
            latency_ns,
            bandwidth,
            clock,
            busy_until: SimTime::ZERO,
            bytes_moved: 0,
        }
    }

    /// The paper's 10 GbE NIC (Intel X722-class).
    pub fn ten_gbe(clock: Arc<SimClock>) -> Self {
        LinkModel::new(clock, costdev::NET_LAT_NS, costdev::NET_BW)
    }

    /// Schedules a transfer of `bytes`; returns its arrival instant.
    ///
    /// Transfers pipeline: bandwidth is consumed serially, latency is
    /// added once per message.
    pub fn transfer(&mut self, bytes: u64) -> SimTime {
        self.transfer_from(self.clock.now(), bytes)
    }

    /// Schedules a transfer of `bytes` that cannot start before `at`
    /// (say, a response whose payload is ready then); returns its
    /// arrival instant.
    pub fn transfer_from(&mut self, at: SimTime, bytes: u64) -> SimTime {
        let start = at.max(self.busy_until);
        let serialize = SimDuration::for_bytes(bytes, self.bandwidth);
        self.busy_until = start + serialize;
        self.bytes_moved += bytes;
        // Arrival = fully serialized onto the wire + propagation.
        self.busy_until + SimDuration::from_nanos(self.latency_ns)
    }

    /// Schedules a transfer and waits for its arrival.
    pub fn transfer_sync(&mut self, bytes: u64) {
        let arrive = self.transfer(bytes);
        self.clock.advance_to(arrive);
    }

    /// One round trip of small control messages.
    pub fn rtt(&self) -> SimDuration {
        SimDuration::from_nanos(self.latency_ns * 2)
    }
}

/// Per-message fault probabilities for a [`ReplLink`], in parts per
/// million, applied independently to every message offered to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaultRates {
    /// Silently drop the message.
    pub drop_ppm: u32,
    /// Deliver the message twice.
    pub dup_ppm: u32,
    /// Hold the message and deliver it *after* the next one.
    pub reorder_ppm: u32,
    /// Begin a transient partition: this message and the next
    /// `partition_msgs - 1` offered messages are all lost.
    pub partition_ppm: u32,
    /// Length of a transient partition, in swallowed messages.
    pub partition_msgs: u32,
}

impl LinkFaultRates {
    /// A perfectly behaved link.
    pub fn clean() -> Self {
        LinkFaultRates {
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            partition_ppm: 0,
            partition_msgs: 0,
        }
    }

    /// A mildly lossy WAN-ish link: ~2% drops, 1% dups, 2% reorders.
    pub fn lossy() -> Self {
        LinkFaultRates {
            drop_ppm: 20_000,
            dup_ppm: 10_000,
            reorder_ppm: 20_000,
            partition_ppm: 2_000,
            partition_msgs: 4,
        }
    }

    /// An actively hostile link: ~10% drops, 5% dups, 10% reorders, and
    /// frequent multi-message partitions.
    pub fn hostile() -> Self {
        LinkFaultRates {
            drop_ppm: 100_000,
            dup_ppm: 50_000,
            reorder_ppm: 100_000,
            partition_ppm: 10_000,
            partition_msgs: 8,
        }
    }
}

/// What a [`ReplLink`] did to the messages offered to it.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkStats {
    /// Messages handed to `send`.
    pub offered: u64,
    /// Deliveries produced (a duplicated message counts twice).
    pub delivered: u64,
    /// Messages the link ate (drops + partition losses).
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back and delivered out of order.
    pub reordered: u64,
    /// Transient partitions begun.
    pub partitions: u64,
}

/// One message arriving off a [`ReplLink`] at a virtual instant.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Arrival instant on the receiving side.
    pub at: SimTime,
    /// Message payload.
    pub bytes: Vec<u8>,
}

/// A unidirectional message link with a seeded fault model: drops,
/// duplication, reordering and transient partitions, layered over a
/// [`LinkModel`] for latency/bandwidth cost. The replication protocol's
/// adversary.
///
/// Faults are decided by a deterministic seeded RNG, so a replication
/// run (and any failure it uncovers) replays exactly from its seed.
#[derive(Debug)]
pub struct ReplLink {
    link: LinkModel,
    rates: LinkFaultRates,
    rng: Xoshiro256,
    /// A message held back for reordering, waiting for a successor.
    held: Option<Vec<u8>>,
    /// Messages left to swallow in the current transient partition.
    partition_left: u32,
    /// Fault/delivery accounting.
    pub stats: LinkStats,
}

impl ReplLink {
    /// Builds a faulty link over `link` with the given rates and seed.
    pub fn new(link: LinkModel, rates: LinkFaultRates, seed: u64) -> Self {
        ReplLink {
            link,
            rates,
            rng: Xoshiro256::seed_from(seed ^ 0x5245_504C_4C4E_4B31), // "REPLLNK1"
            held: None,
            partition_left: 0,
            stats: LinkStats::default(),
        }
    }

    /// The underlying cost model (bytes moved, rtt).
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// One control-message round trip on the underlying link.
    pub fn rtt(&self) -> SimDuration {
        self.link.rtt()
    }

    fn roll(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.next_below(1_000_000) < u64::from(ppm)
    }

    fn deliver(&mut self, bytes: &[u8]) -> Delivery {
        self.stats.delivered += 1;
        Delivery {
            at: self.link.transfer(bytes.len() as u64),
            bytes: bytes.to_vec(),
        }
    }

    /// Offers one message to the link; returns zero, one or two
    /// deliveries (plus any previously held message released behind this
    /// one). Dropped messages still consume wire time: the sender paid to
    /// serialize them before the loss.
    pub fn send(&mut self, bytes: &[u8]) -> Vec<Delivery> {
        self.stats.offered += 1;
        let mut out = Vec::new();
        // An ongoing transient partition eats everything.
        if self.partition_left > 0 {
            self.partition_left -= 1;
            self.stats.dropped += 1;
            self.link.transfer(bytes.len() as u64);
            return out;
        }
        if self.roll(self.rates.partition_ppm) {
            self.stats.partitions += 1;
            self.stats.dropped += 1;
            self.partition_left = self.rates.partition_msgs.saturating_sub(1);
            self.link.transfer(bytes.len() as u64);
            return out;
        }
        if self.roll(self.rates.drop_ppm) {
            self.stats.dropped += 1;
            self.link.transfer(bytes.len() as u64);
            return out;
        }
        if self.held.is_none() && self.roll(self.rates.reorder_ppm) {
            // Hold this message; it will ride behind the next survivor.
            self.stats.reordered += 1;
            self.held = Some(bytes.to_vec());
            return out;
        }
        out.push(self.deliver(bytes));
        if self.roll(self.rates.dup_ppm) {
            self.stats.duplicated += 1;
            out.push(self.deliver(bytes));
        }
        if let Some(h) = self.held.take() {
            out.push(self.deliver(&h));
        }
        out
    }

    /// Releases a held (reordered) message, if any — the link's "idle
    /// flush", so a reordered final message is not lost forever.
    pub fn flush_held(&mut self) -> Vec<Delivery> {
        match self.held.take() {
            Some(h) => vec![self.deliver(&h)],
            None => Vec::new(),
        }
    }
}

/// A block device on the far side of a network link.
///
/// Every request first crosses the link (charging latency + bandwidth for
/// the payload in the appropriate direction), then runs against the inner
/// device. This is the substrate for remote persistence groups.
pub struct RemoteDev<D: BlockDev> {
    link: LinkModel,
    inner: D,
}

impl<D: BlockDev> RemoteDev<D> {
    /// Wraps `inner` behind `link`.
    pub fn new(link: LinkModel, inner: D) -> Self {
        RemoteDev { link, inner }
    }

    /// Access to the link (for stats).
    pub fn link(&self) -> &LinkModel {
        &self.link
    }
}

impl<D: BlockDev> BlockDev for RemoteDev<D> {
    fn info(&self) -> &DevInfo {
        self.inner.info()
    }

    fn stats(&self) -> &DevStats {
        self.inner.stats()
    }

    fn read_blocks(&mut self, lba: u64, bufs: &mut [PageData]) -> Result<SimTime> {
        // One small request out, one response carrying the whole extent
        // back: like `write_blocks`, the extent is one message each way.
        // The device serves the request once it arrives, so its service
        // time counts from the arrival.
        let sent = self.link.transfer(64).since(self.link.clock.now());
        let read = self.inner.read_blocks(lba, bufs)? + sent;
        Ok(self
            .link
            .transfer_from(read, (bufs.len() * BLOCK_SIZE) as u64))
    }

    fn write_blocks(&mut self, lba: u64, blocks: &[PageData]) -> Result<SimTime> {
        // The whole extent crosses the wire as one message — coalescing
        // saves per-message latency on the link as well as on the device.
        let total: u64 = blocks.iter().map(|b| b.byte_len() as u64).sum();
        let arrive = self.link.transfer(total);
        let dev_done = self.inner.write_blocks(lba, blocks)?;
        Ok(dev_done.max(arrive))
    }

    fn flush(&mut self) -> Result<SimTime> {
        let cmd_arrive = self.link.transfer(64);
        let dev_done = self.inner.flush()?;
        // The durability acknowledgement has to travel back.
        Ok(dev_done.max(cmd_arrive) + SimDuration::from_nanos(self.link.latency_ns))
    }

    fn submit_write_timing(&mut self, nbytes: u64) -> Result<SimTime> {
        let arrive = self.link.transfer(nbytes);
        let dev_done = self.inner.submit_write_timing(nbytes)?;
        Ok(dev_done.max(arrive))
    }

    fn charge_read_timing(&mut self, nbytes: u64) -> Result<SimTime> {
        let sent = self.link.transfer(64).since(self.link.clock.now());
        let read = self.inner.charge_read_timing(nbytes)? + sent;
        Ok(self.link.transfer_from(read, nbytes))
    }

    fn power_fail(&mut self) {
        self.inner.power_fail();
    }

    fn power_on(&mut self) {
        self.inner.power_on();
    }

    fn powered(&self) -> bool {
        self.inner.powered()
    }

    fn clock(&self) -> &std::sync::Arc<SimClock> {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::test_io::{read, write};
    use crate::dev::ModelDev;
    use crate::BLOCK_SIZE;

    #[test]
    fn link_pipelines_transfers() {
        let clock = SimClock::new();
        let mut link = LinkModel::ten_gbe(clock.clone());
        let a = link.transfer(1_000_000);
        let b = link.transfer(1_000_000);
        assert!(b > a, "second message serializes behind the first");
        assert_eq!(link.bytes_moved, 2_000_000);
    }

    #[test]
    fn remote_write_costs_more_than_local() {
        let clock = SimClock::new();
        let mut local = ModelDev::nvme(clock.clone(), "nvme-local", 256);
        let remote_clock = clock.clone();
        let mut remote = RemoteDev::new(
            LinkModel::ten_gbe(remote_clock.clone()),
            ModelDev::nvme(remote_clock, "nvme-remote", 256),
        );
        let data = vec![7u8; BLOCK_SIZE];

        let t0 = clock.now();
        write(&mut local, 0, &data).unwrap();
        let local_cost = clock.now().since(t0);

        let t1 = clock.now();
        write(&mut remote, 0, &data).unwrap();
        let remote_cost = clock.now().since(t1);

        assert!(
            remote_cost > local_cost,
            "remote {remote_cost} <= local {local_cost}"
        );
    }

    #[test]
    fn remote_read_roundtrips_data() {
        let clock = SimClock::new();
        let mut remote = RemoteDev::new(
            LinkModel::ten_gbe(clock.clone()),
            ModelDev::nvme(clock, "nvme-remote", 64),
        );
        let data = vec![0x5Au8; BLOCK_SIZE];
        write(&mut remote, 3, &data).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut remote, 3, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn link_busy_until_serializes_back_to_back_transfers() {
        let clock = SimClock::new();
        let mut link = LinkModel::new(clock.clone(), 1_000, 1_000_000_000);
        // 1 MB at 1 GB/s serializes in exactly 1 ms; arrival adds the
        // 1 µs one-way latency once per message.
        let a = link.transfer(1_000_000);
        assert_eq!(a.since(SimTime::ZERO).as_nanos(), 1_000_000 + 1_000);
        // Second message starts only after the first leaves the wire:
        // serialization intervals are disjoint, latency still counted once.
        let b = link.transfer(1_000_000);
        assert_eq!(b.since(SimTime::ZERO).as_nanos(), 2_000_000 + 1_000);
        // After the wire drains, a fresh transfer starts at `now`, not at
        // the stale busy_until.
        clock.advance_to(SimTime::ZERO + SimDuration::from_nanos(10_000_000));
        let c = link.transfer(1_000_000);
        assert_eq!(c.since(SimTime::ZERO).as_nanos(), 11_000_000 + 1_000);
        assert_eq!(link.bytes_moved, 3_000_000);
    }

    #[test]
    fn link_rtt_is_twice_one_way_latency() {
        let clock = SimClock::new();
        let link = LinkModel::new(clock.clone(), 25_000, 1_000_000_000);
        assert_eq!(link.rtt().as_nanos(), 50_000);
        assert_eq!(
            LinkModel::ten_gbe(clock).rtt().as_nanos(),
            2 * costdev::NET_LAT_NS
        );
    }

    #[test]
    fn remote_dev_accounts_wire_bytes_per_direction() {
        let clock = SimClock::new();
        let mut remote = RemoteDev::new(
            LinkModel::ten_gbe(clock.clone()),
            ModelDev::nvme(clock, "nvme-remote", 64),
        );
        let data = vec![9u8; BLOCK_SIZE];
        write(&mut remote, 0, &data).unwrap();
        // A write ships exactly the payload.
        assert_eq!(remote.link().bytes_moved, BLOCK_SIZE as u64);
        let mut buf = vec![0u8; BLOCK_SIZE];
        read(&mut remote, 0, &mut buf).unwrap();
        // A read adds a 64-byte request plus the payload response.
        assert_eq!(remote.link().bytes_moved, 2 * BLOCK_SIZE as u64 + 64);
        remote.flush().unwrap();
        // A flush adds only the 64-byte command (the ack is pure latency).
        assert_eq!(remote.link().bytes_moved, 2 * BLOCK_SIZE as u64 + 128);
    }

    #[test]
    fn repl_link_clean_delivers_everything_in_order() {
        let clock = SimClock::new();
        let mut link = ReplLink::new(
            LinkModel::ten_gbe(clock),
            LinkFaultRates::clean(),
            7,
        );
        let mut arrivals = Vec::new();
        for i in 0u8..10 {
            for d in link.send(&[i; 100]) {
                arrivals.push((d.at, d.bytes[0]));
            }
        }
        assert_eq!(arrivals.len(), 10);
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(arrivals, sorted, "clean link preserves order");
        assert_eq!(link.stats.offered, 10);
        assert_eq!(link.stats.delivered, 10);
        assert_eq!(link.stats.dropped, 0);
    }

    #[test]
    fn repl_link_faults_are_seed_deterministic() {
        let run = |seed: u64| {
            let clock = SimClock::new();
            let mut link = ReplLink::new(
                LinkModel::ten_gbe(clock),
                LinkFaultRates::hostile(),
                seed,
            );
            let mut log = Vec::new();
            for i in 0u8..200 {
                for d in link.send(&[i; 64]) {
                    log.push((d.at, d.bytes[0]));
                }
            }
            (log, link.stats)
        };
        let (log_a, stats_a) = run(42);
        let (log_b, stats_b) = run(42);
        assert_eq!(log_a, log_b, "same seed replays identically");
        assert_eq!(stats_a.dropped, stats_b.dropped);
        let (log_c, _) = run(43);
        assert_ne!(log_a, log_c, "different seed differs");
        // A hostile link at these rates must actually misbehave.
        assert!(stats_a.dropped > 0, "expected drops: {stats_a:?}");
        assert!(stats_a.duplicated > 0, "expected dups: {stats_a:?}");
        assert!(stats_a.reordered > 0, "expected reorders: {stats_a:?}");
        // Conservation: every offered message is delivered, dropped, or
        // still held for reordering (at most one); duplicates add extras.
        let still_held = stats_a.offered + stats_a.duplicated
            - stats_a.delivered
            - stats_a.dropped;
        assert!(still_held <= 1, "at most one message held: {stats_a:?}");
    }

    #[test]
    fn repl_link_flush_held_releases_reordered_tail() {
        let clock = SimClock::new();
        // Reorder-only link: every message is a candidate to be held.
        let rates = LinkFaultRates {
            reorder_ppm: 1_000_000,
            ..LinkFaultRates::clean()
        };
        let mut link = ReplLink::new(LinkModel::ten_gbe(clock), rates, 1);
        // First send is always held (held slot empty + certain reorder).
        assert!(link.send(b"tail").is_empty());
        let out = link.flush_held();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, b"tail");
        assert!(link.flush_held().is_empty());
    }

    #[test]
    fn repl_link_partition_swallows_a_run_of_messages() {
        let clock = SimClock::new();
        let rates = LinkFaultRates {
            partition_ppm: 1_000_000, // every message starts a partition
            partition_msgs: 3,
            ..LinkFaultRates::clean()
        };
        let mut link = ReplLink::new(LinkModel::ten_gbe(clock), rates, 5);
        for i in 0u8..6 {
            assert!(link.send(&[i]).is_empty(), "partition eats msg {i}");
        }
        // Six messages = two back-to-back 3-message partitions.
        assert_eq!(link.stats.partitions, 2);
        assert_eq!(link.stats.dropped, 6);
        assert_eq!(link.stats.delivered, 0);
    }

    #[test]
    fn remote_flush_includes_ack_latency() {
        let clock = SimClock::new();
        let mut remote = RemoteDev::new(
            LinkModel::ten_gbe(clock.clone()),
            ModelDev::nvme(clock.clone(), "nvme-remote", 64),
        );
        write(&mut remote, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let durable = remote.flush().unwrap();
        // Ack must arrive at least one link latency after "now".
        assert!(durable.since(clock.now()).as_nanos() >= costdev::NET_LAT_NS);
    }
}
