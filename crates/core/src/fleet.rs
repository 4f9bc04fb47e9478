//! Fleet-scale tenant scheduler: pipelined per-group checkpoint cycles.
//!
//! The serverless warm-start story (§4 of the paper) runs thousands of
//! tenants, each checkpointed at high rate. A single global barrier
//! serializes the whole fleet on one cycle at a time, so the sharded
//! hash/dedup/coalesce pipeline and the delta log idle while unrelated
//! tenants queue — the aggregation bottleneck stdchk identifies for
//! checkpoint storage. This module overlaps tenants in virtual time
//! while keeping the exclusion correctness actually needs:
//!
//! * **one driving thread** — the host runs every cycle on the thread
//!   that holds `&mut Host`, so one group's cycles exclude each other
//!   and a store shared by several groups sees one typestate commit
//!   (append → flush) at a time through its `RefCell` borrow
//!   and `ObjectStore::commit(&mut self)`;
//! * a [`FleetScheduler`] — a bounded run queue of in-flight flushes
//!   plus a set of hash-lane horizons. Admission retires the oldest
//!   flush when the queue is full; a pipelined flush's hash stage
//!   occupies the earliest-free lane instead of charging the driving
//!   thread's clock, which is exactly the idle capacity the serialized
//!   fleet wastes.
//!
//! Commit-ordering argument: cycles run one after the other on the
//! driving thread, so a group's backends' chains grow in cycle order,
//! and a shared store's journal is a clean
//! interleaving of whole commits. The overlap between tenants is
//! modelled in virtual time by the hash lanes, not by host threads.
//! Durability is per-cycle (`durable_at` = max over backends and the
//! hash lane), so external-consistency release never observes another
//! tenant's cycle.
//!
//! **Fault domains.** Every tenant additionally carries a
//! [`TenantDomain`]: a health state machine
//! (`Healthy → Degraded → Quarantined`, mirroring the mirror layer's
//! replica states) driven by checkpoint outcomes, per-cycle deadlines
//! on the virtual clock, and consecutive-failure counters. A
//! quarantined tenant's cycles are skipped before the group is ever
//! stopped and its in-flight lane bookings are released, so one
//! sick tenant cannot back up the shared run queue — the rest of the
//! fleet proceeds. Re-admission is probed with capped exponential
//! backoff, gated on the tenant's backing devices
//! ([`aurora_hw::ResilientDev`] health / mirror degradation) looking
//! healthy again; the first committed on-time probe re-admits the
//! tenant. The admission gate consults the table before the group is
//! stopped and the verdict is recorded after the cycle ends.

use std::collections::{BTreeMap, VecDeque};

use aurora_hw::DevHealth;
use aurora_sim::error::Result;
use aurora_sim::stats::LogHistogram;
use aurora_sim::time::{SimDuration, SimTime};
use aurora_sim::SimClock;

use crate::group::GroupId;
use crate::metrics::{CheckpointBreakdown, CheckpointOutcome};
use crate::Host;

/// How `flush_capture` accounts for the hash stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushMode {
    /// Charge the hash stage to the driving thread's clock (the classic
    /// serialized cycle: capture, hash, flush, commit, one after the
    /// other).
    Inline,
    /// Book the hash stage on a fleet-scheduler lane horizon; the
    /// driving thread moves on to the next tenant and the cycle's
    /// durable instant waits for the lane.
    Pipelined,
}

/// Health of one tenant's fault domain, mirroring the replica states
/// of the mirror layer: healthy tenants cycle normally, degraded
/// tenants failed recently but still cycle, quarantined tenants are
/// skipped until a re-admission probe succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TenantHealth {
    /// Cycling normally.
    #[default]
    Healthy,
    /// At least one recent cycle failed or missed its deadline; still
    /// cycling, [`QUARANTINE_AFTER`] consecutive failures away from
    /// quarantine.
    Degraded,
    /// Cycles are skipped (the group is never stopped);
    /// re-admission is probed with capped exponential backoff once the
    /// backing devices report healthy again.
    Quarantined,
}

impl TenantHealth {
    /// Short lowercase label for logs and the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            TenantHealth::Healthy => "healthy",
            TenantHealth::Degraded => "degraded",
            TenantHealth::Quarantined => "quarantined",
        }
    }
}

/// Consecutive failed cycles (aborts, hard errors, deadline misses, or
/// damaged-base degradations) before a tenant is quarantined. The
/// first failure already marks it `Degraded`.
pub const QUARANTINE_AFTER: u32 = 3;

/// Initial re-admission probe backoff after entering quarantine.
pub const PROBE_BACKOFF_BASE: SimDuration = SimDuration::from_millis(10);

/// Cap on the re-admission probe backoff (capped exponential: the
/// backoff doubles per failed or deferred probe up to this bound).
pub const PROBE_BACKOFF_CAP: SimDuration = SimDuration::from_secs(1);

/// Default per-cycle deadline on the virtual clock: generous next to a
/// healthy cycle (microseconds to low milliseconds) so only genuinely
/// pathological tenants — wedged flushes, latency-spiking devices —
/// miss it.
pub const DEFAULT_CYCLE_DEADLINE: SimDuration = SimDuration::from_millis(250);

/// Bound on the per-tenant fault log retained in [`FleetStats`].
const TENANT_FAULT_LOG_CAP: usize = 32;

/// One tenant's fault-domain record (snapshot via
/// [`FleetScheduler::domain`] / [`Host::fleet_health`]).
#[derive(Debug, Clone)]
pub struct TenantDomain {
    /// Current health state.
    pub health: TenantHealth,
    /// Consecutive failed cycles; reset by an on-time commit.
    pub consecutive_failures: u32,
    /// Total failed cycles charged to this tenant.
    pub failures: u64,
    /// Committed cycles that blew the virtual-clock deadline.
    pub deadline_misses: u64,
    /// Cycles skipped while quarantined.
    pub cycles_skipped: u64,
    /// Times this tenant entered quarantine.
    pub quarantines: u64,
    /// Times a probe cycle re-admitted this tenant.
    pub readmissions: u64,
    /// Earliest instant the next re-admission probe may run.
    pub next_probe: SimTime,
    /// Current probe backoff.
    pub backoff: SimDuration,
    /// Most recent fault charged to this tenant.
    pub last_fault: Option<String>,
}

impl Default for TenantDomain {
    fn default() -> Self {
        TenantDomain {
            health: TenantHealth::Healthy,
            consecutive_failures: 0,
            failures: 0,
            deadline_misses: 0,
            cycles_skipped: 0,
            quarantines: 0,
            readmissions: 0,
            next_probe: SimTime::ZERO,
            backoff: PROBE_BACKOFF_BASE,
            last_fault: None,
        }
    }
}

/// Admission decision for one tenant's cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CycleGate {
    /// Run the cycle; `probing` marks a quarantined tenant's
    /// re-admission attempt.
    Run { probing: bool },
    /// Quarantined and not yet eligible to probe: skip the cycle
    /// entirely; the next probe is due at `until`.
    Skip { until: SimTime },
}

/// Doubles a probe backoff, capped at [`PROBE_BACKOFF_CAP`].
fn cap_backoff(b: SimDuration) -> SimDuration {
    let doubled = b + b;
    if doubled.as_nanos() > PROBE_BACKOFF_CAP.as_nanos() {
        PROBE_BACKOFF_CAP
    } else {
        doubled
    }
}

/// Appends to the bounded per-tenant fault log.
fn push_fault(log: &mut Vec<(u32, String)>, gid: u32, fault: &str) {
    if log.len() >= TENANT_FAULT_LOG_CAP {
        log.remove(0);
    }
    log.push((gid, fault.to_string()));
}

/// Telemetry of the fleet scheduler. Per-tenant health counts live in
/// each tenant's [`TenantDomain`]; fleet-wide totals are their sums.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Cycles admitted through the pipelined path.
    pub admitted: u64,
    /// Admitted cycles that overlapped at least one in-flight flush.
    pub overlapped: u64,
    /// Admissions that stalled on a full run queue (the oldest flush
    /// had to retire first).
    pub queue_stalls: u64,
    /// High-water mark of the in-flight queue depth.
    pub queue_depth_max: u64,
    /// Per-tenant stop times of pipelined cycles, in sim ns.
    pub stop_hist: LogHistogram,
    /// In-flight lane bookings released when their tenant was
    /// quarantined.
    pub bookings_released: u64,
    /// Recent per-tenant faults, bounded; drained (and returned) by
    /// [`Host::fleet_drain`] instead of being dropped on the floor.
    pub tenant_faults: Vec<(u32, String)>,
}

/// Pipelines checkpoint cycles across tenants.
///
/// The scheduler holds two pieces of virtual-time state: the bounded
/// queue of in-flight flushes (group id, durable instant) and the
/// per-lane horizons of the hash stage. It is rebuilt empty on reboot —
/// in-flight flushes die with the machine like any other undurable
/// state.
#[derive(Debug, Clone)]
pub struct FleetScheduler {
    /// In-flight flushes the run queue admits before stalling a
    /// capture on the oldest drain.
    pub queue_cap: usize,
    /// Hash lanes available to overlapped flushes: the idle cores a
    /// serialized fleet leaves unused while one tenant's cycle runs.
    pub hash_lanes: usize,
    /// Per-cycle deadline on the virtual clock: a committed cycle
    /// whose durable instant lands later than admission + deadline is
    /// charged as a deadline miss against its tenant's fault domain.
    pub cycle_deadline: SimDuration,
    /// Busy-until horizon per hash lane.
    lanes: Vec<SimTime>,
    /// In-flight flushes, oldest first: `(group id, durable instant)`.
    inflight: VecDeque<(u32, SimTime)>,
    /// Per-tenant fault domains, keyed by group id (consulted by the
    /// admission gate before the group is stopped).
    health: BTreeMap<u32, TenantDomain>,
    /// Counters.
    pub stats: FleetStats,
}

/// Default bound on in-flight flushes.
pub const DEFAULT_FLEET_QUEUE_CAP: usize = 32;

/// Default hash-lane count for overlapped flushes.
pub const DEFAULT_HASH_LANES: usize = 4;

impl Default for FleetScheduler {
    fn default() -> Self {
        FleetScheduler::new()
    }
}

impl FleetScheduler {
    /// A scheduler with the default queue bound and lane count.
    pub fn new() -> FleetScheduler {
        FleetScheduler {
            queue_cap: DEFAULT_FLEET_QUEUE_CAP,
            hash_lanes: DEFAULT_HASH_LANES,
            cycle_deadline: DEFAULT_CYCLE_DEADLINE,
            lanes: Vec::new(),
            inflight: VecDeque::new(),
            health: BTreeMap::new(),
            stats: FleetStats::default(),
        }
    }

    /// A fresh scheduler carrying this one's configuration (reboot:
    /// runtime state — in-flight flushes, health, quarantines — is
    /// lost, tuning survives; group ids are never reused, so a rebooted
    /// fleet re-registers under fresh fault domains).
    pub(crate) fn fresh_config(&self) -> FleetScheduler {
        FleetScheduler {
            queue_cap: self.queue_cap,
            hash_lanes: self.hash_lanes,
            cycle_deadline: self.cycle_deadline,
            ..FleetScheduler::new()
        }
    }

    /// Current in-flight flush count.
    pub fn queue_depth(&self) -> usize {
        self.inflight.len()
    }

    /// Admits a capture: retires already-durable flushes for free, then
    /// — if the queue is still full — advances the clock to the oldest
    /// flush's durable instant and retires it.
    pub(crate) fn admit(&mut self, clock: &SimClock) {
        let now = clock.now();
        while matches!(self.inflight.front(), Some(&(_, at)) if at <= now) {
            self.inflight.pop_front();
        }
        while self.inflight.len() >= self.queue_cap.max(1) {
            if let Some((_, at)) = self.inflight.pop_front() {
                clock.advance_to(at);
                self.stats.queue_stalls += 1;
            }
        }
        self.stats.admitted += 1;
        if !self.inflight.is_empty() {
            self.stats.overlapped += 1;
        }
    }

    /// Books `cost` on the earliest-free hash lane at or after `now`;
    /// returns the lane's completion instant. A flush with nothing to
    /// hash books no lane and never waits behind other tenants' work.
    pub(crate) fn hash_slot(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        if cost == SimDuration::ZERO {
            return now;
        }
        self.lanes.resize(self.hash_lanes.max(1), SimTime::ZERO);
        let lane = match self
            .lanes
            .iter_mut()
            .min_by_key(|horizon| horizon.as_nanos())
        {
            Some(l) => l,
            // Unreachable: resize above guarantees at least one lane.
            None => return now + cost,
        };
        let start = now.max(*lane);
        let done = start + cost;
        *lane = done;
        done
    }

    /// Records a committed pipelined cycle.
    pub(crate) fn complete(&mut self, gid: u32, durable: SimTime, stop: SimDuration) {
        self.inflight.push_back((gid, durable));
        self.stats.queue_depth_max = self.stats.queue_depth_max.max(self.inflight.len() as u64);
        self.stats.stop_hist.record_duration(stop);
    }

    /// Advances the clock past every in-flight flush and empties the
    /// queue.
    pub(crate) fn drain(&mut self, clock: &SimClock) {
        if let Some(at) = self.inflight.iter().map(|&(_, at)| at).max() {
            clock.advance_to(at);
        }
        self.inflight.clear();
    }

    /// Snapshot of one tenant's fault domain (default-healthy when the
    /// scheduler has not seen the tenant yet).
    pub fn domain(&self, gid: u32) -> TenantDomain {
        self.health.get(&gid).cloned().unwrap_or_default()
    }

    /// Snapshots of every tenant fault domain, sorted by group id.
    pub fn domains(&self) -> Vec<(u32, TenantDomain)> {
        self.health.iter().map(|(&g, d)| (g, d.clone())).collect()
    }

    /// Current health of one tenant.
    pub fn health_of(&self, gid: u32) -> TenantHealth {
        self.domain(gid).health
    }

    /// Admission gate: consulted before a cycle stops its group. A
    /// quarantined tenant runs only when its probe backoff elapsed.
    pub(crate) fn gate(&self, gid: u32, now: SimTime) -> CycleGate {
        match self.health.get(&gid) {
            Some(d) if d.health == TenantHealth::Quarantined => {
                if now < d.next_probe {
                    CycleGate::Skip {
                        until: d.next_probe,
                    }
                } else {
                    CycleGate::Run { probing: true }
                }
            }
            _ => CycleGate::Run { probing: false },
        }
    }

    /// Records a cycle skipped under quarantine.
    pub(crate) fn record_skip(&mut self, gid: u32) {
        self.health.entry(gid).or_default().cycles_skipped += 1;
    }

    /// Defers a quarantined tenant's re-admission probe because its
    /// backing devices are still sick: doubles the backoff (capped)
    /// and returns the new probe instant.
    pub(crate) fn defer_probe(&mut self, gid: u32, now: SimTime, why: &str) -> SimTime {
        let d = self.health.entry(gid).or_default();
        d.last_fault = Some(format!("probe deferred: {why}"));
        d.next_probe = now + d.backoff;
        d.backoff = cap_backoff(d.backoff);
        d.next_probe
    }

    /// Releases every in-flight lane booking of `gid`: the rest of the
    /// fleet must not stall its admissions on a quarantined tenant's
    /// flushes. Returns the number of bookings released.
    pub(crate) fn release(&mut self, gid: u32) -> usize {
        let before = self.inflight.len();
        self.inflight.retain(|&(g, _)| g != gid);
        let released = before - self.inflight.len();
        self.stats.bookings_released += released as u64;
        released
    }

    /// Operator/test entry: quarantines `gid` immediately, as if its
    /// failure counter had crossed [`QUARANTINE_AFTER`]. The first
    /// re-admission probe is eligible one backoff from `now`.
    pub fn quarantine(&mut self, gid: u32, now: SimTime, reason: &str) {
        let d = self.health.entry(gid).or_default();
        if d.health == TenantHealth::Quarantined {
            return;
        }
        d.health = TenantHealth::Quarantined;
        d.quarantines += 1;
        d.backoff = PROBE_BACKOFF_BASE;
        d.next_probe = now + d.backoff;
        d.last_fault = Some(format!("operator quarantine: {reason}"));
        self.release(gid);
    }

    /// Records one cycle's outcome against its tenant's fault domain
    /// and runs the health state machine.
    ///
    /// A cycle succeeds when it committed, met the deadline, and did
    /// not find its base damaged; anything else is a failure. One
    /// failure degrades the tenant, [`QUARANTINE_AFTER`] consecutive
    /// failures quarantine it, and a failed probe doubles the backoff
    /// (capped). An on-time clean commit resets the counter — and
    /// re-admits a probing quarantined tenant. Returns the tenant's
    /// health after the cycle.
    pub(crate) fn record_cycle(
        &mut self,
        gid: u32,
        now: SimTime,
        committed: bool,
        on_time: bool,
        base_damaged: bool,
        fault: Option<&str>,
    ) -> TenantHealth {
        let deadline_missed = committed && !on_time;
        let ok = committed && on_time && !base_damaged;
        let fault = fault.unwrap_or(if deadline_missed {
            "cycle deadline missed"
        } else {
            "cycle failed"
        });
        let mut quarantined_now = false;
        let health = {
            let d = self.health.entry(gid).or_default();
            if ok {
                if d.health == TenantHealth::Quarantined {
                    d.readmissions += 1;
                }
                d.health = TenantHealth::Healthy;
                d.consecutive_failures = 0;
                d.backoff = PROBE_BACKOFF_BASE;
                d.last_fault = None;
            } else {
                d.failures += 1;
                d.consecutive_failures += 1;
                if deadline_missed {
                    d.deadline_misses += 1;
                }
                d.last_fault = Some(fault.to_string());
                if d.health == TenantHealth::Quarantined {
                    // Failed probe: stay quarantined, back off harder.
                    d.next_probe = now + d.backoff;
                    d.backoff = cap_backoff(d.backoff);
                } else if d.consecutive_failures >= QUARANTINE_AFTER {
                    d.health = TenantHealth::Quarantined;
                    d.quarantines += 1;
                    d.backoff = PROBE_BACKOFF_BASE;
                    d.next_probe = now + d.backoff;
                    quarantined_now = true;
                } else {
                    d.health = TenantHealth::Degraded;
                }
            }
            d.health
        };
        if !ok {
            push_fault(&mut self.stats.tenant_faults, gid, fault);
        }
        if quarantined_now {
            self.release(gid);
        }
        health
    }

    /// Drains (and returns) the bounded per-tenant fault log.
    pub(crate) fn take_faults(&mut self) -> Vec<(u32, String)> {
        std::mem::take(&mut self.stats.tenant_faults)
    }
}

/// One tenant's outcome within a fleet sweep: the breakdown of its
/// cycle (committed, degraded, aborted, or a quarantine skip), or the
/// hard error it failed with. One tenant's error never aborts the
/// sweep for the others.
#[derive(Debug)]
pub struct TenantCycle {
    /// The tenant's group.
    pub gid: GroupId,
    /// Its cycle's result.
    pub result: Result<CheckpointBreakdown>,
}

/// Per-tenant outcomes of one fleet sweep ([`Host::checkpoint_all`]).
#[derive(Debug, Default)]
pub struct FleetSweep {
    /// One entry per requested tenant, in request order.
    pub cycles: Vec<TenantCycle>,
}

impl FleetSweep {
    /// Tenants whose cycle committed a new durable checkpoint.
    pub fn committed(&self) -> usize {
        self.cycles
            .iter()
            .filter(|c| matches!(&c.result, Ok(b) if b.outcome.committed()))
            .count()
    }

    /// Tenants whose cycle was skipped under quarantine.
    pub fn skipped(&self) -> usize {
        self.cycles
            .iter()
            .filter(|c| matches!(&c.result, Ok(b) if b.outcome == CheckpointOutcome::Quarantined))
            .count()
    }

    /// Tenants whose cycle returned a hard error, with the error text.
    pub fn errors(&self) -> Vec<(GroupId, String)> {
        self.cycles
            .iter()
            .filter_map(|c| match &c.result {
                Err(e) => Some((c.gid, e.to_string())),
                Ok(_) => None,
            })
            .collect()
    }
}

impl Host {
    /// A breakdown for a cycle skipped under quarantine: the group was
    /// never stopped, no checkpoint exists, the previous durable snapshot is
    /// untouched.
    fn quarantined_breakdown(until: SimTime) -> CheckpointBreakdown {
        CheckpointBreakdown {
            outcome: CheckpointOutcome::Quarantined,
            fault: Some(format!(
                "tenant quarantined; next re-admission probe at {} ns",
                until.as_nanos()
            )),
            ..CheckpointBreakdown::default()
        }
    }

    /// Why `gid`'s backing devices are not yet fit for a re-admission
    /// probe, if they are not: any backend device reporting worse than
    /// healthy, or a mirror running degraded.
    fn tenant_backend_sick(&self, gid: GroupId) -> Option<String> {
        let group = self.sls.group_ref(gid).ok()?;
        for (i, b) in group.backends.iter().enumerate() {
            let store = b.store.borrow();
            let dev = store.device();
            let health = dev.health();
            if health != DevHealth::Healthy {
                return Some(format!("backend {i} device {}", health.as_str()));
            }
            if dev.as_mirror().is_some_and(|m| m.is_degraded()) {
                return Some(format!("backend {i} mirror degraded"));
            }
        }
        None
    }

    /// Per-tenant fault-domain snapshots of every tenant the fleet
    /// scheduler has seen, sorted by group id.
    pub fn fleet_health(&self) -> Vec<(u32, TenantDomain)> {
        self.sls.fleet.domains()
    }

    /// One tenant's fault-domain snapshot (default-healthy when the
    /// scheduler has not seen it yet).
    pub fn tenant_domain(&self, gid: GroupId) -> TenantDomain {
        self.sls.fleet.domain(gid.0)
    }

    /// Takes a pipelined checkpoint of one tenant: admission through the
    /// fleet scheduler's run queue, capture while the group is stopped,
    /// hash on a scheduler lane, then one commit per backend store. The
    /// returned breakdown's `durable_at` gates this cycle exactly like
    /// the serialized path; use [`Host::fleet_drain`] (or
    /// [`Host::wait_durable`]) to wait it out.
    ///
    /// The cycle runs inside the tenant's fault domain: a quarantined
    /// tenant's cycle is skipped (outcome
    /// [`CheckpointOutcome::Quarantined`], the group never stopped) until its
    /// probe backoff elapses *and* its backing devices report healthy;
    /// failures, deadline misses and damaged-base degradations are
    /// charged against the tenant's health.
    pub fn checkpoint_pipelined(
        &mut self,
        gid: GroupId,
        full: bool,
        name: Option<&str>,
    ) -> Result<CheckpointBreakdown> {
        let now = self.clock.now();
        let probing = match self.sls.fleet.gate(gid.0, now) {
            CycleGate::Run { probing } => probing,
            CycleGate::Skip { until } => {
                self.sls.fleet.record_skip(gid.0);
                return Ok(Self::quarantined_breakdown(until));
            }
        };
        if probing {
            // Probe only hardware that has actually recovered; a probe
            // against a still-dead device would burn a cycle and keep
            // the backoff doubling for nothing.
            if let Some(why) = self.tenant_backend_sick(gid) {
                let until = self.sls.fleet.defer_probe(gid.0, now, &why);
                self.sls.fleet.record_skip(gid.0);
                return Ok(Self::quarantined_breakdown(until));
            }
        }
        self.sls.fleet.admit(&self.clock);
        let admitted_at = self.clock.now();
        let breakdown = match self.checkpoint_mode(gid, full, name, FlushMode::Pipelined) {
            Ok(b) => b,
            Err(e) => {
                // A hard error is a per-tenant fault, not a fleet
                // fault: charge the domain, keep the error for the
                // caller, and let the rest of the fleet proceed.
                self.sls.fleet.record_cycle(
                    gid.0,
                    self.clock.now(),
                    false,
                    true,
                    false,
                    Some(&e.to_string()),
                );
                return Err(e);
            }
        };
        if breakdown.outcome.committed() {
            self.sls
                .fleet
                .complete(gid.0, breakdown.durable_at, breakdown.stop_time);
        }
        // Per-cycle deadline on the virtual clock: admission to the
        // durable instant. Aborted cycles are failures in their own
        // right and are not additionally charged as deadline misses.
        let on_time = !breakdown.outcome.committed()
            || breakdown.durable_at <= admitted_at + self.sls.fleet.cycle_deadline;
        self.sls.fleet.record_cycle(
            gid.0,
            self.clock.now(),
            breakdown.outcome.committed(),
            on_time,
            breakdown.base_damaged,
            breakdown.fault.as_deref(),
        );
        Ok(breakdown)
    }

    /// Checkpoints a wave of tenants through the scheduler, incremental
    /// by default (`full` forces full captures). Captures interleave
    /// with earlier tenants' flushes; nothing waits for global
    /// durability — drain explicitly when the wave must be on disk.
    ///
    /// The sweep never aborts early: every tenant gets its cycle and
    /// the [`FleetSweep`] carries each one's outcome — committed
    /// breakdowns, quarantine skips, and hard errors alike.
    pub fn checkpoint_all(&mut self, gids: &[GroupId], full: bool) -> FleetSweep {
        let mut cycles = Vec::with_capacity(gids.len());
        for &gid in gids {
            cycles.push(TenantCycle {
                gid,
                result: self.checkpoint_pipelined(gid, full, None),
            });
        }
        FleetSweep { cycles }
    }

    /// Waits (advances the virtual clock) until every in-flight
    /// pipelined flush is durable, then releases external-consistency
    /// holds. Returns the per-tenant faults recorded since the last
    /// drain — aborts, deadline misses, quarantine transitions — so
    /// sweep drivers see exactly which tenants misbehaved instead of
    /// the faults being dropped on the floor (they are also counted in
    /// each tenant's [`TenantDomain::failures`]).
    pub fn fleet_drain(&mut self) -> Vec<(u32, String)> {
        let clock = self.clock.clone();
        self.sls.fleet.drain(&clock);
        self.poll_durability();
        self.sls.fleet.take_faults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_lanes_overlap_in_virtual_time() {
        let mut f = FleetScheduler::new();
        f.hash_lanes = 2;
        let t0 = SimTime::ZERO;
        let c = SimDuration::from_micros(10);
        // Two flushes at t0 land on distinct lanes: both end at t0+c.
        assert_eq!(f.hash_slot(t0, c), t0 + c);
        assert_eq!(f.hash_slot(t0, c), t0 + c);
        // The third queues behind the earliest lane.
        assert_eq!(f.hash_slot(t0, c), t0 + c + c);
    }

    #[test]
    fn flush_with_nothing_to_hash_books_no_lane() {
        let mut f = FleetScheduler::new();
        f.hash_lanes = 2;
        let t0 = SimTime::ZERO;
        let c = SimDuration::from_micros(10);
        f.hash_slot(t0, c);
        f.hash_slot(t0, c);
        // Both lanes are busy until t0+c; an all-delta flush is done at once
        // and leaves the horizons where they were.
        assert_eq!(f.hash_slot(t0, SimDuration::ZERO), t0);
        assert_eq!(f.hash_slot(t0, c), t0 + c + c);
    }

    #[test]
    fn admit_bounds_the_queue() {
        let clock = SimClock::new();
        let mut f = FleetScheduler::new();
        f.queue_cap = 2;
        f.admit(&clock);
        f.complete(1, SimTime::from_nanos(1_000), SimDuration::from_nanos(10));
        f.admit(&clock);
        f.complete(2, SimTime::from_nanos(2_000), SimDuration::from_nanos(10));
        assert_eq!(f.queue_depth(), 2);
        // The queue is full: the third admission advances the clock to
        // the oldest durable instant and retires it.
        f.admit(&clock);
        assert_eq!(f.queue_depth(), 1);
        assert!(clock.now() >= SimTime::from_nanos(1_000));
        assert_eq!(f.stats.queue_stalls, 1);
        assert_eq!(f.stats.admitted, 3);
        assert_eq!(f.stats.overlapped, 2);
    }

    #[test]
    fn a_cloned_scheduler_owns_its_own_health_table() {
        let mut a = FleetScheduler::new();
        let now = SimTime::from_nanos(1_000);
        let mut b = a.clone();
        b.quarantine(7, now, "x");
        assert_eq!(b.health_of(7), TenantHealth::Quarantined);
        assert_eq!(a.health_of(7), TenantHealth::Healthy);
        a.record_skip(3);
        assert_eq!(b.domain(3).cycles_skipped, 0);
    }

    #[test]
    fn health_machine_walks_degraded_to_quarantine_and_back() {
        let mut f = FleetScheduler::new();
        let now = SimTime::from_nanos(5_000_000);

        // Failures degrade first, then quarantine at the threshold.
        for i in 1..=QUARANTINE_AFTER {
            let health = f.record_cycle(7, now, false, true, false, None);
            assert_eq!(f.domain(7).failures, u64::from(i));
            if i < QUARANTINE_AFTER {
                assert_eq!(health, TenantHealth::Degraded);
                assert_eq!(f.domain(7).quarantines, 0);
            } else {
                assert_eq!(health, TenantHealth::Quarantined);
            }
        }
        let d = f.domain(7);
        assert_eq!(d.consecutive_failures, QUARANTINE_AFTER);
        assert_eq!(d.quarantines, 1);
        assert_eq!(d.next_probe, now + PROBE_BACKOFF_BASE);
        assert_eq!(d.failures, u64::from(QUARANTINE_AFTER));

        // The gate skips until the probe instant, then admits a probe.
        assert!(matches!(
            f.gate(7, now),
            CycleGate::Skip { until } if until == now + PROBE_BACKOFF_BASE
        ));
        let probe_at = now + PROBE_BACKOFF_BASE;
        assert!(matches!(f.gate(7, probe_at), CycleGate::Run { probing: true }));

        // A failed probe stays quarantined and doubles the backoff.
        let health = f.record_cycle(7, probe_at, false, true, false, Some("probe tanked"));
        assert_eq!(health, TenantHealth::Quarantined);
        let d = f.domain(7);
        assert_eq!(d.quarantines, 1);
        assert_eq!(d.next_probe, probe_at + PROBE_BACKOFF_BASE);
        assert_eq!(d.backoff, PROBE_BACKOFF_BASE * 2);
        assert_eq!(d.last_fault.as_deref(), Some("probe tanked"));

        // Backoff doubling is capped.
        let mut b = PROBE_BACKOFF_BASE;
        for _ in 0..20 {
            b = cap_backoff(b);
        }
        assert_eq!(b, PROBE_BACKOFF_CAP);

        // An on-time clean commit re-admits and resets the domain.
        let back = probe_at + PROBE_BACKOFF_BASE * 2;
        let health = f.record_cycle(7, back, true, true, false, None);
        assert_eq!(health, TenantHealth::Healthy);
        let d = f.domain(7);
        assert_eq!(d.consecutive_failures, 0);
        assert_eq!(d.backoff, PROBE_BACKOFF_BASE);
        assert_eq!(d.readmissions, 1);
        assert!(d.last_fault.is_none());
        assert!(matches!(f.gate(7, back), CycleGate::Run { probing: false }));
    }

    #[test]
    fn deadline_misses_and_base_damage_count_as_failures() {
        let mut f = FleetScheduler::new();
        let now = SimTime::from_nanos(1_000_000);

        // A committed-but-late cycle is a deadline miss.
        f.record_cycle(3, now, true, false, false, None);
        let d = f.domain(3);
        assert_eq!((d.failures, d.deadline_misses), (1, 1));
        assert_eq!(d.last_fault.as_deref(), Some("cycle deadline missed"));

        // A commit over a damaged base fails without a deadline miss.
        f.record_cycle(3, now, true, true, true, None);
        let d = f.domain(3);
        assert_eq!((d.failures, d.deadline_misses), (2, 1));

        // The bounded fault log drains both entries.
        let faults = f.take_faults();
        assert_eq!(faults.len(), 2);
        assert!(faults.iter().all(|(g, _)| *g == 3));
        assert!(f.take_faults().is_empty());
    }

    #[test]
    fn quarantine_releases_bookings_so_the_fleet_never_stalls() {
        let clock = SimClock::new();
        let mut f = FleetScheduler::new();
        f.queue_cap = 2;
        // Fill the queue with the doomed tenant's in-flight flushes.
        f.admit(&clock);
        f.complete(9, SimTime::from_nanos(40_000_000), SimDuration::from_nanos(10));
        f.admit(&clock);
        f.complete(9, SimTime::from_nanos(80_000_000), SimDuration::from_nanos(10));
        assert_eq!(f.queue_depth(), 2);

        // Quarantine drops both bookings: the next admission proceeds
        // without stalling on the quarantined tenant's flushes.
        f.quarantine(9, clock.now(), "device wedged");
        assert_eq!(f.queue_depth(), 0);
        assert_eq!(f.stats.bookings_released, 2);
        assert_eq!(f.domain(9).quarantines, 1);
        assert_eq!(f.health_of(9), TenantHealth::Quarantined);
        assert!(f
            .domain(9)
            .last_fault
            .as_deref()
            .is_some_and(|s| s.contains("device wedged")));
        f.admit(&clock);
        assert_eq!(f.stats.queue_stalls, 0);
        assert!(clock.now() < SimTime::from_nanos(40_000_000));

        // Skipped cycles are counted per tenant.
        f.record_skip(9);
        f.record_skip(9);
        assert_eq!(f.domain(9).cycles_skipped, 2);

        // A deferred probe pushes the window out and doubles backoff.
        let at = SimTime::from_nanos(100_000_000);
        let next = f.defer_probe(9, at, "mirror degraded");
        assert_eq!(next, at + PROBE_BACKOFF_BASE);
        assert_eq!(f.domain(9).backoff, PROBE_BACKOFF_BASE * 2);
    }

    #[test]
    fn stop_histogram_buckets_cover_recorded_cycles() {
        let clock = SimClock::new();
        let mut f = FleetScheduler::new();
        // 90 fast stops and a 10-sample slow tail: the buckets must
        // keep the median in the fast band while p99 lands in the tail.
        for i in 0..90u64 {
            f.admit(&clock);
            f.complete(
                1,
                SimTime::from_nanos(i + 1),
                SimDuration::from_micros(10),
            );
        }
        for i in 0..10u64 {
            f.admit(&clock);
            f.complete(
                2,
                SimTime::from_nanos((i + 1) * 1_000_000),
                SimDuration::from_millis(5),
            );
        }
        let h = &f.stats.stop_hist;
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 10_000);
        assert_eq!(h.max(), 5_000_000);
        let p50 = h.p50();
        assert!((9_000..=11_000).contains(&p50), "p50 {p50} out of band");
        let p99 = h.p99();
        assert!(p99 >= 4_000_000, "p99 {p99} missed the slow tail");
        assert!(h.quantile(1.0) >= p99);
    }
}
