//! `sls send` / `sls recv` and live migration.
//!
//! Checkpoints are self-contained, so sharing or migrating an
//! application is just moving bytes: [`Host::send_checkpoint`] exports a
//! chain-merged stream (pipe it to a file, hand it to another user) and
//! [`Host::recv_checkpoint`] imports it. [`live_migrate`] implements the
//! classic iterative pre-copy loop on top of incremental checkpoints:
//! ship a full image while the application keeps running, then ship
//! shrinking deltas, and only stop the source for the final round.

use aurora_hw::LinkModel;
use aurora_objstore::CkptId;
use aurora_sim::error::{Error, Result};
use aurora_sim::hash::fnv64;
use aurora_sim::{Decoder, Encoder};

use crate::metrics::RestoreBreakdown;
use crate::restore::RestoreMode;
use crate::{GroupId, Host};

/// Magic of a sealed `sls send` image file: "SLSIMG01".
pub const IMAGE_MAGIC: u64 = 0x534C_5349_4D47_3031;

/// Format version of the image envelope. Bump on layout changes; the
/// decoder rejects newer versions with a typed error instead of
/// misparsing them.
pub const IMAGE_VERSION: u16 = 1;

/// Seals a checkpoint stream into the on-disk `sls send` image envelope:
/// magic, format version, whole-image content digest, then the payload.
///
/// The digest covers every payload byte, so truncation and bit flips are
/// detected before the stream parser ever runs — `sls recv` on a damaged
/// file fails with a typed error instead of silently importing garbage.
pub fn encode_image(payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(payload.len() + 32);
    e.u64(IMAGE_MAGIC);
    e.u16(IMAGE_VERSION);
    e.u64(fnv64(payload));
    e.bytes(payload);
    e.into_vec()
}

/// Opens a sealed image envelope, returning the verified payload.
///
/// Typed failures, in check order:
/// * [`aurora_sim::error::ErrorKind::BadImage`] — too short to hold the
///   header, wrong magic (not an sls image at all), or truncated payload;
/// * [`aurora_sim::error::ErrorKind::Unsupported`] — a format version
///   newer than this binary writes (cross-version file);
/// * [`aurora_sim::error::ErrorKind::Corrupt`] — the payload digest does
///   not match (bit flip in transit or at rest).
pub fn decode_image(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut d = Decoder::new(bytes);
    let magic = d
        .u64()
        .map_err(|_| Error::bad_image("file too short to be an sls image"))?;
    if magic != IMAGE_MAGIC {
        return Err(Error::bad_image("not an sls image file (bad magic)"));
    }
    let version = d
        .u16()
        .map_err(|_| Error::bad_image("sls image truncated in the header"))?;
    if version > IMAGE_VERSION {
        return Err(Error::unsupported(format!(
            "sls image format version {version} is newer than this binary \
             supports (max {IMAGE_VERSION})"
        )));
    }
    let digest = d
        .u64()
        .map_err(|_| Error::bad_image("sls image truncated in the header"))?;
    let payload = d
        .bytes()
        .map_err(|_| Error::bad_image("sls image truncated: payload incomplete"))?;
    if fnv64(payload) != digest {
        return Err(Error::corrupt(
            "sls image digest mismatch: the file was corrupted",
        ));
    }
    Ok(payload.to_vec())
}

/// Statistics of one live migration.
#[derive(Debug, Clone, Default)]
pub struct MigrationStats {
    /// Pre-copy rounds performed (including the final stop round).
    pub rounds: u32,
    /// Bytes shipped per round.
    pub round_bytes: Vec<u64>,
    /// Total bytes over the wire.
    pub total_bytes: u64,
    /// Source downtime (virtual) for the final stop-and-copy round.
    pub downtime: aurora_sim::time::SimDuration,
    /// Restore breakdown on the destination.
    pub restore: RestoreBreakdown,
}

impl Host {
    /// Exports a checkpoint (the latest when `ckpt` is `None`) as a
    /// self-contained byte stream (`sls send`).
    ///
    /// The stream carries exactly the sending group's namespace —
    /// its memory objects, persistent logs and metadata records — not
    /// the whole machine's history, so the receiver sees one
    /// unambiguous application.
    pub fn send_checkpoint(&mut self, gid: GroupId, ckpt: Option<CkptId>) -> Result<Vec<u8>> {
        let (store, ckpt) = {
            let group = self.sls.group_ref(gid)?;
            let ckpt = match ckpt {
                Some(c) => c,
                None => group
                    .last_checkpoint()
                    .ok_or_else(|| Error::invalid("group has no checkpoints"))?,
            };
            let backend = group
                .backends
                .first()
                .ok_or_else(|| Error::invalid("group has no backends"))?;
            (backend.store.clone(), ckpt)
        };
        let prefix = format!("g{}/", gid.0);
        let stream = store.borrow_mut().export_checkpoint_filtered(
            ckpt,
            gid.objects(),
            |key| key.starts_with(&prefix),
        )?;
        Ok(encode_image(&stream))
    }

    /// Imports a sealed checkpoint image into this host's primary store
    /// (`sls recv`); returns the new checkpoint id, ready to restore.
    ///
    /// The envelope is verified first ([`decode_image`]): truncated,
    /// bit-flipped, and newer-version files fail with typed errors
    /// before any stream record is parsed.
    pub fn recv_checkpoint(&mut self, image: &[u8]) -> Result<CkptId> {
        let payload = decode_image(image)?;
        let (ckpt, durable) = self.sls.primary.borrow_mut().import_stream(&payload)?;
        self.clock.advance_to(durable);
        Ok(ckpt)
    }
}

/// Live-migrates a persistence group from `src` to `dst` over `link`.
///
/// Pre-copy rounds continue until the delta stops shrinking (or
/// `max_rounds`); the final round stops the source, ships the last delta,
/// restores on the destination, and kills the source incarnation.
pub fn live_migrate(
    src: &mut Host,
    dst: &mut Host,
    gid: GroupId,
    link: &mut LinkModel,
    max_rounds: u32,
) -> Result<MigrationStats> {
    let mut stats = MigrationStats::default();
    let store = src
        .sls
        .group_ref(gid)?
        .backends
        .first()
        .ok_or_else(|| Error::invalid("group has no backends"))?
        .store
        .clone();

    // Round 1: full image while the application runs.
    let breakdown = src.checkpoint(gid, true, Some("migrate-base"))?;
    let base = breakdown.ckpt.ok_or_else(|| Error::internal("no ckpt id"))?;
    let full_stream = store.borrow_mut().export_checkpoint(base)?;
    // Charge the wire for the logical image size (pages are encoded
    // compactly in the stream, but a real migration moves real bytes).
    let full_logical = store.borrow().logical_size(base)?;
    link.transfer_sync(full_logical.max(full_stream.len() as u64));
    let (_, durable) = dst.sls.primary.borrow_mut().import_stream(&full_stream)?;
    dst.clock.advance_to(durable);
    stats.rounds = 1;
    stats.round_bytes.push(full_logical.max(full_stream.len() as u64));
    stats.total_bytes += full_logical.max(full_stream.len() as u64);

    // Iterative pre-copy: ship deltas while they shrink.
    let mut last_len = full_logical.max(full_stream.len() as u64) as usize;
    for _ in 1..max_rounds.max(2) - 1 {
        let breakdown = src.checkpoint(gid, false, None)?;
        let ckpt = breakdown.ckpt.ok_or_else(|| Error::internal("no ckpt id"))?;
        let delta = store.borrow_mut().export_delta(ckpt)?;
        let logical = store
            .borrow()
            .delta_logical_size(ckpt)?
            .max(delta.len() as u64);
        link.transfer_sync(logical);
        let (_, durable) = dst.sls.primary.borrow_mut().import_delta(&delta)?;
        dst.clock.advance_to(durable);
        stats.rounds += 1;
        stats.round_bytes.push(logical);
        stats.total_bytes += logical;
        if logical as usize >= last_len || logical < 4096 {
            break; // Converged (or not converging: stop copying).
        }
        last_len = logical as usize;
    }

    // Final round: stop the source, ship the last delta, switch over.
    let t0 = src.clock.now();
    let members = src.group_members(gid);
    for &pid in &members {
        src.kernel.stop_process(pid)?;
    }
    let breakdown = src.checkpoint(gid, false, Some("migrate-final"))?;
    let final_ckpt = breakdown.ckpt.ok_or_else(|| Error::internal("no ckpt id"))?;
    let delta = store.borrow_mut().export_delta(final_ckpt)?;
    let logical = store
        .borrow()
        .delta_logical_size(final_ckpt)?
        .max(delta.len() as u64);
    link.transfer_sync(logical);
    let (dst_ckpt, durable) = dst.sls.primary.borrow_mut().import_delta(&delta)?;
    dst.clock.advance_to(durable);
    stats.rounds += 1;
    stats.round_bytes.push(logical);
    stats.total_bytes += logical;

    // Restore on the destination, then retire the source incarnation.
    let primary = dst.sls.primary.clone();
    stats.restore = dst.restore(&primary, dst_ckpt, RestoreMode::LazyPrefetch)?;
    for pid in members {
        let _ = src.kernel.exit(pid, 0);
        src.kernel.procs.remove(&pid);
    }
    stats.downtime = src.clock.now().since(t0);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::error::ErrorKind;

    #[test]
    fn image_envelope_roundtrips() {
        for payload in [&b""[..], &b"x"[..], &[0u8; 4096][..], &[0xA5u8; 70_000][..]] {
            let sealed = encode_image(payload);
            assert_eq!(decode_image(&sealed).unwrap(), payload);
        }
    }

    #[test]
    fn truncated_image_is_a_typed_error() {
        let sealed = encode_image(b"the quick brown fox");
        // Every possible truncation point fails loudly, never imports.
        for len in 0..sealed.len() {
            let err = decode_image(&sealed[..len]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::BadImage, "truncated at {len}");
        }
    }

    #[test]
    fn bit_flips_anywhere_in_the_payload_are_detected() {
        let sealed = encode_image(&[0x3Cu8; 256]);
        let header = sealed.len() - 256;
        for (pos, bit) in [(header, 0), (header + 128, 7), (sealed.len() - 1, 3)] {
            let mut bad = sealed.clone();
            bad[pos] ^= 1 << bit;
            let err = decode_image(&bad).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Corrupt, "flip at byte {pos} bit {bit}");
        }
    }

    #[test]
    fn wrong_magic_is_not_an_sls_image() {
        let mut sealed = encode_image(b"payload");
        sealed[0] ^= 0xFF;
        let err = decode_image(&sealed).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BadImage);
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn newer_format_version_is_rejected_not_misparsed() {
        let payload = b"from the future";
        let mut e = Encoder::new();
        e.u64(IMAGE_MAGIC);
        e.u16(IMAGE_VERSION + 1);
        e.u64(fnv64(payload));
        e.bytes(payload);
        let err = decode_image(&e.into_vec()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Unsupported);
        assert!(err.to_string().contains("version"), "{err}");
    }
}
