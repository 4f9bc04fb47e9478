//! Property tests for the wire codec: round trips for arbitrary values
//! and resilience (error, never panic) on arbitrary corrupt input.

use aurora_sim::codec::{Decoder, Encoder};
use proptest::prelude::*;

proptest! {
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut e = Encoder::new();
        e.varint(v);
        let b = e.finish();
        prop_assert_eq!(Decoder::new(&b).varint().unwrap(), v);
    }

    #[test]
    fn mixed_scalars_roundtrip(
        a in any::<u8>(),
        b in any::<u16>(),
        c in any::<u32>(),
        d in any::<u64>(),
        e_ in any::<i64>(),
        f in any::<bool>(),
        s in ".{0,64}",
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut e = Encoder::new();
        e.u8(a);
        e.u16(b);
        e.u32(c);
        e.u64(d);
        e.i64(e_);
        e.bool(f);
        e.str(&s);
        e.bytes(&bytes);
        let buf = e.finish();
        let mut dec = Decoder::new(&buf);
        prop_assert_eq!(dec.u8().unwrap(), a);
        prop_assert_eq!(dec.u16().unwrap(), b);
        prop_assert_eq!(dec.u32().unwrap(), c);
        prop_assert_eq!(dec.u64().unwrap(), d);
        prop_assert_eq!(dec.i64().unwrap(), e_);
        prop_assert_eq!(dec.bool().unwrap(), f);
        prop_assert_eq!(dec.str().unwrap(), s);
        prop_assert_eq!(dec.bytes().unwrap(), &bytes[..]);
        prop_assert!(dec.is_empty());
    }

    #[test]
    fn record_roundtrip(tag in any::<u16>(), version in any::<u16>(), generation in any::<u64>(),
                        payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut e = Encoder::new();
        e.record(tag, version, generation, &payload);
        let b = e.finish();
        let rec = Decoder::new(&b).record().unwrap();
        prop_assert_eq!(rec.tag, tag);
        prop_assert_eq!(rec.version, version);
        prop_assert_eq!(rec.generation, generation);
        prop_assert_eq!(rec.payload, &payload[..]);
        prop_assert_eq!(Decoder::new(&b).record_header().unwrap().record_len(), b.len());
    }

    /// Any single-bit flip in a record's header or payload is detected:
    /// the CRC covers both, so corruption is never silently accepted.
    #[test]
    fn record_bit_flips_detected(payload in proptest::collection::vec(any::<u8>(), 1..128),
                                 byte_sel in any::<usize>(), bit in 0u8..8) {
        let mut e = Encoder::new();
        e.record(7, 1, 3, &payload);
        let mut b = e.into_vec();
        let idx = byte_sel % (16 + payload.len());
        b[idx] ^= 1 << bit;
        prop_assert!(Decoder::new(&b).record().is_err());
    }

    /// Arbitrary garbage never panics any decoder entry point.
    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut d = Decoder::new(&data);
        let _ = d.record();
        let mut d = Decoder::new(&data);
        let _ = d.varint();
        let mut d = Decoder::new(&data);
        let _ = d.bytes();
        let mut d = Decoder::new(&data);
        let _ = d.str();
        let mut d = Decoder::new(&data);
        let _ = d.seq(|d| d.u64());
        let mut d = Decoder::new(&data);
        let _ = d.option(|d| d.bytes());
    }

    /// Sequences of sequences round-trip.
    #[test]
    fn nested_sequences_roundtrip(rows in proptest::collection::vec(
        proptest::collection::vec(any::<u32>(), 0..16), 0..16))
    {
        let mut e = Encoder::new();
        e.seq(&rows, |e, row| e.seq(row, |e, v| e.u32(*v)));
        let b = e.finish();
        let decoded = Decoder::new(&b).seq(|d| d.seq(|d| d.u32())).unwrap();
        prop_assert_eq!(decoded, rows);
    }
}
