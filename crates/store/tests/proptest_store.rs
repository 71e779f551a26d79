//! Property tests for the segment codec: encode → decode is lossless up
//! to the documented canonicalization (sorting + duplicate-key merge),
//! and any truncation or byte corruption of an encoded segment is
//! rejected rather than mis-decoded. Plus the store invariant both PDNS
//! backends keep: one row per `(fqdn, rdata, pdate)` key, whatever
//! order the observations arrive in.

use fw_dns::pdns::{PdnsBackend, PdnsStore};
use fw_store::{decode_segment, DiskStore, SegRow, SegmentBuilder, StoreConfig};
use fw_types::{DayStamp, Fqdn, Rdata, MEASUREMENT_START};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// A compact row spec the strategies generate: small index spaces force
/// both dictionary reuse and duplicate-key merging.
type RowSpec = (u8, u8, u16, u16, u32);

/// Strategy for one [`RowSpec`] (the vendored proptest shim has no
/// tuple `Arbitrary`, so the tuple-of-strategies form is used).
fn row_spec() -> impl Strategy<Value = RowSpec> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
    )
}

fn materialize(rows: &[RowSpec]) -> Vec<(Fqdn, Rdata, DayStamp, u64)> {
    rows.iter()
        .map(|&(f, r, day, host, cnt)| {
            let fqdn = Fqdn::parse(&format!("fn{f}.lambda-url.us-east-1.on.aws")).unwrap();
            let rdata = match r % 3 {
                0 => Rdata::V4(Ipv4Addr::new(198, 51, 100, r)),
                1 => Rdata::V6(format!("2001:db8::{:x}", u16::from(r) + 1).parse().unwrap()),
                _ => Rdata::Name(Fqdn::parse(&format!("edge{host}.a.run.app")).unwrap()),
            };
            (
                fqdn,
                rdata,
                MEASUREMENT_START + i64::from(day % 731),
                u64::from(cnt) + 1,
            )
        })
        .collect()
}

/// The canonical view of a row set: `(fqdn, rdata, pdate) → total cnt`.
fn canonical(rows: &[(Fqdn, Rdata, DayStamp, u64)]) -> HashMap<(Fqdn, Rdata, i64), u64> {
    let mut out = HashMap::new();
    for (f, r, d, c) in rows {
        *out.entry((f.clone(), r.clone(), d.0)).or_insert(0) += c;
    }
    out
}

fn decoded_canonical(bytes: &[u8]) -> HashMap<(Fqdn, Rdata, i64), u64> {
    let seg = decode_segment(bytes).expect("valid segment decodes");
    let mut out = HashMap::new();
    for SegRow {
        fqdn,
        pdate,
        rdata,
        cnt,
    } in seg.rows
    {
        let prev = out.insert(
            (
                seg.fqdns[fqdn as usize].clone(),
                seg.rdatas[rdata as usize].clone(),
                pdate.0,
            ),
            cnt,
        );
        assert!(prev.is_none(), "decoded segment repeated a row key");
    }
    out
}

fn encode(rows: &[(Fqdn, Rdata, DayStamp, u64)]) -> Vec<u8> {
    let mut b = SegmentBuilder::new();
    for (f, r, d, c) in rows {
        b.push(f, r, *d, *c);
    }
    b.finish().expect("non-empty segment")
}

proptest! {
    /// Encode → decode reproduces exactly the canonical row multiset.
    #[test]
    fn roundtrip_is_lossless(spec in proptest::collection::vec(row_spec(), 1..120)) {
        let rows = materialize(&spec);
        let bytes = encode(&rows);
        prop_assert_eq!(decoded_canonical(&bytes), canonical(&rows));
    }

    /// Decoded rows come back sorted by `(fqdn, pdate, rdata)`.
    #[test]
    fn decoded_rows_are_sorted(spec in proptest::collection::vec(row_spec(), 1..80)) {
        let rows = materialize(&spec);
        let seg = decode_segment(&encode(&rows)).unwrap();
        let keys: Vec<(String, i64, u32)> = seg
            .rows
            .iter()
            .map(|r| (seg.fqdns[r.fqdn as usize].as_str().to_string(), r.pdate.0, r.rdata))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        prop_assert_eq!(keys, sorted);
    }

    /// Any strict prefix of a segment fails to decode.
    #[test]
    fn truncation_rejected(
        spec in proptest::collection::vec(row_spec(), 1..40),
        cut_seed in any::<u64>(),
    ) {
        let bytes = encode(&materialize(&spec));
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(decode_segment(&bytes[..cut]).is_err());
    }

    /// Any single corrupted byte fails to decode (whole-file CRC plus
    /// per-block CRCs and magics leave no unprotected byte).
    #[test]
    fn corruption_rejected(
        spec in proptest::collection::vec(row_spec(), 1..40),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode(&materialize(&spec));
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        prop_assert!(decode_segment(&bytes).is_err(), "flip at {} survived", pos);
    }

    /// SWAR batch uvarint decode ≡ the scalar `Reader` on encoded value
    /// streams spanning every varint length (1..=10 bytes).
    #[test]
    fn swar_uvarint_matches_scalar_on_encoded_streams(
        seeds in proptest::collection::vec((any::<u64>(), 0u32..64), 1..200),
    ) {
        // Shift each raw seed by a random bit width so short and long
        // varints are equally likely.
        let values: Vec<u64> = seeds.iter().map(|&(v, s)| v >> s).collect();
        let mut buf = Vec::new();
        for &v in &values {
            fw_store::codec::put_uvarint(&mut buf, v);
        }
        let mut scalar = fw_store::codec::Reader::new(&buf);
        let mut swar = fw_store::codec::Reader::new(&buf);
        for &v in &values {
            prop_assert_eq!(scalar.uvarint().unwrap(), v);
            prop_assert_eq!(swar.uvarint_swar().unwrap(), v);
        }
        prop_assert!(scalar.is_empty());
        prop_assert!(swar.is_empty());
    }

    /// SWAR and scalar decode accept/reject exactly the same arbitrary
    /// byte strings: same values, same errors, in lockstep until the
    /// buffer is exhausted.
    #[test]
    fn swar_uvarint_matches_scalar_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut scalar = fw_store::codec::Reader::new(&bytes);
        let mut swar = fw_store::codec::Reader::new(&bytes);
        loop {
            let done = scalar.is_empty();
            prop_assert_eq!(done, swar.is_empty());
            if done {
                break;
            }
            match (scalar.uvarint(), swar.uvarint_swar()) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.to_string(), b.to_string());
                    break;
                }
                (a, b) => prop_assert!(false, "scalar {:?} vs swar {:?}", a, b),
            }
        }
    }
}

type Obs = (Fqdn, Rdata, DayStamp, u64);

/// Observations over 3 fqdns × 3 rdatas × 4 days, so a few dozen rows
/// repeat keys, and share fqdns and rdatas across days.
fn observations() -> impl Strategy<Value = Vec<Obs>> {
    proptest::collection::vec((0u8..3, 0u8..3, 0i64..4, 1u64..5), 1..40).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(f, r, day, cnt)| {
                (
                    Fqdn::parse(&format!("fn{f}.lambda-url.us-east-1.on.aws")).unwrap(),
                    Rdata::V4(Ipv4Addr::new(198, 51, 100, r)),
                    MEASUREMENT_START + day,
                    cnt,
                )
            })
            .collect()
    })
}

/// A backend's rows, sorted.
fn sorted_rows(backend: &dyn PdnsBackend) -> Vec<Obs> {
    let mut rows = Vec::new();
    backend.for_each_row(&mut |fqdn, _, rdata, day, cnt| {
        rows.push((fqdn.clone(), rdata.clone(), day, cnt));
    });
    rows.sort();
    rows
}

/// A fresh store directory per call, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("fw-order-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every arrival order of one multiset of observations gives both
    /// backends the same rows: exactly one per key, its count the sum.
    /// The disk store auto-flushes every few rows, so a key's counts
    /// also split across segments, and it is reopened from them.
    #[test]
    fn arrival_order_never_changes_the_rows(
        obs in observations(),
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let mut want: BTreeMap<(Fqdn, Rdata, DayStamp), u64> = BTreeMap::new();
        for (f, r, d, c) in &obs {
            *want.entry((f.clone(), r.clone(), *d)).or_insert(0) += c;
        }
        let want: Vec<Obs> = want.into_iter().map(|((f, r, d), c)| (f, r, d, c)).collect();

        let mut orders = vec![obs.clone(), obs.iter().rev().cloned().collect()];
        for seed in &seeds {
            let mut keyed: Vec<(u64, &Obs)> = obs
                .iter()
                .enumerate()
                .map(|(i, o)| (fw_types::fnv::stream_seed(*seed, i as u64), o))
                .collect();
            keyed.sort_by_key(|(k, _)| *k);
            orders.push(keyed.into_iter().map(|(_, o)| o.clone()).collect());
        }

        for order in &orders {
            let mut mem = PdnsStore::new();
            for (f, r, d, c) in order {
                mem.observe_count(f, r, *d, *c);
            }
            prop_assert_eq!(sorted_rows(&mem), want.clone());
            prop_assert_eq!(mem.record_count(), want.len());

            let tmp = TempDir::new();
            let disk = DiskStore::create(&tmp.0, StoreConfig { shards: 2, flush_rows: 3 }).unwrap();
            for (f, r, d, c) in order {
                disk.observe_count(f, r, *d, *c);
            }
            prop_assert_eq!(sorted_rows(&disk), want.clone());
            prop_assert_eq!(disk.record_count(), want.len());
            disk.flush().unwrap();
            drop(disk);
            let reopened = DiskStore::open(&tmp.0).unwrap();
            prop_assert_eq!(sorted_rows(&reopened), want.clone());
            prop_assert_eq!(reopened.record_count(), want.len());
        }
    }
}
