//! Watermark properties: arrival order within a batch is irrelevant,
//! and rows that arrive batches late merge exactly.
//!
//! Every daemon update commutes (per-day counts are sums, day sets are
//! sets, verdicts are per-fqdn pure), so shuffling rows *within* each
//! batch — the disorder a watermark explicitly permits — must never
//! change the final materialized state, late-row accounting included.
//! Rows delivered in a later batch, below its watermark, must leave the
//! same store rows and be counted as late, one each.

use fw_dns::pdns::{PdnsRow, PdnsStore};
use fw_stream::{day_batches, DaemonFinal, StreamConfig, StreamDaemon};
use fw_types::{DayStamp, Fqdn, Rdata};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A small fqdn pool mixing function-identifiable, provider-level, and
/// noise names, so rows exercise every verdict path.
const POOL: [&str; 5] = [
    "a1b2c3d4e5f6.lambda-url.us-east-1.on.aws",
    "myfn-a1b2c3d4e5-uc.a.run.app",
    "fnapp77.azurewebsites.net",
    "us-central1-proj.cloudfunctions.net",
    "www.example.com",
];

fn arb_rows() -> impl Strategy<Value = Vec<PdnsRow>> {
    proptest::collection::vec((0usize..POOL.len(), 0u8..4, 0i64..20, 1u64..200), 1..60).prop_map(
        |specs| {
            specs
                .into_iter()
                .map(|(who, last, day, cnt)| PdnsRow {
                    fqdn: Fqdn::parse(POOL[who]).unwrap(),
                    rdata: Rdata::V4(Ipv4Addr::new(198, 51, 100, last)),
                    day: DayStamp(19_100 + day),
                    cnt,
                })
                .collect()
        },
    )
}

/// Deterministic within-batch permutation driven by proptest-chosen
/// sort keys (ties broken by original index, so any permutation is
/// reachable given enough keys).
fn shuffle(rows: &[PdnsRow], keys: &[u64]) -> Vec<PdnsRow> {
    let mut indexed: Vec<(u64, usize)> = rows
        .iter()
        .enumerate()
        .map(|(i, _)| (keys[i % keys.len()].wrapping_mul(i as u64 + 1), i))
        .collect();
    indexed.sort_unstable();
    indexed.into_iter().map(|(_, i)| rows[i].clone()).collect()
}

fn run(batches: &[(DayStamp, Vec<PdnsRow>)]) -> DaemonFinal<PdnsStore> {
    let mut daemon = StreamDaemon::new(&StreamConfig {
        workers: 1,
        ..StreamConfig::default()
    });
    for (i, (watermark, rows)) in batches.iter().enumerate() {
        daemon.apply_batch(*watermark, rows, i as u64 * 1_000_000);
    }
    daemon.finish()
}

proptest! {
    #[test]
    fn within_batch_shuffle_never_changes_final_state(
        mut rows in arb_rows(),
        keys in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        // day_batches wants day-sorted input (the watermark contract);
        // the stable sort keeps the generated within-day order.
        rows.sort_by_key(|r| r.day);
        let ordered: Vec<(DayStamp, Vec<PdnsRow>)> = day_batches(&rows, 1)
            .into_iter()
            .map(|b| (b.watermark_day, b.rows))
            .collect();
        let shuffled: Vec<(DayStamp, Vec<PdnsRow>)> = ordered
            .iter()
            .map(|(w, r)| (*w, shuffle(r, &keys)))
            .collect();

        let a = run(&ordered);
        let b = run(&shuffled);
        prop_assert_eq!(a.checkpoint, b.checkpoint);
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.new_fqdns, b.new_fqdns);
        prop_assert_eq!(a.request_series, b.request_series);
        prop_assert_eq!(a.ingress, b.ingress);
        prop_assert_eq!(a.invocation, b.invocation);
        prop_assert_eq!(a.detections, b.detections);
    }
}

/// The store's rows, sorted.
fn store_rows(store: &PdnsStore) -> Vec<(Fqdn, Rdata, DayStamp, u64)> {
    let mut rows = Vec::new();
    store.for_each_row(|fqdn, _, rdata, day, cnt| {
        rows.push((fqdn.clone(), rdata.clone(), day, cnt));
    });
    rows.sort();
    rows
}

proptest! {
    #[test]
    fn rows_moved_to_a_later_batch_merge_and_count_as_late(
        mut rows in arb_rows(),
        mask in any::<u64>(),
    ) {
        rows.sort_by_key(|r| r.day);
        let ordered: Vec<(DayStamp, Vec<PdnsRow>)> = day_batches(&rows, 1)
            .into_iter()
            .map(|b| (b.watermark_day, b.rows))
            .collect();
        // Move the masked rows of batch i to the end of batch i + 2,
        // whose pre-batch watermark (batch i + 1's day) is past them. A
        // row with a count above 1 leaves half its count behind, so its
        // key arrives twice, out of day order. Batches are rewritten
        // last to first, so batch i + 2 already holds its staying rows.
        let mut moved = ordered.clone();
        let mut late = 0u64;
        for i in (0..ordered.len().saturating_sub(2)).rev() {
            let mut stay = Vec::new();
            for (k, row) in ordered[i].1.iter().enumerate() {
                if mask >> ((i + k) % 64) & 1 == 0 {
                    stay.push(row.clone());
                    continue;
                }
                let keep = row.cnt / 2;
                if keep > 0 {
                    stay.push(PdnsRow { cnt: keep, ..row.clone() });
                }
                moved[i + 2].1.push(PdnsRow { cnt: row.cnt - keep, ..row.clone() });
                late += 1;
            }
            moved[i].1 = stay;
        }

        let a = run(&ordered);
        let b = run(&moved);
        prop_assert_eq!(store_rows(&b.store), store_rows(&a.store));
        prop_assert_eq!(b.store.record_count(), a.store.record_count());
        prop_assert_eq!(a.checkpoint.late_rows, 0);
        prop_assert_eq!(b.checkpoint.late_rows, late);
    }
}
