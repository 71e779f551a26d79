//! Streaming ↔ batch equivalence checks.
//!
//! The daemon's whole design rests on one claim: its incremental state
//! is *exactly* the batch pipeline's output — not approximately, not
//! modulo ordering, but field-for-field equal. This module states the
//! claim as a checkable function shared by the `fw_stream_gate` CI
//! binary and the integration tests: given a finished daemon and the
//! source backend it streamed from, recompute everything with the
//! batch code path (`identify_functions_with` + the §4 sweeps) and
//! compare verdict maps, usage tables, and row counts. Any mismatch
//! returns a description of the first divergence.

use crate::daemon::DaemonFinal;
use fw_core::identify::{identify_functions_with, IdentificationReport};
use fw_core::usage::{
    ingress_table_with, invocation_report, monthly_new_fqdns, monthly_requests_with,
};
use fw_dns::pdns::PdnsBackend;

fn check_reports(
    streamed: &IdentificationReport,
    batch: &IdentificationReport,
) -> Result<(), String> {
    if streamed.unmatched != batch.unmatched {
        return Err(format!(
            "unmatched: streamed {} vs batch {}",
            streamed.unmatched, batch.unmatched
        ));
    }
    if streamed.total_requests != batch.total_requests {
        return Err(format!(
            "total_requests: streamed {} vs batch {}",
            streamed.total_requests, batch.total_requests
        ));
    }
    if streamed.functions.len() != batch.functions.len() {
        return Err(format!(
            "function count: streamed {} vs batch {}",
            streamed.functions.len(),
            batch.functions.len()
        ));
    }
    for (s, b) in streamed.functions.iter().zip(&batch.functions) {
        if s.fqdn != b.fqdn {
            return Err(format!("function order: {} vs {}", s.fqdn, b.fqdn));
        }
        if s.provider != b.provider || s.region != b.region {
            return Err(format!("verdict mismatch for {}", s.fqdn));
        }
        if s.agg != b.agg {
            return Err(format!(
                "aggregate mismatch for {}: streamed {:?} vs batch {:?}",
                s.fqdn, s.agg, b.agg
            ));
        }
    }
    Ok(())
}

/// Verify a finished daemon against a batch run over `source` (the
/// backend whose rows were streamed). `workers` drives the batch-side
/// sweeps — both sides are worker-count invariant, so any value must
/// pass. Checks, in order: the identification report (verdict map +
/// per-function §3.2 aggregates), the Figure 3/4 monthly series, the
/// Table 2 ingress rows, the Figure 5 invocation stats, and the
/// absorbed store's row/fqdn counts.
pub fn check_equivalence<B, S>(
    fin: &DaemonFinal<B>,
    source: &S,
    workers: usize,
) -> Result<(), String>
where
    B: PdnsBackend,
    S: PdnsBackend + ?Sized,
{
    let batch = identify_functions_with(source, workers);
    check_reports(&fin.report, &batch).map_err(|e| format!("identification: {e}"))?;

    let new_fqdns = monthly_new_fqdns(&batch);
    if fin.new_fqdns != new_fqdns {
        return Err("figure 3 (monthly new fqdns) diverges".to_string());
    }
    let request_series = monthly_requests_with(&batch, source, workers);
    if fin.request_series != request_series {
        return Err(format!(
            "figure 4 (monthly requests) diverges: streamed {:?} vs batch {:?}",
            fin.request_series.total(),
            request_series.total()
        ));
    }
    let ingress = ingress_table_with(&batch, source, workers);
    if fin.ingress != ingress {
        for (s, b) in fin.ingress.iter().zip(&ingress) {
            if s != b {
                return Err(format!(
                    "table 2 (ingress) diverges: streamed {s:?} vs batch {b:?}"
                ));
            }
        }
        return Err(format!(
            "table 2 (ingress) diverges: {} streamed rows vs {} batch rows",
            fin.ingress.len(),
            ingress.len()
        ));
    }
    let invocation = invocation_report(&batch);
    if fin.invocation != invocation {
        return Err("figure 5 (invocation) diverges".to_string());
    }

    if fin.store.fqdn_count() != source.fqdn_count() {
        return Err(format!(
            "store fqdn count: streamed {} vs source {}",
            fin.store.fqdn_count(),
            source.fqdn_count()
        ));
    }
    // Every backend keeps one row per `(fqdn, rdata, pdate)` key, so the
    // row counts must agree, and every fqdn's full aggregate (day
    // counts, request totals, rdata distribution) must match between
    // the absorbed store and the source.
    if fin.store.record_count() != source.record_count() {
        return Err(format!(
            "store row count: streamed {} vs source {}",
            fin.store.record_count(),
            source.record_count()
        ));
    }
    let mut streamed_aggs = fin.store.par_aggregates(workers);
    let mut source_aggs = source.par_aggregates(workers);
    streamed_aggs.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
    source_aggs.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
    if streamed_aggs != source_aggs {
        for (s, b) in streamed_aggs.iter().zip(&source_aggs) {
            if s != b {
                return Err(format!(
                    "absorbed store aggregate diverges for {}: {:?} vs {:?}",
                    s.fqdn, s, b
                ));
            }
        }
        return Err("absorbed store aggregates diverge".to_string());
    }
    if fin.checkpoint.identified != batch.functions.len() as u64 {
        return Err("checkpoint identified count diverges from batch".to_string());
    }
    Ok(())
}
