//! The serverless price model (§2.3) and Denial-of-Wallet arithmetic.
//!
//! Providers charge per invocation plus compute in GB-seconds. AWS's
//! published numbers are used verbatim (1M free requests and 400k GB-s per
//! month; $0.20 per million requests; $0.0000166667 per GB-s); other
//! providers get approximations in the same shape. The DoW threat from
//! Finding 5 is "unauthorized access drives unexpected charges" — the
//! ledger makes that computable.

use fw_types::{Fqdn, ProviderId};
use std::collections::HashMap;

/// Pricing for one provider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceModel {
    pub free_requests_per_month: u64,
    pub free_gb_seconds_per_month: f64,
    /// USD per million requests beyond the free tier.
    pub price_per_million_requests: f64,
    /// USD per GB-second beyond the free tier.
    pub price_per_gb_second: f64,
}

impl PriceModel {
    /// The published AWS Lambda numbers (§2.3).
    pub const AWS: PriceModel = PriceModel {
        free_requests_per_month: 1_000_000,
        free_gb_seconds_per_month: 400_000.0,
        price_per_million_requests: 0.20,
        price_per_gb_second: 0.000_016_666_7,
    };

    /// Per-provider model. Non-AWS providers are approximations with the
    /// same structure (the paper only quotes AWS and Tencent's free
    /// trial).
    pub fn for_provider(provider: ProviderId) -> PriceModel {
        match provider {
            ProviderId::Aws => PriceModel::AWS,
            // Tencent: free trial for new users; afterwards similar to AWS.
            ProviderId::Tencent => PriceModel {
                free_requests_per_month: 1_000_000,
                free_gb_seconds_per_month: 400_000.0,
                price_per_million_requests: 0.19,
                price_per_gb_second: 0.000_016_0,
            },
            ProviderId::Google | ProviderId::Google2 => PriceModel {
                free_requests_per_month: 2_000_000,
                free_gb_seconds_per_month: 400_000.0,
                price_per_million_requests: 0.40,
                price_per_gb_second: 0.000_025_0,
            },
            _ => PriceModel {
                free_requests_per_month: 1_000_000,
                free_gb_seconds_per_month: 400_000.0,
                price_per_million_requests: 0.20,
                price_per_gb_second: 0.000_016_666_7,
            },
        }
    }

    /// Monthly bill for a usage total.
    pub fn monthly_cost(&self, usage: &UsageMeter) -> Invoice {
        let billable_requests = usage
            .invocations
            .saturating_sub(self.free_requests_per_month);
        let billable_gbs = (usage.gb_seconds - self.free_gb_seconds_per_month).max(0.0);
        let request_cost = billable_requests as f64 / 1_000_000.0 * self.price_per_million_requests;
        let compute_cost = billable_gbs * self.price_per_gb_second;
        Invoice {
            invocations: usage.invocations,
            gb_seconds: usage.gb_seconds,
            request_cost_usd: request_cost,
            compute_cost_usd: compute_cost,
            total_usd: request_cost + compute_cost,
            within_free_tier: billable_requests == 0 && billable_gbs == 0.0,
        }
    }

    /// Denial-of-Wallet estimate: cost of an attacker issuing
    /// `requests_per_second` for `seconds`, against a function with
    /// `memory_mb` and `exec_ms` per invocation.
    pub fn dow_cost(
        &self,
        requests_per_second: f64,
        seconds: f64,
        memory_mb: u32,
        exec_ms: u64,
    ) -> Invoice {
        let invocations = (requests_per_second * seconds) as u64;
        let gb_seconds =
            invocations as f64 * (memory_mb as f64 / 1024.0) * (exec_ms as f64 / 1000.0);
        self.monthly_cost(&UsageMeter {
            invocations,
            gb_seconds,
        })
    }
}

/// Accumulated usage for one function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UsageMeter {
    pub invocations: u64,
    pub gb_seconds: f64,
}

/// One computed bill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Invoice {
    pub invocations: u64,
    pub gb_seconds: f64,
    pub request_cost_usd: f64,
    pub compute_cost_usd: f64,
    pub total_usd: f64,
    pub within_free_tier: bool,
}

/// Per-function usage ledger maintained by the platform.
#[derive(Debug, Default)]
pub struct BillingLedger {
    usage: HashMap<Fqdn, UsageMeter>,
}

impl BillingLedger {
    pub fn new() -> BillingLedger {
        BillingLedger::default()
    }

    /// Meter one invocation. The key is cloned only on a function's
    /// first invocation.
    pub fn record(&mut self, fqdn: &Fqdn, memory_mb: u32, exec_ms: u64) {
        let add = |meter: &mut UsageMeter| {
            meter.invocations += 1;
            meter.gb_seconds += (memory_mb as f64 / 1024.0) * (exec_ms as f64 / 1000.0);
        };
        match self.usage.get_mut(fqdn) {
            Some(meter) => add(meter),
            None => add(self.usage.entry(fqdn.clone()).or_default()),
        }
    }

    pub fn usage(&self, fqdn: &Fqdn) -> UsageMeter {
        self.usage.get(fqdn).copied().unwrap_or_default()
    }

    /// Total invocations across all functions.
    pub fn total_invocations(&self) -> u64 {
        self.usage.values().map(|u| u.invocations).sum()
    }

    pub fn function_count(&self) -> usize {
        self.usage.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    #[test]
    fn aws_free_tier_covers_small_usage() {
        let usage = UsageMeter {
            invocations: 500_000,
            gb_seconds: 100_000.0,
        };
        let bill = PriceModel::AWS.monthly_cost(&usage);
        assert!(bill.within_free_tier);
        assert_eq!(bill.total_usd, 0.0);
    }

    #[test]
    fn aws_pricing_matches_published_numbers() {
        // 3M requests (2M billable) and 1M GB-s (600k billable).
        let usage = UsageMeter {
            invocations: 3_000_000,
            gb_seconds: 1_000_000.0,
        };
        let bill = PriceModel::AWS.monthly_cost(&usage);
        assert!(!bill.within_free_tier);
        assert!((bill.request_cost_usd - 0.40).abs() < 1e-9);
        assert!((bill.compute_cost_usd - 600_000.0 * 0.000_016_666_7).abs() < 1e-6);
    }

    #[test]
    fn ledger_accumulates_gb_seconds() {
        let mut ledger = BillingLedger::new();
        let f = fq("x.lambda-url.us-east-1.on.aws");
        // 512 MB × 2000 ms = 1 GB-s per invocation.
        ledger.record(&f, 512, 2000);
        ledger.record(&f, 512, 2000);
        let usage = ledger.usage(&f);
        assert_eq!(usage.invocations, 2);
        assert!((usage.gb_seconds - 2.0).abs() < 1e-9);
        assert_eq!(ledger.total_invocations(), 2);
    }

    #[test]
    fn dow_attack_exceeds_free_tier_quickly() {
        // 100 rps for a day against a 1 GB / 1 s function:
        // 8.64M requests and 8.64M GB-s.
        let bill = PriceModel::AWS.dow_cost(100.0, 86_400.0, 1024, 1000);
        assert!(!bill.within_free_tier);
        assert!(bill.total_usd > 100.0, "total {}", bill.total_usd);
    }

    #[test]
    fn every_provider_has_a_model() {
        for p in ProviderId::ALL {
            let m = PriceModel::for_provider(p);
            assert!(m.price_per_gb_second > 0.0, "{p}");
            assert!(m.free_requests_per_month > 0, "{p}");
        }
    }
}
