//! Active C2 fingerprint scanning (§5.1).
//!
//! For each candidate domain, the scanner replays each family's probe
//! payload from the fingerprint corpus on :443 and then on :80 (the
//! paper's "ports 80/443"), stopping at the first hit; a port whose dial
//! fails is skipped. Responses are matched at the binary level. A relay only
//! answers its own family's handshake, so a hit identifies both the relay
//! and the malware family. This can only find *active* C2 relays — the
//! paper notes the count is therefore a lower bound.
//!
//! No message is built per probe: each signature's request was encoded
//! once with the corpus and only gets the candidate's name spliced in,
//! and each reply is matched where the client read it.

use fw_abuse::c2::{corpus, C2Fingerprint};
use fw_dns::resolver::Resolver;
use fw_http::client::{ClientConfig, FetchError, HttpClient, SimDialer};
use fw_net::SimNet;
use fw_types::{Fqdn, Rdata, RecordType};
use parking_lot::RwLock;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

/// A confirmed C2 relay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct C2Detection {
    pub fqdn: Fqdn,
    pub family: &'static str,
    pub signature_id: &'static str,
}

/// The C2 scanner.
pub struct C2Scanner {
    net: SimNet,
    resolver: Arc<RwLock<Resolver>>,
    fingerprints: &'static [C2Fingerprint],
    timeout: Duration,
    now: u64,
}

impl C2Scanner {
    pub fn new(net: SimNet, resolver: Arc<RwLock<Resolver>>) -> C2Scanner {
        C2Scanner {
            net,
            resolver,
            fingerprints: corpus(),
            timeout: Duration::from_secs(10),
            now: 0,
        }
    }

    pub fn with_timeout(mut self, timeout: Duration) -> C2Scanner {
        self.timeout = timeout;
        self
    }

    /// Number of signatures loaded.
    pub fn signature_count(&self) -> usize {
        self.fingerprints.len()
    }

    /// Scan one domain with every signature; first hit wins.
    ///
    /// The probe requests carry no `Connection: close`, so the client's
    /// keep-alive slot replays all 26 signatures of a port over a single
    /// connection: one dial (and TLS handshake) per port instead of one
    /// per signature. A server that hangs up mid-corpus costs exactly
    /// one transparent re-dial inside `send_with`.
    pub fn scan_one(&self, fqdn: &Fqdn) -> Option<C2Detection> {
        let _trace = fw_obs::trace_span("c2scan/domain");
        let addrs = self
            .resolver
            .read()
            .resolve_shared(fqdn, RecordType::A, self.now)
            .ok()?
            .addresses();
        let ip = addrs.iter().find_map(|r| match r {
            Rdata::V4(ip) => Some(*ip),
            _ => None,
        })?;
        let client = HttpClient::new(
            SimDialer::new(self.net.clone()),
            ClientConfig {
                read_timeout: self.timeout,
                ..ClientConfig::default()
            },
        );
        let host = fqdn.as_str();
        let mut buf = Vec::new();
        // Both ports, like the paper's "ports 80/443": :443 first, then
        // :80, unless a hit ends the scan.
        for (port, tls) in [(443u16, true), (80u16, false)] {
            let addr = SocketAddr::new(IpAddr::V4(ip), port);
            for sig in self.fingerprints {
                let wire = sig.wire.write_for(host, &mut buf);
                match client.send_with(addr, host, tls, wire, |resp| sig.matches(resp)) {
                    Ok(true) => {
                        return Some(C2Detection {
                            fqdn: fqdn.clone(),
                            family: sig.family,
                            signature_id: sig.signature_id,
                        });
                    }
                    Ok(false) => {}
                    // Port closed → try the other port; per-request
                    // failures just skip the signature.
                    Err(FetchError::Dial(_)) => break,
                    Err(FetchError::Http(_)) => continue,
                }
            }
        }
        None
    }

    /// Scan many domains; returns only the hits (input order preserved).
    pub fn scan(&self, domains: &[Fqdn]) -> Vec<C2Detection> {
        self.scan_parallel(domains, 8)
    }

    /// Scan with an explicit worker count.
    ///
    /// Like `Prober::probe_all`, the work is partitioned round-robin
    /// and every worker registers with the virtual clock pre-spawn, so
    /// scan outcomes and virtual timestamps are schedule-independent.
    pub fn scan_parallel(&self, domains: &[Fqdn], workers: usize) -> Vec<C2Detection> {
        if domains.is_empty() {
            return Vec::new();
        }
        let workers = workers.clamp(1, domains.len());
        if workers == 1 {
            return domains.iter().filter_map(|d| self.scan_one(d)).collect();
        }
        let clock = self.net.clock();
        // Register the whole pool before spawning anyone (see
        // `Prober::probe_all`).
        let registrations: Vec<_> = (0..workers).map(|_| clock.register()).collect();
        let fork = fw_obs::current_trace_span();
        crossbeam::scope(|scope| {
            let handles: Vec<_> = registrations
                .into_iter()
                .enumerate()
                .map(|(w, registration)| {
                    scope.spawn(move |_| {
                        let _active = registration.map(|r| r.activate());
                        let _trace = fw_obs::trace_span_child_of(fork, "c2scan/worker", w as u64);
                        domains
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .filter_map(|(i, fqdn)| self.scan_one(fqdn).map(|hit| (i, hit)))
                            .collect::<Vec<(usize, C2Detection)>>()
                    })
                })
                .collect();
            let mut hits: Vec<(usize, C2Detection)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("c2 scan workers do not panic"))
                .collect();
            hits.sort_by_key(|(i, _)| *i);
            hits.into_iter().map(|(_, h)| h).collect()
        })
        .expect("c2 scan workers do not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_abuse::c2::relay_template;
    use fw_cloud::behavior::Behavior;
    use fw_cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
    use fw_types::ProviderId;

    fn world() -> (CloudPlatform, SimNet, Arc<RwLock<Resolver>>) {
        let net = SimNet::new(17);
        let resolver = Arc::new(RwLock::new(Resolver::new()));
        let platform = CloudPlatform::new(net.clone(), resolver.clone(), PlatformConfig::default());
        (platform, net, resolver)
    }

    fn deploy_relay(platform: &CloudPlatform, family_idx: usize) -> Fqdn {
        let tpl = relay_template(family_idx);
        platform
            .deploy(DeploySpec::new(
                ProviderId::Tencent,
                Behavior::C2Relay {
                    family: tpl.family.to_string(),
                    trigger_path: tpl.trigger_path,
                    trigger_magic: tpl.trigger_magic,
                    reply: tpl.reply,
                },
            ))
            .unwrap()
            .fqdn
    }

    #[test]
    fn finds_planted_relays_with_correct_family() {
        let (platform, net, resolver) = world();
        let relay0 = deploy_relay(&platform, 0); // CobaltStrike
        let relay1 = deploy_relay(&platform, 1); // InfoStealer
        let benign = platform
            .deploy(DeploySpec::new(
                ProviderId::Tencent,
                Behavior::JsonApi {
                    service: "clean".into(),
                },
            ))
            .unwrap()
            .fqdn;

        let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));
        assert_eq!(scanner.signature_count(), 26);
        let hits = scanner.scan(&[relay0.clone(), benign.clone(), relay1.clone()]);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].fqdn, relay0);
        assert_eq!(hits[0].family, "CobaltStrike");
        assert_eq!(hits[1].fqdn, relay1);
        assert_eq!(hits[1].family, "InfoStealer");
    }

    #[test]
    fn benign_population_yields_no_hits() {
        let (platform, net, resolver) = world();
        let mut domains = Vec::new();
        for behavior in [
            Behavior::JsonApi {
                service: "a".into(),
            },
            Behavior::HtmlPage { title: "b".into() },
            Behavior::PathGated {
                good_path: "/real".into(),
            },
            Behavior::Crasher,
        ] {
            domains.push(
                platform
                    .deploy(DeploySpec::new(ProviderId::Aws, behavior))
                    .unwrap()
                    .fqdn,
            );
        }
        let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));
        assert!(scanner.scan(&domains).is_empty());
    }

    #[test]
    fn scan_parallel_is_identical_at_every_worker_count() {
        let (platform, net, resolver) = world();
        let mut domains = Vec::new();
        // Mix of relays (several families) and benign functions.
        for i in 0..6 {
            domains.push(deploy_relay(&platform, i));
            domains.push(
                platform
                    .deploy(DeploySpec::new(
                        ProviderId::Aws,
                        Behavior::JsonApi {
                            service: format!("svc{i}"),
                        },
                    ))
                    .unwrap()
                    .fqdn,
            );
        }
        let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));
        let baseline = scanner.scan_parallel(&domains, 1);
        assert_eq!(baseline.len(), 6);
        for workers in [3, 8, 16] {
            assert_eq!(
                scanner.scan_parallel(&domains, workers),
                baseline,
                "hit list must be schedule-independent (workers={workers})"
            );
        }
    }

    #[test]
    fn unresolvable_domain_is_skipped() {
        let (_platform, net, resolver) = world();
        let scanner = C2Scanner::new(net, resolver);
        let ghost = Fqdn::parse("ghost.nonexistent-zone.example").unwrap();
        assert!(scanner.scan_one(&ghost).is_none());
    }
}
