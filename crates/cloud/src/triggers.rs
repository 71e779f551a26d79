//! Non-HTTP invocation paths (§2.2): event triggers.
//!
//! "Serverless functions can be automatically triggered by specific
//! events ... file uploads to cloud storage, message queues, and
//! scheduled tasks." These functions have **no exposed endpoint** and are
//! invisible to both passive DNS and active probing — which is exactly
//! why the paper scopes itself to HTTP(S) endpoints. Implementing them
//! closes the lifecycle: billing and cold/warm-start behaviour apply to
//! every invocation path, and tests can verify that trigger-only
//! functions stay out of the measurement pipeline's view.

use crate::behavior::{Behavior, BehaviorContext, Outcome};
use crate::platform::CloudPlatform;
use fw_http::types::{Request, Response};
use fw_types::{Fqdn, FwError, FwResult};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The §2.2 trigger kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerEvent {
    /// File upload to cloud storage: bucket and object key.
    StorageUpload { bucket: String, key: String },
    /// Message-queue delivery (SQS/Pub-Sub-style).
    QueueMessage { queue: String, body: Vec<u8> },
    /// Scheduled task firing (cron-style).
    Scheduled { schedule: String },
    /// Manual invocation from console/CLI (testing path).
    Manual { payload: Vec<u8> },
}

impl TriggerEvent {
    /// Synthesized invocation request handed to the function's handler —
    /// event-triggered executions still flow through the same behaviour
    /// code, with the event serialized the way real platforms wrap
    /// events into handler input.
    fn to_request(&self, fqdn: &Fqdn) -> Request {
        let (path, body) = match self {
            TriggerEvent::StorageUpload { bucket, key } => (
                "/_event/storage".to_string(),
                format!(r#"{{"bucket":"{bucket}","key":"{key}"}}"#).into_bytes(),
            ),
            TriggerEvent::QueueMessage { queue, body } => {
                let mut payload = format!(r#"{{"queue":"{queue}","body":""#).into_bytes();
                payload.extend_from_slice(body);
                payload.extend_from_slice(b"\"}");
                ("/_event/queue".to_string(), payload)
            }
            TriggerEvent::Scheduled { schedule } => (
                "/_event/schedule".to_string(),
                format!(r#"{{"schedule":"{schedule}"}}"#).into_bytes(),
            ),
            TriggerEvent::Manual { payload } => ("/_event/manual".to_string(), payload.clone()),
        };
        let mut req = Request::get(&path, fqdn.as_str());
        req.method = fw_http::types::Method::Post;
        req.body = body;
        req
    }
}

/// One binding of an event source to a function.
#[derive(Debug, Clone)]
pub struct TriggerBinding {
    pub fqdn: Fqdn,
    pub kind: TriggerKind,
}

/// What a binding listens for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerKind {
    /// All uploads to a bucket.
    Storage { bucket: String },
    /// All messages on a queue.
    Queue { queue: String },
    /// A cron expression (opaque here; fired explicitly by the driver).
    Schedule { schedule: String },
}

/// The event-trigger fabric for a platform: bindings plus a pending-event
/// queue, drained by [`TriggerFabric::pump`].
pub struct TriggerFabric {
    platform: CloudPlatform,
    bindings: Mutex<Vec<TriggerBinding>>,
    pending: Mutex<VecDeque<(Fqdn, TriggerEvent)>>,
    delivered: Mutex<Vec<(Fqdn, u16)>>,
}

impl TriggerFabric {
    pub fn new(platform: CloudPlatform) -> TriggerFabric {
        TriggerFabric {
            platform,
            bindings: Mutex::new(Vec::new()),
            pending: Mutex::new(VecDeque::new()),
            delivered: Mutex::new(Vec::new()),
        }
    }

    /// Bind an event source to a deployed function.
    pub fn bind(&self, fqdn: &Fqdn, kind: TriggerKind) -> FwResult<()> {
        if self.platform.behavior_of(fqdn).is_none() {
            return Err(FwError::Cloud(format!("unknown function {fqdn}")));
        }
        self.bindings.lock().push(TriggerBinding {
            fqdn: fqdn.clone(),
            kind,
        });
        Ok(())
    }

    pub fn binding_count(&self) -> usize {
        self.bindings.lock().len()
    }

    /// Publish an event; it fans out to every matching binding.
    pub fn publish(&self, event: TriggerEvent) -> usize {
        let bindings = self.bindings.lock();
        let mut matched = 0;
        for b in bindings.iter() {
            let hit = match (&b.kind, &event) {
                (
                    TriggerKind::Storage { bucket },
                    TriggerEvent::StorageUpload { bucket: eb, .. },
                ) => bucket == eb,
                (TriggerKind::Queue { queue }, TriggerEvent::QueueMessage { queue: eq, .. }) => {
                    queue == eq
                }
                (TriggerKind::Schedule { schedule }, TriggerEvent::Scheduled { schedule: es }) => {
                    schedule == es
                }
                _ => false,
            };
            if hit {
                self.pending
                    .lock()
                    .push_back((b.fqdn.clone(), event.clone()));
                matched += 1;
            }
        }
        matched
    }

    /// Invoke a function directly (console/CLI manual invocation).
    pub fn invoke_manual(&self, fqdn: &Fqdn, payload: Vec<u8>) -> FwResult<Response> {
        self.execute(fqdn, &TriggerEvent::Manual { payload })
    }

    /// Drain pending events, executing each. Returns delivered count.
    pub fn pump(&self) -> usize {
        let mut delivered = 0;
        loop {
            let Some((fqdn, event)) = self.pending.lock().pop_front() else {
                break;
            };
            if let Ok(resp) = self.execute(&fqdn, &event) {
                self.delivered.lock().push((fqdn, resp.status));
            }
            delivered += 1;
        }
        delivered
    }

    /// Delivery log: `(function, handler status)`.
    pub fn delivery_log(&self) -> Vec<(Fqdn, u16)> {
        self.delivered.lock().clone()
    }

    /// Execute one event against the function's behaviour, with the same
    /// billing and environment accounting the HTTP path uses.
    fn execute(&self, fqdn: &Fqdn, event: &TriggerEvent) -> FwResult<Response> {
        let behavior: Behavior = self
            .platform
            .behavior_of(fqdn)
            .ok_or_else(|| FwError::Cloud(format!("unknown function {fqdn}")))?;
        if self.platform.is_deleted(fqdn) {
            return Err(FwError::Cloud(format!("function deleted: {fqdn}")));
        }
        let req = event.to_request(fqdn);
        let invocations = self.platform.record_event_invocation(fqdn)?;
        let mut ctx = BehaviorContext {
            rng: SmallRng::seed_from_u64(invocations ^ 0xe7e7),
            egress_ip: std::net::Ipv4Addr::new(34, 99, 0, (invocations % 200) as u8),
            fqdn: fqdn.as_str(),
        };
        match behavior.respond(&req, &mut ctx) {
            Outcome::Respond(resp) => Ok(resp),
            Outcome::Hang => Err(FwError::Cloud("handler did not respond".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{DeploySpec, PlatformConfig};
    use fw_dns::resolver::Resolver;
    use fw_net::SimNet;
    use fw_types::ProviderId;
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn platform() -> CloudPlatform {
        CloudPlatform::new(
            SimNet::new(9),
            Arc::new(RwLock::new(Resolver::new())),
            PlatformConfig::default(),
        )
    }

    fn deploy(p: &CloudPlatform) -> Fqdn {
        p.deploy(DeploySpec::new(
            ProviderId::Aws,
            Behavior::JsonApi {
                service: "etl".into(),
            },
        ))
        .unwrap()
        .fqdn
    }

    #[test]
    fn storage_upload_triggers_bound_function() {
        let p = platform();
        let f = deploy(&p);
        let fabric = TriggerFabric::new(p.clone());
        fabric
            .bind(
                &f,
                TriggerKind::Storage {
                    bucket: "raw-data".into(),
                },
            )
            .unwrap();
        let matched = fabric.publish(TriggerEvent::StorageUpload {
            bucket: "raw-data".into(),
            key: "2024/03/01/dump.csv".into(),
        });
        assert_eq!(matched, 1);
        assert_eq!(fabric.pump(), 1);
        let log = fabric.delivery_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0], (f.clone(), 200));
        // The invocation was metered like any other.
        assert_eq!(p.with_billing(|b| b.usage(&f)).invocations, 1);
    }

    #[test]
    fn events_fan_out_to_all_matching_bindings() {
        let p = platform();
        let (f1, f2) = (deploy(&p), deploy(&p));
        let fabric = TriggerFabric::new(p);
        fabric
            .bind(
                &f1,
                TriggerKind::Queue {
                    queue: "jobs".into(),
                },
            )
            .unwrap();
        fabric
            .bind(
                &f2,
                TriggerKind::Queue {
                    queue: "jobs".into(),
                },
            )
            .unwrap();
        fabric
            .bind(
                &f2,
                TriggerKind::Queue {
                    queue: "other".into(),
                },
            )
            .unwrap();
        let matched = fabric.publish(TriggerEvent::QueueMessage {
            queue: "jobs".into(),
            body: b"work".to_vec(),
        });
        assert_eq!(matched, 2);
        assert_eq!(fabric.pump(), 2);
    }

    #[test]
    fn unmatched_events_go_nowhere() {
        let p = platform();
        let f = deploy(&p);
        let fabric = TriggerFabric::new(p);
        fabric
            .bind(
                &f,
                TriggerKind::Schedule {
                    schedule: "0 3 * * *".into(),
                },
            )
            .unwrap();
        assert_eq!(
            fabric.publish(TriggerEvent::Scheduled {
                schedule: "0 4 * * *".into()
            }),
            0
        );
        assert_eq!(fabric.pump(), 0);
    }

    #[test]
    fn manual_invocation_reaches_handler() {
        let p = platform();
        let f = deploy(&p);
        let fabric = TriggerFabric::new(p.clone());
        let resp = fabric.invoke_manual(&f, b"{}".to_vec()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(p.with_billing(|b| b.usage(&f)).invocations, 1);
    }

    #[test]
    fn binding_unknown_function_fails() {
        let p = platform();
        let fabric = TriggerFabric::new(p);
        let ghost = Fqdn::parse("ghost.lambda-url.us-east-1.on.aws").unwrap();
        assert!(fabric
            .bind(&ghost, TriggerKind::Queue { queue: "q".into() })
            .is_err());
    }

    #[test]
    fn deleted_function_rejects_events() {
        let p = platform();
        let f = deploy(&p);
        let fabric = TriggerFabric::new(p.clone());
        fabric
            .bind(&f, TriggerKind::Queue { queue: "q".into() })
            .unwrap();
        p.delete(&f);
        fabric.publish(TriggerEvent::QueueMessage {
            queue: "q".into(),
            body: vec![],
        });
        fabric.pump();
        assert!(fabric.delivery_log().is_empty(), "no successful delivery");
    }

    /// Paper scoping check: event-triggered functions are invisible to
    /// the HTTP-centric measurement — an unbound, never-HTTP-invoked
    /// function produces no PDNS observations at all.
    #[test]
    fn trigger_only_functions_invisible_to_pdns() {
        use fw_dns::pdns::SharedPdns;
        let net = SimNet::new(5);
        let resolver = Arc::new(RwLock::new(Resolver::new()));
        let pdns = SharedPdns::new();
        resolver.write().set_sensor(Arc::new(pdns.clone()));
        let p = CloudPlatform::new(net, resolver, PlatformConfig::default());
        let f = deploy(&p);
        let fabric = TriggerFabric::new(p);
        fabric
            .bind(&f, TriggerKind::Queue { queue: "q".into() })
            .unwrap();
        fabric.publish(TriggerEvent::QueueMessage {
            queue: "q".into(),
            body: vec![],
        });
        fabric.pump();
        assert_eq!(pdns.lock().fqdn_count(), 0, "no DNS traffic, no PDNS rows");
    }
}
