//! The world generator.
//!
//! Generation order, per provider:
//!
//! 1. decide the population size (`Table 2 × scale`) and carve out the
//!    planted abuse and sensitive-leak functions for that provider;
//! 2. assign every remaining function a benign class from the Figure 6
//!    status-code calibration;
//! 3. deploy live functions on the platform (probed providers only),
//!    letting the platform mint Table 1-shaped domains; PDNS-only
//!    providers (Google 1st gen, IBM, Oracle) mint domains locally;
//! 4. sample the temporal profile — first-seen month (Figures 3/4
//!    events), request total (Figure 5 mixture), lifespan and activity
//!    density (§4.3) — under the invariant `days_count ≤ requests`;
//! 5. write daily PDNS rows, splitting each day's count across record
//!    types by the provider's Table 2 rtype mix and drawing rdata from
//!    Zipf-weighted pools sized to the provider's `rdata_cnt`.

use crate::calib;
use fw_abuse::c2::relay_template;
use fw_analysis::par::{default_workers, par_map_named};
use fw_cloud::behavior::{Behavior, LeakItem};
use fw_cloud::formats::format_for;
use fw_cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
use fw_cloud::provider::spec;
use fw_dns::pdns::{FqdnAggregate, PdnsBackend, PdnsStore};
use fw_dns::resolver::Resolver;
use fw_net::SimNet;
use fw_store::DiskStore;
use fw_types::{DayStamp, Fqdn, MonthStamp, ProviderId, Rdata, MEASUREMENT_START};
use parking_lot::RwLock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Abuse ground truth reuses the platform's behaviour labels.
pub use fw_cloud::behavior::AbuseCase;

/// Fixed partition width for parallel generation. The function space is
/// always split into this many shards regardless of how many worker
/// threads run them, so the sampled world depends only on the seed —
/// `gen_workers` merely schedules shards and can never change a byte of
/// output. 32 divides evenly across typical core counts and keeps the
/// per-shard population large enough to amortize the merge.
const GEN_SHARDS: usize = 32;

/// What a benign function is planted to do (drives Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenignClass {
    /// 404 on the parameter-free probe (the dominant bucket).
    Gated404,
    Ok200Json,
    Ok200Html,
    Ok200Plain,
    Ok200Other,
    Ok200Empty,
    Auth401,
    Err502,
    /// Deleted before probing: NXDOMAIN on Tencent, 403 on AWS, 404
    /// elsewhere.
    Deleted,
    /// VPC-internal: probe times out.
    Internal,
    /// Benign 302 to a well-known site (review must NOT flag these).
    BenignRedirect,
    /// Minor status buckets (405, 400, 500, 504...).
    Minor(u16),
}

/// Ground truth for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Truth {
    Benign(BenignClass),
    Abuse(AbuseCase),
    /// Benign JSON service leaking sensitive items (kind per item).
    Leak(Vec<&'static str>),
}

impl Truth {
    pub fn abuse_case(&self) -> Option<AbuseCase> {
        match self {
            Truth::Abuse(c) => Some(*c),
            _ => None,
        }
    }
}

/// Ground-truth record for one generated function.
#[derive(Debug, Clone)]
pub struct WorldFunction {
    pub fqdn: Fqdn,
    pub provider: ProviderId,
    pub region: String,
    pub truth: Truth,
    /// In the active-probing scope (§3.3)?
    pub probed: bool,
    /// Deployed live on the platform?
    pub deployed: bool,
    pub first_seen: DayStamp,
    pub last_seen: DayStamp,
    pub days_active: u32,
    pub total_requests: u64,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    pub seed: u64,
    /// Population scale relative to the paper (1.0 = 531k domains).
    pub scale: f64,
    /// Deploy live functions for probing (disable for PDNS-only
    /// experiments, which is much faster).
    pub deploy_live: bool,
    /// Run the world on the real wall clock instead of deterministic
    /// virtual time (the bench binaries' `--wall-clock` escape hatch;
    /// probe outcomes then race real timeouts and may wobble).
    pub wall_clock: bool,
    /// Worker threads for generation (0 = one per available core).
    /// Output is byte-identical at every worker count — see
    /// [`GEN_SHARDS`].
    pub gen_workers: usize,
    pub platform: PlatformConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            scale: 0.1,
            deploy_live: true,
            wall_clock: false,
            gen_workers: 0,
            platform: PlatformConfig::default(),
        }
    }
}

impl WorldConfig {
    /// The canonical PDNS-only world: fast, nothing deployed. Usage
    /// (§4) analyses and their snapshots use this shape; the minted
    /// offline domains differ from a live world's deployed ones at the
    /// same seed, so usage and live snapshots are not interchangeable.
    pub fn usage(seed: u64, scale: f64) -> WorldConfig {
        WorldConfig {
            seed,
            scale,
            deploy_live: false,
            wall_clock: false,
            gen_workers: 0,
            platform: PlatformConfig::default(),
        }
    }

    /// The canonical live world used by every probing experiment:
    /// functions deployed, with hangs outlasting the probe timeout so
    /// InternalOnly functions show up as timeouts like in the paper.
    pub fn live(seed: u64, scale: f64) -> WorldConfig {
        WorldConfig {
            seed,
            scale,
            deploy_live: true,
            wall_clock: false,
            gen_workers: 0,
            platform: PlatformConfig {
                hang_ms: 900,
                ..PlatformConfig::default()
            },
        }
    }

    /// Scale a full-scale population count (≥1 whenever the paper's count
    /// is non-zero).
    pub fn scaled(&self, full: u64) -> u64 {
        if full == 0 {
            return 0;
        }
        ((full as f64 * self.scale).round() as u64).max(1)
    }
}

/// The generated world.
pub struct World {
    pub net: SimNet,
    pub resolver: Arc<RwLock<Resolver>>,
    pub platform: CloudPlatform,
    pub pdns: PdnsStore,
    pub functions: Vec<WorldFunction>,
    pub config: WorldConfig,
}

impl World {
    /// Generate a world. Deterministic for a given config; the
    /// `gen_workers` field only changes wall time, never output.
    pub fn generate(config: WorldConfig) -> World {
        let (net, resolver, platform, pdns, functions) = generate_parts(&config, None);
        World {
            net,
            resolver,
            platform,
            pdns: pdns.expect("in-memory generation yields a store"),
            functions,
            config,
        }
    }

    /// Generate a world streaming its PDNS rows straight into `store`
    /// instead of materializing them in memory — the fused pipeline's
    /// generate→ingest fusion. Samples the exact same world as
    /// [`World::generate`] at the same config (every RNG stream is
    /// untouched by the sink choice): the row multiset landing in
    /// `store` equals `World::generate(config).pdns`, and the returned
    /// functions are element-wise identical. The caller owns sealing
    /// (`seal`, or per-shard `seal_shard`) afterwards;
    /// [`write_snapshot`](crate::write_snapshot) does both steps.
    pub fn generate_into(config: WorldConfig, store: &DiskStore) -> FusedWorld {
        let (net, resolver, platform, _none, functions) = generate_parts(&config, Some(store));
        FusedWorld {
            net,
            resolver,
            platform,
            functions,
            config,
        }
    }

    /// Ground-truth abused functions (for experiment scoring).
    pub fn abuse_functions(&self) -> impl Iterator<Item = &WorldFunction> {
        self.functions
            .iter()
            .filter(|f| matches!(f.truth, Truth::Abuse(_)))
    }

    /// Domains in the active probing scope.
    pub fn probed_domains(&self) -> Vec<Fqdn> {
        self.functions
            .iter()
            .filter(|f| f.probed)
            .map(|f| f.fqdn.clone())
            .collect()
    }
}

/// A world generated by [`World::generate_into`]: identical to
/// [`World`] except the PDNS rows live only in the [`DiskStore`] the
/// caller supplied, never as an in-memory [`PdnsStore`]. Dropping that
/// materialization is what lets the fused pipeline run scale 1.0 in a
/// fraction of the in-memory world's peak RSS.
pub struct FusedWorld {
    pub net: SimNet,
    pub resolver: Arc<RwLock<Resolver>>,
    pub platform: CloudPlatform,
    pub functions: Vec<WorldFunction>,
    pub config: WorldConfig,
}

/// Shared generation engine behind [`World::generate`] (no `disk`) and
/// [`World::generate_into`] (rows stream into `disk`). The sink choice
/// can never change a sampled byte: every RNG draw happens before the
/// row reaches the sink.
fn generate_parts(
    config: &WorldConfig,
    disk: Option<&DiskStore>,
) -> (
    SimNet,
    Arc<RwLock<Resolver>>,
    CloudPlatform,
    Option<PdnsStore>,
    Vec<WorldFunction>,
) {
    let _span = fw_obs::span("gen/world");
    let net = if config.wall_clock {
        SimNet::new_wall(config.seed)
    } else {
        SimNet::new(config.seed)
    };
    let resolver = Arc::new(RwLock::new(Resolver::new()));
    let platform = CloudPlatform::new(
        net.clone(),
        resolver.clone(),
        PlatformConfig {
            seed: config.seed ^ 0x5eed,
            ..config.platform.clone()
        },
    );
    // Provider zones/listeners registered up front in catalogue
    // order, so resolver state doesn't depend on which worker's
    // deploy gets there first.
    if config.deploy_live {
        for c in &calib::PROVIDERS {
            if c.provider.function_identifiable() {
                platform.warm_provider(c.provider);
            }
        }
    }

    let pools = build_pools(config);
    let plan = AbusePlan::build(config);
    let workers = match config.gen_workers {
        0 => default_workers(),
        w => w,
    }
    .clamp(1, GEN_SHARDS);
    fw_obs::counter_add!("fw.gen.workers", workers as u64);

    // Every shard generates its own deterministic slice of each
    // provider's population, then the slices merge in shard order. In
    // fused mode the rows go straight into the shared store (exact-key
    // merge makes the table independent of writer interleaving) and
    // only the functions come back.
    let shards: Vec<usize> = (0..GEN_SHARDS).collect();
    let parts: Vec<(Option<PdnsStore>, Vec<WorldFunction>)> =
        par_map_named(&shards, workers, "gen/worker", |_, shard| {
            let _trace = fw_obs::trace_span_arg("gen/shard", *shard as u64);
            let mut gen = Generator {
                rng: SmallRng::seed_from_u64(fw_types::fnv::stream_seed(
                    config.seed,
                    *shard as u64,
                )),
                sink: GenSink::new(disk),
                functions: Vec::new(),
                platform: &platform,
                config,
                pools: &pools,
            };
            for (p_idx, c) in calib::PROVIDERS.iter().enumerate() {
                gen.generate_provider_shard(c, p_idx, &plan, *shard);
            }
            (gen.sink.into_pdns(), gen.functions)
        });

    let mut pdns = disk.is_none().then(PdnsStore::new);
    let mut functions = Vec::new();
    for (part_pdns, part_functions) in parts {
        if let (Some(dst), Some(src)) = (pdns.as_mut(), part_pdns) {
            dst.absorb(src);
        }
        functions.extend(part_functions);
    }

    // The request-total top-up runs serially over the merged world;
    // its RNG stream is its own, so it sees the same state whatever
    // the worker count was.
    let (pdns, functions) = {
        let mut gen = Generator {
            rng: SmallRng::seed_from_u64(fw_types::fnv::stream_seed(config.seed, 0xF1AA_707A1)),
            sink: match pdns {
                Some(p) => GenSink::Mem(p),
                None => GenSink::new(disk),
            },
            functions,
            platform: &platform,
            config,
            pools: &pools,
        };
        gen.match_provider_totals();
        (gen.sink.into_pdns(), gen.functions)
    };
    fw_obs::counter_add!("fw.gen.shards", GEN_SHARDS as u64);
    fw_obs::counter_add!("fw.gen.functions", functions.len() as u64);
    if let Some(p) = &pdns {
        fw_obs::counter_add!("fw.gen.pdns_rows", p.record_count() as u64);
    }
    (net, resolver, platform, pdns, functions)
}

/// Zipf-weighted rdata pool for one provider/rtype.
struct RdataPool {
    provider: ProviderId,
    is_v6: bool,
    values: Vec<Rdata>,
    cumulative: Vec<f64>,
}

/// Where a [`Generator`] writes its PDNS rows. `Mem` is the in-memory
/// world: a private per-shard [`PdnsStore`], merged after generation.
/// `Disk` streams every row into a shared [`DiskStore`] the moment it
/// is sampled, which is the generate→ingest fusion. The two sinks make
/// identical RNG draws, so the sampled world cannot depend on the sink.
enum GenSink<'a> {
    Mem(PdnsStore),
    Disk {
        store: &'a DiskStore,
        /// Fqdns this generator has written at least one row for.
        /// Mirrors the `Mem` uniqueness probe
        /// `records_for(fqdn).is_empty()` exactly: rows only enter a
        /// shard-private store through this generator's
        /// `observe_fqdn_batch`, so local membership is the same predicate —
        /// and, unlike probing the shared store, it cannot see other
        /// shards' rows (which `Mem` mode never could).
        minted: HashSet<Fqdn, fw_types::fnv::FnvBuildHasher>,
    },
}

impl<'a> GenSink<'a> {
    fn new(disk: Option<&'a DiskStore>) -> GenSink<'a> {
        match disk {
            None => GenSink::Mem(PdnsStore::new()),
            Some(store) => GenSink::Disk {
                store,
                minted: HashSet::default(),
            },
        }
    }

    /// Emit one fqdn's rows as a batch: row-for-row equivalent to
    /// observing each `(rdata, day, count)` in iteration order (`Mem`
    /// does exactly that), but `Disk` amortizes the shard lock and
    /// table lookup over the whole batch instead of paying them per
    /// row. Zero counts are skipped on both sinks.
    fn observe_fqdn_batch<'r>(
        &mut self,
        fqdn: &Fqdn,
        rows: impl Iterator<Item = (&'r Rdata, DayStamp, u64)>,
    ) {
        match self {
            GenSink::Mem(pdns) => {
                for (rdata, day, count) in rows {
                    pdns.observe_count(fqdn, rdata, day, count);
                }
            }
            GenSink::Disk { store, minted } => {
                let mut any = false;
                store.observe_rows(fqdn, rows.inspect(|(_, _, c)| any |= *c > 0));
                if any && !minted.contains(fqdn) {
                    minted.insert(fqdn.clone());
                }
            }
        }
    }

    /// Has this generator written any rows for `fqdn`?
    fn fqdn_minted(&self, fqdn: &Fqdn) -> bool {
        match self {
            GenSink::Mem(pdns) => !pdns.records_for(fqdn).is_empty(),
            GenSink::Disk { minted, .. } => minted.contains(fqdn),
        }
    }

    fn aggregate(&self, fqdn: &Fqdn) -> Option<FqdnAggregate> {
        match self {
            GenSink::Mem(pdns) => pdns.aggregate(fqdn),
            GenSink::Disk { store, .. } => PdnsBackend::aggregate(*store, fqdn),
        }
    }

    fn into_pdns(self) -> Option<PdnsStore> {
        match self {
            GenSink::Mem(pdns) => Some(pdns),
            GenSink::Disk { .. } => None,
        }
    }
}

struct Generator<'a> {
    rng: SmallRng,
    sink: GenSink<'a>,
    functions: Vec<WorldFunction>,
    platform: &'a CloudPlatform,
    config: &'a WorldConfig,
    /// (provider, rtype-slot 0=A,1=CNAME,2=AAAA) → pool. Shared
    /// read-only across generation shards.
    pools: &'a [RdataPool],
}

// ---- rdata pools (Table 2 rdata_cnt + Top10 concentration) ----

fn build_pools(config: &WorldConfig) -> Vec<RdataPool> {
    let mut pools = Vec::new();
    for (p_idx, c) in calib::PROVIDERS.iter().enumerate() {
        let (a_pool, cname_pool, v6_pool) = c.rdata_pool;
        let theta = zipf_theta(c.provider);
        for (slot, full) in [(0u8, a_pool), (1, cname_pool), (2, v6_pool)] {
            if full == 0 {
                continue;
            }
            let n = scaled_pool(full, config.scale);
            let values: Vec<Rdata> = (0..n)
                .map(|k| match slot {
                    0 => Rdata::V4(pool_v4(p_idx as u8, k)),
                    2 => Rdata::V6(
                        format!("2001:db8:{}:ffff::{:x}", p_idx, k + 1)
                            .parse()
                            .expect("valid v6"),
                    ),
                    _ => {
                        let region =
                            spec(c.provider).regions[k as usize % spec(c.provider).regions.len()];
                        let host = format!("{region}-lb{k}.{}", cname_suffix(c.provider));
                        Rdata::Name(Fqdn::parse(&host).expect("valid cname"))
                    }
                })
                .collect();
            let mut cumulative = Vec::with_capacity(values.len());
            let mut acc = 0.0;
            for rank in 1..=values.len() {
                acc += 1.0 / (rank as f64).powf(theta);
                cumulative.push(acc);
            }
            pools.push(RdataPool {
                provider: c.provider,
                is_v6: slot == 2,
                values,
                cumulative,
            });
        }
    }
    pools
}

impl<'a> Generator<'a> {
    fn pool_position(&self, provider: ProviderId, slot: u8) -> Option<usize> {
        self.pools.iter().position(|p| {
            p.provider == provider
                && match slot {
                    0 => !p.is_v6 && matches!(p.values[0], Rdata::V4(_)),
                    1 => matches!(p.values[0], Rdata::Name(_)),
                    _ => p.is_v6,
                }
        })
    }

    // ---- population ----

    /// Generate one shard's slice of a provider's population: global
    /// function indices `[n·s/32, n·(s+1)/32)`. Planted abuse and leak
    /// functions occupy the low indices (in plan order), benign fills
    /// the rest; which shard owns an index never depends on the worker
    /// count, and all sampling for the slice comes from this shard's
    /// own RNG stream.
    fn generate_provider_shard(
        &mut self,
        c: &calib::ProviderCalib,
        p_idx: usize,
        plan: &AbusePlan,
        shard: usize,
    ) {
        let probed = c.provider.function_identifiable();

        // Carve out planted functions for this provider.
        let abuse: Vec<&PlannedAbuse> = plan
            .entries
            .iter()
            .filter(|e| e.provider == c.provider)
            .collect();
        let leaks: &[Vec<LeakItem>] = if c.provider == plan.leak_provider {
            &plan.leaks
        } else {
            &[]
        };
        let planted = abuse.len() + leaks.len();
        // Planted functions are never dropped, even if the scaled
        // population is smaller than the plan.
        let n = (self.config.scaled(c.domains) as usize).max(planted);

        let lo = n * shard / GEN_SHARDS;
        let hi = n * (shard + 1) / GEN_SHARDS;

        for i in lo..hi {
            let fplan = if i < abuse.len() {
                FunctionPlan::Abuse(abuse[i].clone())
            } else if i < planted {
                FunctionPlan::Leak(leaks[i - abuse.len()].clone())
            } else {
                FunctionPlan::Benign(self.sample_benign_class(c.provider))
            };
            // Deployment entropy is a pure function of (seed, provider,
            // index): the platform's minted domain can't drift with
            // deployment interleaving across workers.
            let entropy = fw_types::fnv::fold(
                fw_types::fnv::stream_seed(self.config.seed, 0xDE_9107),
                ((p_idx as u64) << 32) | i as u64,
            );
            self.generate_function(c, fplan, probed, entropy);
        }
    }

    /// Figure 6 calibrated benign-class roll for one provider.
    fn sample_benign_class(&mut self, provider: ProviderId) -> BenignClass {
        let r: f64 = self.rng.gen();
        // Provider-specific carve-outs first.
        match provider {
            ProviderId::Tencent => {
                // 19.12% of the 2.03% unreachable are Tencent DNS
                // failures; as a fraction of Tencent's own population:
                let tencent_deleted = calib::FRACTION_UNREACHABLE
                    * calib::FRACTION_UNREACHABLE_DNS
                    * calib::PAPER_PROBED as f64
                    / 6_154.0;
                if r < tencent_deleted {
                    return BenignClass::Deleted;
                }
            }
            ProviderId::Aws => {
                // AWS's outsized 502 share (§4.4) and 403-for-deleted.
                let aws_502 =
                    calib::FRACTION_502 * calib::AWS_SHARE_OF_502 * calib::PAPER_PROBED as f64
                        / 19_683.0;
                if r < aws_502 {
                    return BenignClass::Err502;
                }
                if r < aws_502 + 0.02 {
                    return BenignClass::Deleted; // → 403 bucket
                }
            }
            _ => {}
        }
        // Shared table (re-roll for independence from the carve-outs).
        let r: f64 = self.rng.gen();
        let internal = calib::FRACTION_UNREACHABLE * (1.0 - calib::FRACTION_UNREACHABLE_DNS);
        let err502 = if provider == ProviderId::Aws {
            0.0 // handled above
        } else {
            calib::FRACTION_502 * (1.0 - calib::AWS_SHARE_OF_502) * calib::PAPER_PROBED as f64
                / (calib::PAPER_PROBED as f64 - 19_683.0)
        };
        let ok200 = calib::FRACTION_200;
        let mut acc = internal;
        if r < acc {
            return BenignClass::Internal;
        }
        acc += err502;
        if r < acc {
            return BenignClass::Err502;
        }
        acc += calib::FRACTION_401;
        if r < acc {
            return BenignClass::Auth401;
        }
        acc += ok200;
        if r < acc {
            // Inside the 200 bucket: empty vs content mix.
            let r2: f64 = self.rng.gen();
            if r2 > calib::FRACTION_200_NONEMPTY {
                return BenignClass::Ok200Empty;
            }
            let r3: f64 = self.rng.gen();
            return if r3 < calib::CONTENT_MIX_JSON {
                BenignClass::Ok200Json
            } else if r3 < calib::CONTENT_MIX_JSON + calib::CONTENT_MIX_HTML {
                BenignClass::Ok200Html
            } else if r3
                < calib::CONTENT_MIX_JSON + calib::CONTENT_MIX_HTML + calib::CONTENT_MIX_PLAIN
            {
                BenignClass::Ok200Plain
            } else {
                BenignClass::Ok200Other
            };
        }
        // Minor buckets.
        for (p, class) in [
            (0.003, BenignClass::Minor(405)),
            (0.0025, BenignClass::Minor(400)),
            (0.003, BenignClass::Minor(500)),
            (0.0015, BenignClass::Minor(504)),
            (0.001, BenignClass::BenignRedirect),
        ] {
            acc += p;
            if r < acc {
                return class;
            }
        }
        BenignClass::Gated404
    }

    fn generate_function(
        &mut self,
        c: &calib::ProviderCalib,
        plan: FunctionPlan,
        probed: bool,
        entropy: u64,
    ) {
        let provider = c.provider;
        // Region: abuse geo-proxies must sit outside China.
        let region = self.pick_region(provider, &plan);

        // Temporal profile.
        let (first_seen, requests, lifespan, contiguous) = self.temporal(provider, &plan);
        let last_seen = first_seen + (lifespan - 1);
        let days = self.active_days(first_seen, lifespan, contiguous, requests);
        let truth = plan.truth();

        // Live deployment (probed providers only).
        let (fqdn, deployed) = if probed && self.config.deploy_live {
            let behavior = self.behavior_for(&plan, provider);
            let mut dspec = DeploySpec::new(provider, behavior)
                .in_region(&region)
                .with_entropy(entropy);
            if matches!(plan.benign_class(), Some(BenignClass::Auth401)) {
                dspec = dspec.with_auth();
            }
            let deployed = self.platform.deploy(dspec).expect("valid deployment plan");
            if matches!(plan.benign_class(), Some(BenignClass::Deleted)) {
                self.platform.delete(&deployed.fqdn);
            }
            (deployed.fqdn, true)
        } else {
            (self.mint_offline_domain(provider, &region), false)
        };

        // PDNS rows.
        self.write_pdns_rows(provider, &fqdn, &days, requests);

        self.functions.push(WorldFunction {
            fqdn,
            provider,
            region,
            truth,
            probed,
            deployed,
            first_seen,
            last_seen,
            days_active: days.len() as u32,
            total_requests: requests,
        });
    }

    fn pick_region(&mut self, provider: ProviderId, plan: &FunctionPlan) -> String {
        let regions = spec(provider).regions;
        let geo_bypass = matches!(
            plan,
            FunctionPlan::Abuse(PlannedAbuse {
                case: AbuseCase::GeoProxy,
                ..
            })
        );
        for _ in 0..32 {
            let r = regions[self.rng.gen_range(0..regions.len())];
            if !geo_bypass || !fw_abuse::proxy::region_is_china(r) {
                return r.to_string();
            }
        }
        regions[0].to_string()
    }

    /// First-seen day, request total, lifespan, contiguity.
    fn temporal(
        &mut self,
        provider: ProviderId,
        plan: &FunctionPlan,
    ) -> (DayStamp, u64, i64, bool) {
        // Month by Figure 3/4 weights (abuse cases override).
        let month_weights: Vec<f64> = (0..calib::MONTHS)
            .map(|m| self.plan_month_weight(provider, plan, m))
            .collect();
        let month = sample_weighted(&mut self.rng, &month_weights);
        let month_stamp = month_of_index(month);
        let day_in_month = self.rng.gen_range(0..month_stamp.len_days());
        let first_seen = month_stamp.first_day() + day_in_month;

        let requests = match plan {
            FunctionPlan::Abuse(a) => a.requests.max(1),
            _ => self.sample_requests(provider),
        };

        let max_span = (fw_types::MEASUREMENT_END - first_seen + 1).max(1);
        let lifespan = match plan {
            FunctionPlan::Abuse(a) => a.lifespan_days.min(max_span).max(1),
            _ => self.sample_lifespan(requests).min(max_span),
        };
        let contiguous = match plan {
            FunctionPlan::Abuse(_) => true,
            _ => lifespan <= 4,
        };
        (first_seen, requests, lifespan, contiguous)
    }

    fn plan_month_weight(&self, provider: ProviderId, plan: &FunctionPlan, m: usize) -> f64 {
        if let FunctionPlan::Abuse(a) = plan {
            match a.case {
                AbuseCase::OpenAiResale => {
                    // Figure 7: promos appear Jan–May 2023, peaking early.
                    return if (calib::MONTH_OPENAI_WAVE_START..=calib::MONTH_OPENAI_WAVE_END)
                        .contains(&m)
                    {
                        match m - calib::MONTH_OPENAI_WAVE_START {
                            0 => 2.0,
                            1 => 3.0,
                            2 => 2.5,
                            3 => 1.5,
                            _ => 1.0,
                        }
                    } else {
                        0.0
                    };
                }
                AbuseCase::Gambling => {
                    // Long-lived (§5.2): start early in the window.
                    return if m <= 8 { 1.0 } else { 0.0 };
                }
                _ => {}
            }
        }
        calib::first_seen_weight(provider, m)
    }

    /// Figure 5 mixture. The heavy-tail upper bound is capped per
    /// provider (≈2× the provider's Table 2 mean) so that provider totals
    /// stay near their targets; `match_provider_totals` tops up any
    /// deficit afterwards.
    fn sample_requests(&mut self, provider: ProviderId) -> u64 {
        let weights: Vec<f64> = calib::REQUEST_MIXTURE.iter().map(|(w, _, _)| *w).collect();
        let bucket = sample_weighted(&mut self.rng, &weights);
        let (_, lo, hi) = calib::REQUEST_MIXTURE[bucket];
        if bucket == calib::REQUEST_MIXTURE.len() - 1 {
            let c = calib::provider_calib(provider).expect("calibrated provider");
            let avg = (c.total_requests / c.domains.max(1)).max(1);
            let hi = (2 * avg).clamp(lo + 101, hi);
            // Heavy tail: log-uniform.
            let llo = (lo as f64).ln();
            let lhi = (hi as f64).ln();
            self.rng.gen_range(llo..lhi).exp() as u64
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// §4.3 lifespan mixture, constrained by the request count.
    fn sample_lifespan(&mut self, requests: u64) -> i64 {
        if requests < 2 {
            return 1;
        }
        let weights: Vec<f64> = calib::LIFESPAN_MIXTURE.iter().map(|(w, ..)| *w).collect();
        let bucket = sample_weighted(&mut self.rng, &weights);
        let (_, lo, hi, _) = calib::LIFESPAN_MIXTURE[bucket];
        if lo == hi {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// The set of days with activity. Guarantees first and last day
    /// present and `len ≤ requests`.
    fn active_days(
        &mut self,
        first: DayStamp,
        lifespan: i64,
        contiguous: bool,
        requests: u64,
    ) -> Vec<DayStamp> {
        if lifespan <= 1 || requests < 2 {
            return vec![first];
        }
        let last = first + (lifespan - 1);
        if contiguous {
            let take = lifespan.min(requests as i64);
            // All days when requests allow, else evenly spread with the
            // endpoints pinned.
            if take >= lifespan {
                return (0..lifespan).map(|d| first + d).collect();
            }
        }
        // Intermittent: density × lifespan days, clamped by requests.
        let density: f64 = self.rng.gen_range(0.05..0.9);
        let want = ((lifespan as f64 * density).round() as i64)
            .clamp(2, lifespan)
            .min(requests as i64) as usize;
        let mut days = vec![first, last];
        while days.len() < want {
            let d = first + self.rng.gen_range(1..lifespan - 1).max(1);
            days.push(d);
        }
        days.sort_unstable();
        days.dedup();
        days
    }

    /// Write the daily PDNS rows for one function.
    fn write_pdns_rows(
        &mut self,
        provider: ProviderId,
        fqdn: &Fqdn,
        days: &[DayStamp],
        requests: u64,
    ) {
        let c = calib::provider_calib(provider).expect("calibrated provider");
        debug_assert!(days.len() as u64 <= requests || days.len() == 1);
        // Every active day gets one observation (an active day IS a day
        // with ≥1 query); the remainder is distributed by the Figure 4
        // monthly multipliers (the Tencent Jan-2024 cliff).
        let weights: Vec<f64> = days
            .iter()
            .map(|d| calib::request_weight(provider, month_index(*d)))
            .collect();
        let wsum: f64 = weights.iter().sum();
        let extra = requests.saturating_sub(days.len() as u64);
        let mut per_day: Vec<u64> = vec![1; days.len()];
        let mut allocated = 0u64;
        for (i, w) in weights.iter().enumerate() {
            let share = if i + 1 == days.len() {
                extra - allocated
            } else if wsum > 0.0 {
                ((extra as f64) * w / wsum).floor() as u64
            } else {
                0
            };
            let share = share.min(extra - allocated);
            allocated += share;
            per_day[i] += share;
        }

        let (a_share, cname_share, v6_share) = c.rtype_share;
        // Draw the whole fqdn's rows first (all randomness is consumed
        // here, so batching cannot change a sampled byte), then hand
        // them to the sink as one batch.
        let mut batch: Vec<(usize, usize, DayStamp, u64)> = Vec::with_capacity(days.len());
        for (day, cnt) in days.iter().zip(per_day) {
            // Split across rtypes; clamp so the parts sum exactly to cnt.
            let a_cnt = ((cnt as f64 * a_share).round() as u64).min(cnt);
            let v6_cnt = ((cnt as f64 * v6_share).round() as u64).min(cnt - a_cnt);
            let cname_cnt = cnt - a_cnt - v6_cnt;
            for (slot, sub) in [(0u8, a_cnt), (1, cname_cnt), (2, v6_cnt)] {
                if sub == 0 {
                    continue;
                }
                let Some(pidx) = self.pool_position(provider, slot) else {
                    continue;
                };
                // One rdata draw per day/rtype (a resolver answers from
                // one node for the whole TTL window).
                let total = *self.pools[pidx].cumulative.last().expect("pool non-empty");
                let x = self.rng.gen_range(0.0..total);
                let pool = &self.pools[pidx];
                let idx = pool
                    .cumulative
                    .partition_point(|cum| *cum < x)
                    .min(pool.values.len() - 1);
                batch.push((pidx, idx, *day, sub));
            }
            let _ = cname_share;
        }
        let pools = self.pools;
        self.sink.observe_fqdn_batch(
            fqdn,
            batch
                .iter()
                .map(|&(p, i, day, cnt)| (&pools[p].values[i], day, cnt)),
        );
    }

    /// Boost the heaviest benign functions so per-provider request totals
    /// approach the Table 2 targets: the tail carries the volume, like
    /// the long-running high-demand applications §4.3 describes. Each
    /// boosted function becomes a long-lived hot API (the heaviest one
    /// spans the whole window, reproducing the handful of full-window
    /// functions the paper notes), and its traffic draws fresh ingress
    /// rdata every day — which is what keeps AWS's Top10 concentration
    /// low (Table 2) despite the volume.
    fn match_provider_totals(&mut self) {
        for c in &calib::PROVIDERS {
            let target = (c.total_requests as f64 * self.config.scale) as u64;
            let current: u64 = self
                .functions
                .iter()
                .filter(|f| f.provider == c.provider)
                .map(|f| f.total_requests)
                .sum();
            if current >= target || current == 0 {
                continue;
            }
            let deficit = target - current;

            // The heaviest benign functions, by request count.
            let mut candidates: Vec<usize> = self
                .functions
                .iter()
                .enumerate()
                .filter(|(_, f)| f.provider == c.provider && matches!(f.truth, Truth::Benign(_)))
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            candidates.sort_by_key(|i| std::cmp::Reverse(self.functions[*i].total_requests));
            let k = (candidates.len() / 50).clamp(1, 50).min(candidates.len());
            candidates.truncate(k);

            // Rank-weighted shares of the deficit.
            let weights: Vec<f64> = (1..=k).map(|r| 1.0 / (r as f64).sqrt()).collect();
            let wsum: f64 = weights.iter().sum();
            let mut allocated = 0u64;
            for (rank, idx) in candidates.iter().enumerate() {
                let share = if rank + 1 == k {
                    deficit - allocated
                } else {
                    ((deficit as f64) * weights[rank] / wsum) as u64
                };
                let share = share.min(deficit - allocated);
                allocated += share;
                if share == 0 {
                    continue;
                }
                let (fqdn, days, new_first, new_last) = {
                    let f = &self.functions[*idx];
                    // The top function spans the provider's entire
                    // availability window (Tencent/Kingsoft only exist
                    // after their function-URL launches); the rest run
                    // from their first sighting to the window end.
                    let start = if rank == 0 {
                        provider_window_start(c.provider)
                    } else {
                        f.first_seen
                    };
                    let end = fw_types::MEASUREMENT_END;
                    let mut days: Vec<DayStamp> =
                        (0..(end - start + 1)).map(|d| start + d).collect();
                    if days.len() as u64 > share {
                        days.truncate(share.max(1) as usize);
                    }
                    let new_last = *days.last().expect("non-empty");
                    (f.fqdn.clone(), days, start.min(f.first_seen), new_last)
                };
                self.write_pdns_rows(c.provider, &fqdn, &days, share);
                let agg = self.sink.aggregate(&fqdn).expect("rows just written");
                let f = &mut self.functions[*idx];
                f.total_requests += share;
                f.first_seen = new_first.min(agg.first_seen_all);
                f.last_seen = new_last.max(f.last_seen);
                f.days_active = agg.days_count;
            }
        }
    }

    /// Behaviour for a live deployment.
    fn behavior_for(&mut self, plan: &FunctionPlan, provider: ProviderId) -> Behavior {
        match plan {
            FunctionPlan::Benign(class) => self.benign_behavior(*class),
            FunctionPlan::Leak(items) => Behavior::SensitiveLeak {
                service: format!("svc{}", self.rng.gen_range(0..10_000)),
                items: items.clone(),
            },
            FunctionPlan::Abuse(a) => self.abuse_behavior(a, provider),
        }
    }

    fn benign_behavior(&mut self, class: BenignClass) -> Behavior {
        let n = self.rng.gen_range(0..10_000u32);
        match class {
            BenignClass::Gated404 => Behavior::PathGated {
                good_path: format!("/api/v{}/{}", self.rng.gen_range(1..4), n),
            },
            BenignClass::Ok200Json => Behavior::JsonApi {
                service: format!("svc{n}"),
            },
            BenignClass::Ok200Html => Behavior::HtmlPage {
                title: format!("Site {n}"),
            },
            BenignClass::Ok200Plain => Behavior::PlainLog {
                tag: format!("job{n}"),
            },
            BenignClass::Ok200Other => Behavior::ScriptOutput { xml: n % 2 == 0 },
            BenignClass::Ok200Empty => Behavior::EmptyOk,
            // The platform's auth layer produces the 401; behaviour
            // behind it is irrelevant.
            BenignClass::Auth401 => Behavior::JsonApi {
                service: format!("locked{n}"),
            },
            BenignClass::Err502 => Behavior::Crasher,
            BenignClass::Deleted => Behavior::EmptyOk,
            BenignClass::Internal => Behavior::InternalOnly,
            BenignClass::BenignRedirect => Behavior::RedirectHttp {
                location: "https://www.bilibili.com/".to_string(),
            },
            BenignClass::Minor(status) => Behavior::FixedStatus { status },
        }
    }

    fn abuse_behavior(&mut self, a: &PlannedAbuse, _provider: ProviderId) -> Behavior {
        match a.case {
            AbuseCase::C2 => {
                let tpl = relay_template(a.variant as usize);
                Behavior::C2Relay {
                    family: tpl.family.to_string(),
                    trigger_path: tpl.trigger_path,
                    trigger_magic: tpl.trigger_magic,
                    reply: tpl.reply,
                }
            }
            AbuseCase::Gambling => {
                const BRANDS: [&str; 6] = [
                    "LuckyWin",
                    "MegaBet",
                    "GoldJackpot",
                    "SpinKing",
                    "BetRiver",
                    "SlotStar",
                ];
                Behavior::GamblingSite {
                    brand: BRANDS[a.variant as usize % BRANDS.len()].to_string(),
                    campaign: a.variant / 8, // campaign-consistent groups
                }
            }
            AbuseCase::Porn => Behavior::PornSite {
                name: format!("NightTube{}", a.variant),
            },
            AbuseCase::Cheat => Behavior::CheatTool {
                tool: format!("AccountToolbox v{}", a.variant + 1),
            },
            AbuseCase::Redirect => match a.variant % 4 {
                0 => Behavior::RedirectHttp {
                    location: format!("https://fxbtg-trade{}.example-illicit.net/login", a.variant),
                },
                1 => Behavior::RedirectJs {
                    target: format!("http://dlcy{}.zeldalink-like.top/wlxcList.html", a.variant),
                },
                2 => Behavior::RedirectRandomSplice {
                    suffix: format!("rnd{}.example-illicit.xyz", a.variant),
                },
                _ => Behavior::RedirectRandomSelect {
                    urls: vec![
                        format!("https://hidden{}.example-illicit.net/", a.variant),
                        "https://www.bilibili.com/".to_string(),
                    ],
                },
            },
            AbuseCase::OpenAiResale => {
                if a.sells_accounts {
                    Behavior::OpenAiAccountSale {
                        contact: format!("QQ: 8{:08}", 7_700_000 + u64::from(a.group)),
                    }
                } else {
                    Behavior::OpenAiKeyPromo {
                        contact: format!("WeChat: wx_keyshop_{:03}", a.group),
                        key_prefix: "sk-s5S5BoV".to_string(),
                    }
                }
            }
            AbuseCase::IllegalProxy => {
                const SERVICES: [&str; 4] = ["scraper", "ticketmaster", "tiktok", "music"];
                Behavior::IllegalServiceProxy {
                    service: SERVICES[a.variant as usize % SERVICES.len()].to_string(),
                }
            }
            AbuseCase::GeoProxy => match a.variant % 8 {
                0 => Behavior::OpenAiProxyFrontend,
                6 => Behavior::GithubProxy,
                7 => Behavior::VpnProxy,
                _ => Behavior::OpenAiProxyApi,
            },
        }
    }

    /// Mint a Table 1-shaped domain without a live deployment (PDNS-only
    /// providers and `deploy_live = false` worlds).
    fn mint_offline_domain(&mut self, provider: ProviderId, region: &str) -> Fqdn {
        use fw_cloud::formats::UrlParts;
        let format = format_for(provider);
        loop {
            let alphabet: &[u8] = if provider == ProviderId::Aliyun {
                b"abcdefghijklmnopqrstuvwxyz"
            } else {
                b"abcdefghijklmnopqrstuvwxyz0123456789"
            };
            let rand_len = format.random_len.max(8);
            let random: String = (0..rand_len)
                .map(|_| alphabet[self.rng.gen_range(0..alphabet.len())] as char)
                .collect();
            let random = if format.random_len > 0 {
                random[..format.random_len].to_string()
            } else {
                random
            };
            let parts = UrlParts {
                fname: format!("fn{}", self.rng.gen_range(0..1_000_000u32)),
                pname: format!("proj{}", self.rng.gen_range(0..1_000_000u32)),
                user_id: format!(
                    "{:010}",
                    self.rng.gen_range(1_250_000_000u64..1_399_999_999)
                ),
                random,
                region: region.to_string(),
            };
            let (fqdn, _) = format.generate(&parts);
            // Uniqueness against everything this generator minted so
            // far (shard-private in both sink modes).
            if !self.sink.fqdn_minted(&fqdn) {
                return fqdn;
            }
        }
    }
}

// ---- abuse planning ----

#[derive(Debug, Clone)]
struct PlannedAbuse {
    case: AbuseCase,
    provider: ProviderId,
    /// Per-case sequence number (brands, campaigns, redirect variants).
    variant: u32,
    /// Contact-group id for resale promos.
    group: u32,
    sells_accounts: bool,
    requests: u64,
    lifespan_days: i64,
}

#[derive(Debug, Clone)]
enum FunctionPlan {
    Benign(BenignClass),
    Abuse(PlannedAbuse),
    Leak(Vec<LeakItem>),
}

impl FunctionPlan {
    fn truth(&self) -> Truth {
        match self {
            FunctionPlan::Benign(c) => Truth::Benign(*c),
            FunctionPlan::Abuse(a) => Truth::Abuse(a.case),
            FunctionPlan::Leak(items) => Truth::Leak(
                items
                    .iter()
                    .map(|i| match i {
                        LeakItem::Phone(_) => "phone",
                        LeakItem::NationalId(_) => "national_id",
                        LeakItem::AccessToken(_) => "token",
                        LeakItem::ApiKey(_) => "api_key",
                        LeakItem::Password(_) => "password",
                        LeakItem::NetworkId(_) => "network_id",
                    })
                    .collect(),
            ),
        }
    }

    fn benign_class(&self) -> Option<BenignClass> {
        match self {
            FunctionPlan::Benign(c) => Some(*c),
            _ => None,
        }
    }
}

struct AbusePlan {
    entries: Vec<PlannedAbuse>,
    leaks: Vec<Vec<LeakItem>>,
    leak_provider: ProviderId,
}

impl AbusePlan {
    fn build(config: &WorldConfig) -> AbusePlan {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xab5e);
        let mut entries = Vec::new();

        let push_case = |case: AbuseCase,
                         calib: calib::AbuseCalib,
                         providers: &[ProviderId],
                         lifespan: &dyn Fn(&mut SmallRng, u32) -> i64,
                         entries: &mut Vec<PlannedAbuse>,
                         rng: &mut SmallRng| {
            let n = config.scaled(calib.functions);
            let budget = (calib.requests as f64 * config.scale).max(1.0) as u64;
            // Random weights for the per-function request split.
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
            let wsum: f64 = weights.iter().sum();
            let mut allocated = 0u64;
            for i in 0..n {
                let req = if i + 1 == n {
                    budget.saturating_sub(allocated).max(1)
                } else {
                    (((budget as f64) * weights[i as usize] / wsum) as u64).max(1)
                };
                allocated += req;
                entries.push(PlannedAbuse {
                    case,
                    provider: providers[i as usize % providers.len()],
                    variant: i as u32,
                    group: 0,
                    sells_accounts: false,
                    requests: req,
                    lifespan_days: lifespan(rng, i as u32),
                });
            }
        };

        // Abuse I — C2: majority Tencent, one Google2 (§5.1); ~112
        // calls/day → lifespan from the per-function budget.
        {
            let n = config.scaled(calib::ABUSE_C2.functions);
            let budget = (calib::ABUSE_C2.requests as f64 * config.scale).max(1.0) as u64;
            let per = (budget / n).max(1);
            for i in 0..n {
                entries.push(PlannedAbuse {
                    case: AbuseCase::C2,
                    // Last one on Google2, rest on Tencent.
                    provider: if i + 1 == n && n > 1 {
                        ProviderId::Google2
                    } else {
                        ProviderId::Tencent
                    },
                    // Cobalt Strike + InfoStealer families (§5.1).
                    variant: (i % 2) as u32,
                    group: 0,
                    sells_accounts: false,
                    requests: per,
                    lifespan_days: ((per / 112).max(7) as i64).min(200),
                });
            }
        }

        // Abuse II — gambling on Google2, long-lived (§5.2: mean 311 d).
        push_case(
            AbuseCase::Gambling,
            calib::ABUSE_GAMBLING,
            &[ProviderId::Google2],
            &|rng, _| rng.gen_range(150..=544),
            &mut entries,
            &mut rng,
        );
        push_case(
            AbuseCase::Porn,
            calib::ABUSE_PORN,
            &[ProviderId::Google2, ProviderId::Aliyun],
            &|rng, _| rng.gen_range(30..=120),
            &mut entries,
            &mut rng,
        );
        push_case(
            AbuseCase::Cheat,
            calib::ABUSE_CHEAT,
            &[ProviderId::Google2],
            &|rng, _| rng.gen_range(60..=300),
            &mut entries,
            &mut rng,
        );

        // Abuse III — redirects: static ones long-lived (§5.3: 152 d
        // mean), dynamic ones 1–2 days.
        push_case(
            AbuseCase::Redirect,
            calib::ABUSE_REDIRECT,
            &[ProviderId::Aliyun, ProviderId::Aws, ProviderId::Google2],
            &|rng, variant| {
                if variant % 4 >= 2 {
                    rng.gen_range(1..=2) // random splice/select
                } else {
                    rng.gen_range(60..=300)
                }
            },
            &mut entries,
            &mut rng,
        );

        // OpenAI resale on Aliyun with contact-group structure (§5.3).
        {
            let n = config.scaled(calib::ABUSE_OPENAI_RESALE.functions);
            let budget =
                (calib::ABUSE_OPENAI_RESALE.requests as f64 * config.scale).max(1.0) as u64;
            let per = (budget / n).max(1);
            let biggest = ((calib::OPENAI_BIGGEST_GROUP as f64
                / calib::ABUSE_OPENAI_RESALE.functions as f64)
                * n as f64)
                .round() as u64;
            let account_sellers = config
                .scaled(calib::OPENAI_ACCOUNT_GROUP)
                .min(n.saturating_sub(biggest));
            let contact_count = config.scaled(calib::OPENAI_CONTACTS).max(2) as u32;
            for i in 0..n {
                let (group, sells_accounts) = if i < biggest {
                    (0u32, false) // the shared-WeChat mega group
                } else if i < biggest + account_sellers {
                    (1, true)
                } else {
                    (
                        2 + (i as u32 % (contact_count.saturating_sub(2).max(1))),
                        false,
                    )
                };
                entries.push(PlannedAbuse {
                    case: AbuseCase::OpenAiResale,
                    provider: ProviderId::Aliyun,
                    variant: i as u32,
                    group,
                    sells_accounts,
                    requests: per,
                    lifespan_days: rng.gen_range(20..=120),
                });
            }
        }

        push_case(
            AbuseCase::IllegalProxy,
            calib::ABUSE_ILLEGAL_PROXY,
            &[ProviderId::Aws, ProviderId::Aliyun],
            &|rng, _| rng.gen_range(30..=300),
            &mut entries,
            &mut rng,
        );
        push_case(
            AbuseCase::GeoProxy,
            calib::ABUSE_GEO_PROXY,
            &[ProviderId::Aws, ProviderId::Google2, ProviderId::Aliyun],
            &|rng, _| rng.gen_range(10..=200),
            &mut entries,
            &mut rng,
        );

        // Finding 5 — sensitive-leak functions on a probed provider.
        let mut items: Vec<LeakItem> = Vec::new();
        let add = |n: u64,
                   make: &dyn Fn(&mut SmallRng, u64) -> LeakItem,
                   rng: &mut SmallRng,
                   items: &mut Vec<LeakItem>| {
            for i in 0..config.scaled(n) {
                items.push(make(rng, i));
            }
        };
        add(
            calib::SENSITIVE_PHONE,
            &|rng, _| {
                LeakItem::Phone(format!(
                    "+861{}{:08}",
                    rng.gen_range(3..=9),
                    rng.gen_range(0..99_999_999u64)
                ))
            },
            &mut rng,
            &mut items,
        );
        add(
            calib::SENSITIVE_NATIONAL_ID,
            &|rng, _| {
                LeakItem::NationalId(format!(
                    "11010519{:02}12310{:02}X",
                    rng.gen_range(10..99),
                    rng.gen_range(10..99)
                ))
            },
            &mut rng,
            &mut items,
        );
        add(
            calib::SENSITIVE_TOKEN,
            &|rng, i| {
                LeakItem::AccessToken(match i % 3 {
                    0 => format!("AKIA{:016X}", rng.gen::<u64>())[..20].to_string(),
                    1 => format!("ghp_{:032x}", rng.gen::<u128>()),
                    _ => format!(
                        "eyJhbGciOiJIUzI1NiJ9.eyJzdWIiOiI{:08x}In0.c2lnbmF0dXJl{:04x}",
                        rng.gen::<u32>(),
                        rng.gen::<u16>()
                    ),
                })
            },
            &mut rng,
            &mut items,
        );
        add(
            calib::SENSITIVE_API_KEY,
            &|rng, _| LeakItem::ApiKey(format!("sk-{:048x}", rng.gen::<u128>())),
            &mut rng,
            &mut items,
        );
        add(
            calib::SENSITIVE_PASSWORD,
            &|rng, _| LeakItem::Password(format!("P@ss{:06}!", rng.gen_range(0..999_999u32))),
            &mut rng,
            &mut items,
        );
        add(
            calib::SENSITIVE_NETWORK_ID,
            &|rng, i| {
                LeakItem::NetworkId(if i % 4 == 0 {
                    format!(
                        "0A:1B:{:02X}:{:02X}:{:02X}:{:02X}",
                        rng.gen::<u8>(),
                        rng.gen::<u8>(),
                        rng.gen::<u8>(),
                        rng.gen::<u8>()
                    )
                } else {
                    format!(
                        "10.{}.{}.{}",
                        rng.gen_range(0..255),
                        rng.gen_range(0..255),
                        rng.gen_range(1..255)
                    )
                })
            },
            &mut rng,
            &mut items,
        );

        // 1–3 items per leaky function.
        let mut leaks: Vec<Vec<LeakItem>> = Vec::new();
        let mut cursor = 0;
        while cursor < items.len() {
            let take = rng.gen_range(1..=3usize).min(items.len() - cursor);
            leaks.push(items[cursor..cursor + take].to_vec());
            cursor += take;
        }

        AbusePlan {
            entries,
            leaks,
            leak_provider: ProviderId::Aliyun,
        }
    }
}

// ---- helpers ----

fn sample_weighted(rng: &mut SmallRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// First day a provider can have observed functions (its launch month's
/// first day — the earliest month with non-zero first-seen weight).
fn provider_window_start(provider: ProviderId) -> DayStamp {
    let m = (0..calib::MONTHS)
        .find(|m| calib::first_seen_weight(provider, *m) > 0.0)
        .unwrap_or(0);
    month_of_index(m).first_day()
}

/// Month index 0 = April 2022.
fn month_of_index(m: usize) -> MonthStamp {
    let mut stamp = MEASUREMENT_START.month();
    for _ in 0..m {
        stamp = stamp.next();
    }
    stamp
}

fn month_index(day: DayStamp) -> usize {
    let m = day.month();
    let start = MEASUREMENT_START.month();
    ((m.year - start.year) * 12 + (m.month as i32 - start.month as i32)).max(0) as usize
}

/// Synthetic PDNS rdata pools: distinct from live ingress for k beyond
/// the live node count, identical for the first few (documented
/// consistency with the platform's address plan).
fn pool_v4(provider_idx: u8, k: u32) -> Ipv4Addr {
    if k < 8 {
        // Matches the live ingress plan's first region block.
        Ipv4Addr::new(203, provider_idx + 1, 0, 10 + k as u8)
    } else {
        Ipv4Addr::new(198, 18 + provider_idx, (k >> 8) as u8, k as u8)
    }
}

fn cname_suffix(provider: ProviderId) -> &'static str {
    match provider {
        ProviderId::Baidu => "ct-ingress.example-telecom.net",
        ProviderId::Ibm => "cdn.example-cloudflare.net",
        _ => provider.domain_suffix(),
    }
}

fn scaled_pool(full: u32, scale: f64) -> u32 {
    ((f64::from(full) * scale).round() as u32).clamp(1, full)
}

fn zipf_theta(provider: ProviderId) -> f64 {
    match provider {
        // Near-uniform across a very large pool (Top10 ≈ 1.8–2.1%).
        ProviderId::Aws => 0.1,
        // Moderately concentrated pool of 31 (Top10 ≈ 58%).
        ProviderId::Oracle => 0.75,
        // Small pools, heavily concentrated (Top10 > 92%).
        _ => 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::generate(WorldConfig {
            seed: 7,
            scale: 0.002,
            deploy_live: true,
            wall_clock: false,
            gen_workers: 0,
            platform: PlatformConfig::default(),
        })
    }

    /// Fused generation (rows streamed into a `DiskStore` as sampled)
    /// yields the exact same world as in-memory generation: identical
    /// function list and identical PDNS aggregates. Both flavors, since
    /// usage and live snapshots are both written through
    /// `generate_into`.
    #[test]
    fn generate_into_matches_generate() {
        struct TempDir(std::path::PathBuf);
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        for config in [WorldConfig::usage(11, 0.003), WorldConfig::live(11, 0.003)] {
            let dir = TempDir(std::env::temp_dir().join(format!(
                "fw-gen-fused-{}-{}-{:?}",
                config.deploy_live,
                std::process::id(),
                std::thread::current().id()
            )));
            let _ = std::fs::remove_dir_all(&dir.0);
            assert_generate_into_matches(config, &dir.0);
        }
    }

    fn assert_generate_into_matches(config: WorldConfig, dir: &std::path::Path) {
        let mem = World::generate(config.clone());
        let store = DiskStore::create(dir, fw_store::StoreConfig::default()).unwrap();
        let fused = World::generate_into(config, &store);
        store.seal().unwrap();

        assert_eq!(mem.functions.len(), fused.functions.len());
        for (a, b) in mem.functions.iter().zip(&fused.functions) {
            assert_eq!(a.fqdn, b.fqdn);
            assert_eq!(a.truth, b.truth);
            assert_eq!(a.total_requests, b.total_requests);
            assert_eq!(a.first_seen, b.first_seen);
            assert_eq!(a.last_seen, b.last_seen);
            assert_eq!(a.days_active, b.days_active);
            assert_eq!((a.probed, a.deployed), (b.probed, b.deployed));
        }
        assert_eq!(mem.pdns.record_count(), store.record_count());
        let mem_aggs = mem.pdns.all_aggregates();
        let disk_aggs = store.all_aggregates();
        assert_eq!(mem_aggs.len(), disk_aggs.len());
        for (a, b) in mem_aggs.iter().zip(&disk_aggs) {
            assert_eq!(a.fqdn, b.fqdn);
            assert_eq!(a.total_request_cnt, b.total_request_cnt);
            assert_eq!(a.rdata_dist, b.rdata_dist);
            assert_eq!(
                (a.first_seen_all, a.last_seen_all),
                (b.first_seen_all, b.last_seen_all)
            );
            assert_eq!(a.days_count, b.days_count);
        }
    }

    #[test]
    fn world_is_deterministic() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.functions.len(), b.functions.len());
        for (fa, fb) in a.functions.iter().zip(&b.functions) {
            assert_eq!(fa.fqdn, fb.fqdn);
            assert_eq!(fa.total_requests, fb.total_requests);
        }
    }

    #[test]
    fn population_counts_scale() {
        let w = tiny_world();
        let expect: u64 = calib::PROVIDERS
            .iter()
            .map(|c| w.config.scaled(c.domains))
            .sum::<u64>()
            // plus leak functions carved out of Aliyun? No: planted
            // functions replace benign ones, so totals match exactly.
            ;
        assert_eq!(w.functions.len() as u64, expect);
    }

    #[test]
    fn abuse_cases_all_present_with_min_one() {
        let w = tiny_world();
        for case in AbuseCase::ALL {
            let n = w
                .abuse_functions()
                .filter(|f| f.truth.abuse_case() == Some(case))
                .count();
            assert!(n >= 1, "{case:?} missing");
        }
    }

    #[test]
    fn every_function_domain_matches_its_provider_format() {
        let w = tiny_world();
        for f in &w.functions {
            assert!(
                format_for(f.provider).matches(&f.fqdn),
                "{} does not match {} format",
                f.fqdn,
                f.provider
            );
        }
    }

    #[test]
    fn pdns_rows_exist_for_every_function() {
        let w = tiny_world();
        for f in &w.functions {
            let agg = w.pdns.aggregate(&f.fqdn).expect("has pdns rows");
            assert_eq!(agg.total_request_cnt, f.total_requests, "{}", f.fqdn);
            assert_eq!(agg.first_seen_all, f.first_seen, "{}", f.fqdn);
            assert!(agg.days_count as u64 <= f.total_requests, "{}", f.fqdn);
        }
    }

    #[test]
    fn days_within_measurement_window() {
        let w = tiny_world();
        for f in &w.functions {
            assert!(f.first_seen >= MEASUREMENT_START);
            assert!(f.last_seen <= fw_types::MEASUREMENT_END);
            assert!(f.first_seen <= f.last_seen);
        }
    }

    #[test]
    fn probed_scope_excludes_path_identified_providers() {
        let w = tiny_world();
        for f in &w.functions {
            assert_eq!(f.probed, f.provider.function_identifiable(), "{}", f.fqdn);
            if f.probed {
                assert!(f.deployed);
            } else {
                assert!(!f.deployed);
            }
        }
    }

    #[test]
    fn geo_proxies_deploy_outside_china() {
        let w = tiny_world();
        for f in w
            .abuse_functions()
            .filter(|f| f.truth.abuse_case() == Some(AbuseCase::GeoProxy))
        {
            assert!(
                !fw_abuse::proxy::region_is_china(&f.region),
                "{} in {}",
                f.fqdn,
                f.region
            );
        }
    }

    #[test]
    fn c2_relays_sit_on_tencent_plus_one_google2() {
        let w = tiny_world();
        let providers: Vec<ProviderId> = w
            .abuse_functions()
            .filter(|f| f.truth.abuse_case() == Some(AbuseCase::C2))
            .map(|f| f.provider)
            .collect();
        assert!(!providers.is_empty());
        assert!(providers
            .iter()
            .all(|p| matches!(p, ProviderId::Tencent | ProviderId::Google2)));
    }

    #[test]
    fn leak_functions_present() {
        let w = tiny_world();
        let leaks = w
            .functions
            .iter()
            .filter(|f| matches!(f.truth, Truth::Leak(_)))
            .count();
        assert!(leaks >= 1);
    }

    #[test]
    fn tencent_functions_only_appear_after_launch() {
        let w = tiny_world();
        let launch = month_of_index(calib::MONTH_TENCENT_LAUNCH).first_day();
        for f in w
            .functions
            .iter()
            .filter(|f| f.provider == ProviderId::Tencent)
        {
            assert!(f.first_seen >= launch, "{} at {}", f.fqdn, f.first_seen);
        }
    }

    #[test]
    fn single_day_fraction_roughly_matches_calibration() {
        let w = World::generate(WorldConfig {
            seed: 11,
            scale: 0.01,
            deploy_live: false,
            wall_clock: false,
            gen_workers: 0,
            platform: PlatformConfig::default(),
        });
        let benign: Vec<&WorldFunction> = w
            .functions
            .iter()
            .filter(|f| matches!(f.truth, Truth::Benign(_)))
            .collect();
        let single = benign
            .iter()
            .filter(|f| f.first_seen == f.last_seen)
            .count() as f64;
        let frac = single / benign.len() as f64;
        assert!(
            (frac - calib::FRACTION_SINGLE_DAY).abs() < 0.05,
            "single-day fraction {frac}"
        );
    }

    #[test]
    fn provider_request_totals_close_to_table2() {
        let w = World::generate(WorldConfig {
            seed: 13,
            scale: 0.01,
            deploy_live: false,
            wall_clock: false,
            gen_workers: 0,
            platform: PlatformConfig::default(),
        });
        for c in &calib::PROVIDERS {
            let total: u64 = w
                .functions
                .iter()
                .filter(|f| f.provider == c.provider)
                .map(|f| f.total_requests)
                .sum();
            let target = (c.total_requests as f64 * w.config.scale) as u64;
            assert!(total >= target, "{}: {total} < target {target}", c.provider);
            assert!(
                (total as f64) < target as f64 * 1.6 + 1_000.0,
                "{}: {total} overshoots target {target}",
                c.provider
            );
        }
    }
}
