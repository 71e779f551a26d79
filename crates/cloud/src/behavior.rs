//! Function handler behaviours.
//!
//! Each deployed function carries a [`Behavior`] describing what its code
//! does when invoked over HTTP. The catalogue covers the benign population
//! (whose status-code mix drives Figure 6) and the eight abuse cases of
//! Table 3. Each behaviour produces *content*, not labels: the abuse
//! pipeline in `fw-abuse` must rediscover the abuse from responses, the
//! way the paper's analysts did.
//!
//! [`Behavior::abuse_case`] exposes the ground-truth label so experiments
//! can score detector precision/recall — the detectors themselves never
//! see it.

use fw_http::types::{Request, Response};
use rand::rngs::SmallRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// Ground-truth abuse label (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbuseCase {
    /// Abuse I: hidden C2 server.
    C2,
    /// Abuse II: gambling website.
    Gambling,
    /// Abuse II: porn-related site.
    Porn,
    /// Abuse II: cheating tool front-end.
    Cheat,
    /// Abuse III: redirect to concealed domains.
    Redirect,
    /// Abuse III: resale of OpenAI keys/accounts.
    OpenAiResale,
    /// Abuse IV: proxy for illegal services.
    IllegalProxy,
    /// Abuse IV: geo-restriction bypass proxy.
    GeoProxy,
}

impl AbuseCase {
    pub const ALL: [AbuseCase; 8] = [
        AbuseCase::C2,
        AbuseCase::Gambling,
        AbuseCase::Porn,
        AbuseCase::Cheat,
        AbuseCase::Redirect,
        AbuseCase::OpenAiResale,
        AbuseCase::IllegalProxy,
        AbuseCase::GeoProxy,
    ];

    pub fn label(self) -> &'static str {
        match self {
            AbuseCase::C2 => "Hide C2 server",
            AbuseCase::Gambling => "Gambling Website",
            AbuseCase::Porn => "Porn-related Sites",
            AbuseCase::Cheat => "Cheating Tool",
            AbuseCase::Redirect => "Redirect to New Domains",
            AbuseCase::OpenAiResale => "Resale of OpenAI Key",
            AbuseCase::IllegalProxy => "Illegal Service Proxy",
            AbuseCase::GeoProxy => "Geo-bypass Proxy",
        }
    }
}

/// One sensitive datum a leaky function exposes (Finding 5 categories).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeakItem {
    Phone(String),
    NationalId(String),
    AccessToken(String),
    ApiKey(String),
    Password(String),
    /// IP or MAC address.
    NetworkId(String),
}

/// What a function does when invoked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    // ---- benign population ----
    /// 200, JSON API response.
    JsonApi {
        service: String,
    },
    /// 200, ordinary HTML page.
    HtmlPage {
        title: String,
    },
    /// 200, plaintext output (logs, text).
    PlainLog {
        tag: String,
    },
    /// 200 with an empty body.
    EmptyOk,
    /// 200, JavaScript/XML output (the "Others" content bucket).
    ScriptOutput {
        xml: bool,
    },
    /// The function only answers on a specific path; the parameter-free
    /// probe GET on `/` gets 404 (the dominant Figure 6 bucket).
    PathGated {
        good_path: String,
    },
    /// IAM-protected: 401 on unauthenticated requests.
    AuthRequired,
    /// Unhandled exception / broken dependency: 502 Bad Gateway.
    Crasher,
    /// VPC-internal function: accepts the connection but never answers
    /// (client observes a timeout).
    InternalOnly,
    /// 200 JSON, but the debug payload leaks sensitive data.
    SensitiveLeak {
        service: String,
        items: Vec<LeakItem>,
    },
    /// Any other fixed status code (405, 400, 500, 504... — the minor
    /// Figure 6 buckets).
    FixedStatus {
        status: u16,
    },

    // ---- Abuse I: covert C2 relay ----
    /// Relays traffic to a hidden C2. Answers family-consistent binary
    /// only to a valid family probe (`trigger` bytes in body or the
    /// trigger path); anything else gets a stealthy 404.
    C2Relay {
        family: String,
        trigger_path: String,
        trigger_magic: Vec<u8>,
        reply: Vec<u8>,
    },

    // ---- Abuse II: malicious websites ----
    GamblingSite {
        brand: String,
        campaign: u32,
    },
    PornSite {
        name: String,
    },
    CheatTool {
        tool: String,
    },

    // ---- Abuse III: hidden illicit services ----
    /// HTTP 302 with a Location header.
    RedirectHttp {
        location: String,
    },
    /// HTML with `location.href = "..."`.
    RedirectJs {
        target: String,
    },
    /// HTML `<meta http-equiv="refresh">`.
    RedirectMetaRefresh {
        target: String,
    },
    /// JS that splices a random subdomain (Table 4 "Random Splicing").
    RedirectRandomSplice {
        suffix: String,
    },
    /// JS that picks a random URL from a list (Table 4 "Random
    /// Selection").
    RedirectRandomSelect {
        urls: Vec<String>,
    },
    /// Plaintext promo selling OpenAI API keys.
    OpenAiKeyPromo {
        contact: String,
        key_prefix: String,
    },
    /// Plaintext promo selling OpenAI accounts.
    OpenAiAccountSale {
        contact: String,
    },

    // ---- Abuse IV: egress/proxy abuse ----
    /// HTML chat front-end proxying OpenAI.
    OpenAiProxyFrontend,
    /// JSON API proxying OpenAI (help/init message).
    OpenAiProxyApi,
    GithubProxy,
    VpnProxy,
    /// Proxy for an underground service: "scraper", "ticketmaster",
    /// "tiktok", "music".
    IllegalServiceProxy {
        service: String,
    },
}

/// Per-invocation context handed to a behaviour.
#[derive(Debug)]
pub struct BehaviorContext<'a> {
    /// Deterministic per-invocation RNG.
    pub rng: SmallRng,
    /// Egress IP allocated to this execution environment.
    pub egress_ip: Ipv4Addr,
    /// The function's own domain (for self-references in content).
    pub fqdn: &'a str,
}

/// Outcome of dispatching a request to a behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Respond(Response),
    /// Accept but never answer (client-side timeout).
    Hang,
}

impl Behavior {
    /// Ground-truth abuse label, if this behaviour is abusive.
    pub fn abuse_case(&self) -> Option<AbuseCase> {
        Some(match self {
            Behavior::C2Relay { .. } => AbuseCase::C2,
            Behavior::GamblingSite { .. } => AbuseCase::Gambling,
            Behavior::PornSite { .. } => AbuseCase::Porn,
            Behavior::CheatTool { .. } => AbuseCase::Cheat,
            Behavior::RedirectHttp { .. }
            | Behavior::RedirectJs { .. }
            | Behavior::RedirectMetaRefresh { .. }
            | Behavior::RedirectRandomSplice { .. }
            | Behavior::RedirectRandomSelect { .. } => AbuseCase::Redirect,
            Behavior::OpenAiKeyPromo { .. } | Behavior::OpenAiAccountSale { .. } => {
                AbuseCase::OpenAiResale
            }
            Behavior::IllegalServiceProxy { .. } => AbuseCase::IllegalProxy,
            Behavior::OpenAiProxyFrontend
            | Behavior::OpenAiProxyApi
            | Behavior::GithubProxy
            | Behavior::VpnProxy => AbuseCase::GeoProxy,
            _ => return None,
        })
    }

    /// The leak items, if this behaviour exposes sensitive data.
    pub fn leak_items(&self) -> Option<&[LeakItem]> {
        match self {
            Behavior::SensitiveLeak { items, .. } => Some(items),
            _ => None,
        }
    }

    /// Dispatch one request.
    pub fn respond(&self, req: &Request, ctx: &mut BehaviorContext<'_>) -> Outcome {
        use Outcome::Respond as R;
        match self {
            Behavior::JsonApi { service } => R(Response::json(
                200,
                &format!(
                    r#"{{"service":"{service}","status":"ok","version":"1.{}.{}","region_ok":true}}"#,
                    ctx.rng.gen_range(0..9),
                    ctx.rng.gen_range(0..20),
                ),
            )),
            Behavior::HtmlPage { title } => R(Response::html(
                200,
                &format!(
                    "<!DOCTYPE html><html><head><title>{title}</title></head>\
                     <body><h1>{title}</h1><p>Welcome to our service. This page is \
                     served by a cloud function.</p><footer>contact: support@{}</footer>\
                     </body></html>",
                    ctx.fqdn
                ),
            )),
            Behavior::PlainLog { tag } => R(Response::text(
                200,
                &format!(
                    "[INFO] {tag} startup complete\n[INFO] healthcheck ok\n[DEBUG] cache warm, 0 pending jobs\n"
                ),
            )),
            Behavior::EmptyOk => R(Response::new(200)),
            Behavior::ScriptOutput { xml } => {
                if *xml {
                    R(Response::with_body(
                        200,
                        "application/xml",
                        format!(
                            "<?xml version=\"1.0\"?><result><host>{}</host><code>0</code></result>",
                            ctx.fqdn
                        ),
                    ))
                } else {
                    R(Response::with_body(
                        200,
                        "application/javascript",
                        "(function(){var cfg={mode:'prod'};console.log('loader ready');})();",
                    ))
                }
            }
            Behavior::PathGated { good_path } => {
                if req.path() == good_path {
                    R(Response::json(200, r#"{"data":"gated resource","auth":"none"}"#))
                } else {
                    R(Response::text(404, "Not Found"))
                }
            }
            Behavior::AuthRequired => {
                let mut resp = Response::json(
                    401,
                    r#"{"message":"Missing Authentication Token"}"#,
                );
                resp.headers.insert("WWW-Authenticate", "AWS4-HMAC-SHA256");
                R(resp)
            }
            Behavior::Crasher => R(Response::html(
                502,
                "<html><body><h1>502 Bad Gateway</h1><p>upstream connect error or \
                 disconnect/reset before headers</p></body></html>",
            )),
            Behavior::InternalOnly => Outcome::Hang,
            Behavior::SensitiveLeak { service, items } => {
                R(Response::json(200, &leak_json(service, items)))
            }
            Behavior::FixedStatus { status } => {
                R(Response::text(*status, fw_http::types::reason_phrase(*status)))
            }

            Behavior::C2Relay {
                trigger_path,
                trigger_magic,
                reply,
                ..
            } => {
                let body_hit = !trigger_magic.is_empty()
                    && req
                        .body
                        .windows(trigger_magic.len().max(1))
                        .any(|w| w == &trigger_magic[..]);
                let path_hit = !trigger_path.is_empty() && req.path() == trigger_path;
                if body_hit || path_hit {
                    let mut resp = Response::new(200);
                    resp.headers.insert("Content-Type", "application/octet-stream");
                    resp.body = reply.clone();
                    R(resp)
                } else {
                    // Stealth: look like a path-gated nobody.
                    R(Response::text(404, "Not Found"))
                }
            }

            Behavior::GamblingSite { brand, campaign } => {
                R(Response::html(200, &gambling_html(brand, *campaign)))
            }
            Behavior::PornSite { name } => R(Response::html(
                200,
                &format!(
                    "<!DOCTYPE html><html><head><title>{name} - free adult videos</title>\
                     <meta name=\"keywords\" content=\"porn,sex,av,adult video,18+\"></head>\
                     <body><h1>{name}</h1><div class=\"age-gate\">You must be 18+ to enter</div>\
                     <div class=\"grid\">hot sex videos updated daily | av collection | \
                     uncensored</div></body></html>"
                ),
            )),
            Behavior::CheatTool { tool } => R(Response::html(
                200,
                &format!(
                    "<!DOCTYPE html><html><head><title>{tool}</title></head><body>\
                     <h1>{tool}</h1><form><label>Account email changer / age modification \
                     tool</label><input name=\"account\" placeholder=\"game account\">\
                     <button>Generate verification</button></form>\
                     <p>bypass parental controls · unlimited uses · works for all regions</p>\
                     </body></html>"
                ),
            )),

            Behavior::RedirectHttp { location } => R(Response::redirect(302, location)),
            Behavior::RedirectJs { target } => R(Response::html(
                200,
                &format!(
                    "<html><head><script>location.href = \"{target}\"</script></head>\
                     <body>redirecting...</body></html>"
                ),
            )),
            Behavior::RedirectMetaRefresh { target } => R(Response::html(
                200,
                &format!(
                    "<html><head><meta http-equiv=\"refresh\" content=\"0; url={target}\">\
                     </head><body></body></html>"
                ),
            )),
            Behavior::RedirectRandomSplice { suffix } => R(Response::html(
                200,
                &format!(
                    "<html><head><script>var Rand = Math.round(Math.random() * 999999);\n\
                     location.href=\"https://\"+Rand+\".{suffix}\"</script></head><body></body></html>"
                ),
            )),
            Behavior::RedirectRandomSelect { urls } => {
                let list = urls
                    .iter()
                    .map(|u| format!("  '{u}',"))
                    .collect::<Vec<_>>()
                    .join("\n");
                R(Response::html(
                    200,
                    &format!(
                        "<html><head><script>const urls =[\n{list}\n]\n\
                         const url = urls[Math.floor(Math.random() * urls.length)]\n\
                         location.href = url</script></head><body></body></html>"
                    ),
                ))
            }
            Behavior::OpenAiKeyPromo { contact, key_prefix } => R(Response::text(
                200,
                &format!(
                    "To purchase an OpenAI API key (e.g. {key_prefix}***), contact via {contact}. \
                     ChatGPT API keys in stock, 10 RMB trial credit, bulk discount available. \
                     代充 OpenAI API key, 微信联系."
                ),
            )),
            Behavior::OpenAiAccountSale { contact } => R(Response::text(
                200,
                &format!(
                    "OpenAI account for sale: 10 RMB per account with $18 trial credit. \
                     ChatGPT ready, contact {contact} for delivery within 10 minutes."
                ),
            )),

            Behavior::OpenAiProxyFrontend => R(Response::html(
                200,
                "<!DOCTYPE html><html><head><title>ChatGPT Web</title></head><body>\
                 <h1>ChatGPT</h1><div id=\"chat\"></div><input id=\"msg\" \
                 placeholder=\"Ask ChatGPT anything...\"><button>Send</button>\
                 <script>/* forwards messages to the OpenAI API */</script></body></html>",
            )),
            Behavior::OpenAiProxyApi => R(Response::text(
                200,
                "This is a simple web application that interacts with OpenAI's chatbot API. \
                 Enter a message in the input box below. POST /v1/chat/completions is proxied.",
            )),
            Behavior::GithubProxy => R(Response::text(
                200,
                &format!(
                    "github mirror proxy ready. usage: /gh/<owner>/<repo>. \
                     accelerated raw.githubusercontent.com downloads via egress {}.",
                    ctx.egress_ip
                ),
            )),
            Behavior::VpnProxy => R(Response::json(
                200,
                &format!(
                    r#"{{"vpn":"ready","mode":"tunnel","egress":"{}","bypass":"gfw"}}"#,
                    ctx.egress_ip
                ),
            )),
            Behavior::IllegalServiceProxy { service } => {
                let body = match service.as_str() {
                    "scraper" => format!(
                        r#"{{"scraper":"ok","rotating_egress":"{}","note":"per-request fresh cloud IP, bypass rate limits"}}"#,
                        ctx.egress_ip
                    ),
                    "ticketmaster" =>
                        r#"{"service":"ticketmaster puppeteer","queue":"ready","auto_purchase":true}"#
                            .to_string(),
                    "tiktok" => r#"{"service":"tiktok watermark-free download","usage":"/dl?url=..."}"#
                        .to_string(),
                    "music" => r#"{"service":"kuwo/qq music free download","usage":"/song?id=..."}"#
                        .to_string(),
                    other => format!(r#"{{"service":"{other}","proxy":"ready"}}"#),
                };
                R(Response::json(200, &body))
            }
        }
    }
}

/// Render the leaky debug JSON.
fn leak_json(service: &str, items: &[LeakItem]) -> String {
    let mut fields = vec![format!(r#""service":"{service}","debug":true"#)];
    for (i, item) in items.iter().enumerate() {
        let field = match item {
            LeakItem::Phone(v) => format!(r#""owner_phone_{i}":"{v}""#),
            LeakItem::NationalId(v) => format!(r#""id_number_{i}":"{v}""#),
            LeakItem::AccessToken(v) => format!(r#""access_token_{i}":"{v}""#),
            LeakItem::ApiKey(v) => format!(r#""api_key_{i}":"{v}""#),
            LeakItem::Password(v) => format!(r#""password_{i}":"{v}""#),
            LeakItem::NetworkId(v) => format!(r#""internal_addr_{i}":"{v}""#),
        };
        fields.push(field);
    }
    format!("{{{}}}", fields.join(","))
}

/// Campaign-consistent gambling page (highly similar structure across a
/// campaign, google-site-verification, SEO keyword stuffing — §5.2).
fn gambling_html(brand: &str, campaign: u32) -> String {
    format!(
        "<!DOCTYPE html><html><head><title>{brand} - Online Slot & Betting</title>\
         <meta name=\"google-site-verification\" content=\"gsv-campaign-{campaign:04}\">\
         <meta name=\"keywords\" content=\"slot,betting,casino,jackpot,baccarat,\
         online casino,slot gacor,judi online,bet365 mirror\"></head>\
         <body><header><h1>{brand}</h1><nav>Slots | Live Casino | Sports Betting | \
         Lottery</nav></header>\
         <main><div class=\"banner\">WELCOME BONUS 100% — Deposit now and spin the \
         Mega Jackpot Slot!</div>\
         <div class=\"games\">Slot Gacor · Baccarat · Roulette · SicBo · Fish Hunter</div>\
         <div class=\"seo\">slot slot slot betting betting casino jackpot slot online \
         terpercaya betting site fast payout</div></main>\
         <footer>campaign-{campaign:04} all rights reserved</footer></body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> BehaviorContext<'static> {
        BehaviorContext {
            rng: SmallRng::seed_from_u64(7),
            egress_ip: Ipv4Addr::new(34, 120, 7, 9),
            fqdn: "fn-proj-abcdefghij.cn-shanghai.fcapp.run",
        }
    }

    fn probe_req() -> Request {
        Request::get("/", "fn-proj-abcdefghij.cn-shanghai.fcapp.run")
    }

    fn respond(b: &Behavior) -> Response {
        match b.respond(&probe_req(), &mut ctx()) {
            Outcome::Respond(r) => r,
            Outcome::Hang => panic!("unexpected hang"),
        }
    }

    #[test]
    fn benign_status_codes() {
        assert_eq!(
            respond(&Behavior::JsonApi {
                service: "s".into()
            })
            .status,
            200
        );
        assert_eq!(respond(&Behavior::EmptyOk).status, 200);
        assert!(respond(&Behavior::EmptyOk).body.is_empty());
        assert_eq!(
            respond(&Behavior::PathGated {
                good_path: "/api/v1".into()
            })
            .status,
            404
        );
        assert_eq!(respond(&Behavior::AuthRequired).status, 401);
        assert_eq!(respond(&Behavior::Crasher).status, 502);
    }

    #[test]
    fn path_gated_answers_on_its_path() {
        let b = Behavior::PathGated {
            good_path: "/api/v1".into(),
        };
        let req = Request::get("/api/v1", "h");
        match b.respond(&req, &mut ctx()) {
            Outcome::Respond(r) => assert_eq!(r.status, 200),
            Outcome::Hang => panic!(),
        }
    }

    #[test]
    fn internal_only_hangs() {
        assert_eq!(
            Behavior::InternalOnly.respond(&probe_req(), &mut ctx()),
            Outcome::Hang
        );
    }

    #[test]
    fn c2_relay_is_stealthy_without_trigger() {
        let b = Behavior::C2Relay {
            family: "CobaltStrike".into(),
            trigger_path: "/pixel.gif".into(),
            trigger_magic: b"\x00\xde\xadMZ".to_vec(),
            reply: b"\x00\x00\xca\xfe".to_vec(),
        };
        // Plain probe: 404.
        assert_eq!(respond(&b).status, 404);
        // Family probe by path: binary 200.
        let req = Request::get("/pixel.gif", "h");
        match b.respond(&req, &mut ctx()) {
            Outcome::Respond(r) => {
                assert_eq!(r.status, 200);
                assert_eq!(r.body, b"\x00\x00\xca\xfe");
            }
            Outcome::Hang => panic!(),
        }
        // Family probe by body magic.
        let mut req = Request::get("/", "h");
        req.body = b"prefix \x00\xde\xadMZ suffix".to_vec();
        match b.respond(&req, &mut ctx()) {
            Outcome::Respond(r) => assert_eq!(r.status, 200),
            Outcome::Hang => panic!(),
        }
    }

    #[test]
    fn gambling_pages_share_campaign_structure() {
        let a = respond(&Behavior::GamblingSite {
            brand: "LuckyWin".into(),
            campaign: 3,
        });
        let b = respond(&Behavior::GamblingSite {
            brand: "MegaBet".into(),
            campaign: 3,
        });
        for page in [&a, &b] {
            let text = page.body_text();
            assert!(text.contains("google-site-verification"));
            assert!(text.contains("Slot"));
            assert!(text.contains("Betting") || text.contains("betting"));
            assert!(text.contains("campaign-0003"));
        }
    }

    #[test]
    fn redirect_variants_expose_targets() {
        let r = respond(&Behavior::RedirectHttp {
            location: "https://fxbtg.example/x".into(),
        });
        assert_eq!(r.status, 302);
        assert_eq!(r.headers.get("location"), Some("https://fxbtg.example/x"));

        let r = respond(&Behavior::RedirectJs {
            target: "http://dlcy.zeldalink.top/wlxcList.html".into(),
        });
        assert!(r
            .body_text()
            .contains("location.href = \"http://dlcy.zeldalink.top"));

        let r = respond(&Behavior::RedirectRandomSplice {
            suffix: "yerbsdga.xyz".into(),
        });
        assert!(r.body_text().contains("Math.random() * 999999"));
        assert!(r.body_text().contains("yerbsdga.xyz"));

        let r = respond(&Behavior::RedirectRandomSelect {
            urls: vec!["https://a.example/".into(), "https://b.example/".into()],
        });
        assert!(r
            .body_text()
            .contains("Math.floor(Math.random() * urls.length)"));
    }

    #[test]
    fn openai_promos_contain_contact_and_key() {
        let r = respond(&Behavior::OpenAiKeyPromo {
            contact: "WeChat: wx_fastgpt88".into(),
            key_prefix: "sk-s5S5BoV".into(),
        });
        let t = r.body_text();
        assert!(t.contains("sk-s5S5BoV"));
        assert!(t.contains("wx_fastgpt88"));
        assert!(t.contains("OpenAI"));
    }

    #[test]
    fn leak_json_contains_all_items() {
        let b = Behavior::SensitiveLeak {
            service: "userdb".into(),
            items: vec![
                LeakItem::Phone("+8613812345678".into()),
                LeakItem::ApiKey("sk-abc123def456ghi789jkl012".into()),
                LeakItem::Password("P@ssw0rd!2023".into()),
            ],
        };
        let r = respond(&b);
        let t = r.body_text();
        assert!(t.contains("+8613812345678"));
        assert!(t.contains("sk-abc123def456"));
        assert!(t.contains("P@ssw0rd!2023"));
    }

    #[test]
    fn ground_truth_labels() {
        assert_eq!(
            Behavior::GamblingSite {
                brand: "x".into(),
                campaign: 0
            }
            .abuse_case(),
            Some(AbuseCase::Gambling)
        );
        assert_eq!(Behavior::VpnProxy.abuse_case(), Some(AbuseCase::GeoProxy));
        assert_eq!(
            Behavior::IllegalServiceProxy {
                service: "tiktok".into()
            }
            .abuse_case(),
            Some(AbuseCase::IllegalProxy)
        );
        assert_eq!(Behavior::EmptyOk.abuse_case(), None);
        assert_eq!(
            Behavior::SensitiveLeak {
                service: "s".into(),
                items: vec![]
            }
            .abuse_case(),
            None
        );
    }

    #[test]
    fn proxies_report_egress_ip() {
        let r = respond(&Behavior::VpnProxy);
        assert!(r.body_text().contains("34.120.7.9"));
    }
}
