//! Property tests for the abuse-detection layer.

use fw_abuse::illicit::{detect_openai_promo, extract_contacts, extract_redirects};
use fw_abuse::md5::{anonymize, md5_hex};
use fw_abuse::review::review_exemplar;
use fw_abuse::sensitive::SensitiveScanner;
use fw_abuse::webabuse::{classify_keywords, page_features};
use fw_http::types::Response;
use proptest::prelude::*;

proptest! {
    /// The scanner is total, findings are well-formed spans in document
    /// order, and anonymization removes every detected value.
    #[test]
    fn sensitive_scanner_total_and_masking(body in "\\PC{0,300}") {
        let scanner = SensitiveScanner::new("salt000001");
        let findings = scanner.scan(&body);
        let mut last_end = 0;
        for f in &findings {
            prop_assert!(f.start >= last_end, "overlap");
            prop_assert!(f.end <= body.len());
            prop_assert!(f.start < f.end);
            last_end = f.end;
        }
        let (clean, findings2) = scanner.scan_and_anonymize(&body);
        prop_assert_eq!(findings.len(), findings2.len());
        for f in &findings {
            let value = &body[f.start..f.end];
            // Long enough values must not survive verbatim (short ones
            // may coincide with surrounding text).
            if value.len() >= 8 {
                prop_assert!(
                    !clean.contains(value),
                    "value {value:?} survived anonymization"
                );
            }
        }
    }

    /// Anonymization is injective-enough: distinct inputs yield distinct
    /// masks (MD5 truncated to 48 bits; collision in a 256-case run is
    /// astronomically unlikely), and deterministic per salt.
    #[test]
    fn anonymize_deterministic_distinct(a in "[a-z0-9]{6,20}", b in "[a-z0-9]{6,20}") {
        let m1 = anonymize(&a, "saltsalt01");
        let m2 = anonymize(&a, "saltsalt01");
        prop_assert_eq!(&m1, &m2);
        if a != b {
            prop_assert_ne!(m1, anonymize(&b, "saltsalt01"));
        }
    }

    /// MD5 streaming consistency: appending a byte changes the digest.
    #[test]
    fn md5_sensitivity(data in proptest::collection::vec(any::<u8>(), 0..200), extra in any::<u8>()) {
        let d1 = md5_hex(&data);
        let mut data2 = data.clone();
        data2.push(extra);
        prop_assert_ne!(d1, md5_hex(&data2));
    }

    /// Detectors and reviewers are total on arbitrary content — no
    /// panics, and benign-looking random text is never flagged by the
    /// dual-review (both rule sets must agree, so noise cannot pass).
    #[test]
    fn review_total_on_noise(body in "[a-zA-Z0-9 .,]{0,200}") {
        let resp = Response::text(200, &body);
        let _ = review_exemplar(&resp);
        let _ = classify_keywords(&body);
        let _ = page_features(&body);
        let _ = detect_openai_promo(&body);
        let _ = extract_contacts(&body);
        let _ = extract_redirects(&resp);
    }

    /// Redirect extraction on generated location.href bodies always
    /// recovers the exact target.
    #[test]
    fn href_extraction_roundtrip(host in "[a-z]{3,12}", tld in "(com|net|top|xyz)", path in "[a-z0-9/]{0,20}") {
        let target = format!("http://{host}.{tld}/{path}");
        let body = format!("<script>location.href = \"{target}\"</script>");
        let resp = Response::html(200, &body);
        let found = extract_redirects(&resp);
        prop_assert_eq!(found.len(), 1);
        prop_assert_eq!(&found[0].target, &target);
    }

    /// C2 matchers never match plain-text responses regardless of status.
    #[test]
    fn c2_signatures_reject_text(status in 100u16..599, body in "[ -~]{0,100}") {
        let resp = Response::text(status, &body);
        for sig in fw_abuse::c2::corpus() {
            prop_assert!(!sig.matches(&resp.view()), "{}", sig.signature_id);
        }
    }
}

proptest! {
    /// The memchr-anchored substring search used by
    /// `MatchOp::BodyContains` agrees with the naive `windows()` scan on
    /// arbitrary byte haystacks and needles — including needles sliced
    /// out of the haystack, which are guaranteed hits.
    #[test]
    fn memmem_matches_naive_windows(
        haystack in proptest::collection::vec(any::<u8>(), 0..300),
        needle in proptest::collection::vec(any::<u8>(), 0..12),
        pick in any::<u16>(),
    ) {
        use fw_types::memmem::{contains_subsequence, find_subsequence};
        let naive = |h: &[u8], n: &[u8]| -> Option<usize> {
            if n.is_empty() {
                return Some(0);
            }
            if n.len() > h.len() {
                return None;
            }
            h.windows(n.len()).position(|w| w == n)
        };
        prop_assert_eq!(find_subsequence(&haystack, &needle), naive(&haystack, &needle));
        prop_assert_eq!(
            contains_subsequence(&haystack, &needle),
            naive(&haystack, &needle).is_some()
        );
        // A slice of the haystack must always be found.
        if !haystack.is_empty() {
            let start = pick as usize % haystack.len();
            let len = (pick as usize / 7) % (haystack.len() - start + 1);
            let slice = haystack[start..start + len].to_vec();
            prop_assert_eq!(find_subsequence(&haystack, &slice), naive(&haystack, &slice));
            prop_assert!(contains_subsequence(&haystack, &slice));
        }
    }
}
