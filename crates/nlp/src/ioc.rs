//! IOC recognition (Algorithm 1, stage 2).
//!
//! "We construct a set of regex rules to recognize various types of IOCs
//! (e.g., file name, file path, IP)" (§II-C). This module defines the IOC
//! taxonomy, the rule set (built on [`crate::lightre`]), defang
//! normalization, and the recognizer that resolves overlapping candidate
//! matches by leftmost-longest-then-priority.

use crate::lightre::{Regex, RegexError};
use std::fmt;
use std::sync::OnceLock;

/// IOC categories recognized by the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IocType {
    /// A full URL (`http://…`).
    Url,
    /// An email address.
    Email,
    /// An IPv4 address with a CIDR suffix, e.g. `192.168.29.128/32`.
    IpSubnet,
    /// A bare IPv4 address.
    Ip,
    /// A SHA-256 hex digest.
    Sha256,
    /// A SHA-1 hex digest.
    Sha1,
    /// An MD5 hex digest.
    Md5,
    /// A CVE identifier.
    Cve,
    /// A Windows registry key.
    RegistryKey,
    /// An absolute Unix file path, e.g. `/bin/tar`.
    FilePath,
    /// A DNS domain name.
    Domain,
    /// A bare file name with a known extension, e.g. `upload.tar`.
    FileName,
}

impl IocType {
    /// All types, in priority order (earlier wins on equal-length
    /// overlapping matches), which is also the derived `Ord`.
    pub const ALL: [IocType; 12] = [
        IocType::Url,
        IocType::Email,
        IocType::IpSubnet,
        IocType::Ip,
        IocType::Sha256,
        IocType::Sha1,
        IocType::Md5,
        IocType::Cve,
        IocType::RegistryKey,
        IocType::FilePath,
        IocType::Domain,
        IocType::FileName,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            IocType::Url => "URL",
            IocType::Email => "Email",
            IocType::IpSubnet => "IPSubnet",
            IocType::Ip => "IP",
            IocType::Sha256 => "SHA256",
            IocType::Sha1 => "SHA1",
            IocType::Md5 => "MD5",
            IocType::Cve => "CVE",
            IocType::RegistryKey => "RegistryKey",
            IocType::FilePath => "Filepath",
            IocType::Domain => "Domain",
            IocType::FileName => "Filename",
        }
    }

    /// The regex rule for this type.
    fn pattern(self) -> &'static str {
        match self {
            IocType::Url => r"https?://[A-Za-z0-9./_%?=&#:+-]+",
            IocType::Email => r"[A-Za-z0-9._%+-]+@[A-Za-z0-9-]+(\.[A-Za-z0-9-]+)+",
            IocType::IpSubnet => r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}/\d{1,2}",
            IocType::Ip => r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}",
            IocType::Sha256 => r"[a-fA-F0-9]{64}",
            IocType::Sha1 => r"[a-fA-F0-9]{40}",
            IocType::Md5 => r"[a-fA-F0-9]{32}",
            IocType::Cve => r"CVE-\d{4}-\d{4,7}",
            IocType::RegistryKey => {
                r"(HKEY_LOCAL_MACHINE|HKEY_CURRENT_USER|HKEY_USERS|HKEY_CLASSES_ROOT|HKLM|HKCU)(\\[A-Za-z0-9 ._-]+)+"
            }
            IocType::FilePath => r"(/[A-Za-z0-9._+-]+)+/?",
            IocType::Domain => {
                r"([a-z0-9-]+\.)+(com|net|org|io|ru|cn|info|biz|xyz|top|site|online|club|gov|edu|onion)"
            }
            IocType::FileName => {
                r"[A-Za-z0-9_-]+\.(exe|dll|sys|sh|py|pl|js|doc|docx|xls|xlsx|pdf|zip|rar|tar|gz|bz2|7z|jpg|jpeg|png|gif|txt|log|bat|ps1|vbs|jar|apk|elf|bin|dat|tmp|conf|cfg|sql|db|php|asp|jsp|rtf|hta|lnk|scr)"
            }
        }
    }
}

impl fmt::Display for IocType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recognized IOC mention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ioc {
    /// The matched text (normalized, e.g. re-fanged).
    pub text: String,
    /// IOC type.
    pub ty: IocType,
    /// Start byte offset in the (normalized) source text.
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl Ioc {
    /// Length of the mention, in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for empty mentions (never produced by the recognizer).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The compiled rule set.
pub struct IocRecognizer {
    rules: Vec<(IocType, Regex)>,
}

fn shared() -> &'static IocRecognizer {
    static INSTANCE: OnceLock<IocRecognizer> = OnceLock::new();
    INSTANCE.get_or_init(IocRecognizer::new)
}

impl Default for IocRecognizer {
    fn default() -> Self {
        Self::new()
    }
}

impl IocRecognizer {
    /// Compiles the rule set.
    pub fn new() -> IocRecognizer {
        Self::compiled_with(Regex::new)
    }

    /// Compiles every rule with `compile`.
    fn compiled_with(compile: fn(&str) -> Result<Regex, RegexError>) -> IocRecognizer {
        let rules = IocType::ALL
            .iter()
            .map(|&ty| {
                (
                    ty,
                    compile(ty.pattern()).expect("builtin IOC patterns must compile"),
                )
            })
            .collect();
        IocRecognizer { rules }
    }

    /// Returns the process-wide shared recognizer (rules compile once).
    pub fn global() -> &'static IocRecognizer {
        shared()
    }

    /// Recognizes all IOC mentions in `text` (assumed already normalized
    /// via [`normalize_defang`]). Overlaps are resolved by: earlier start
    /// wins; on ties, longer match wins; on ties, higher-priority type
    /// wins.
    pub fn recognize(&self, text: &str) -> Vec<Ioc> {
        let mut candidates: Vec<Ioc> = Vec::new();
        for (ty, re) in &self.rules {
            for m in re.find_iter(text) {
                // Sentence punctuation glued to the end of a textual IOC
                // is not part of it ("read /etc/passwd." — the dot closes
                // the sentence, not the path).
                let mut end = m.end;
                if matches!(
                    ty,
                    IocType::FilePath
                        | IocType::FileName
                        | IocType::Domain
                        | IocType::Url
                        | IocType::Email
                        | IocType::RegistryKey
                ) {
                    while end > m.start
                        && matches!(
                            text[..end].chars().next_back(),
                            Some('.')
                                | Some(',')
                                | Some(';')
                                | Some(':')
                                | Some('!')
                                | Some('?')
                                | Some(')')
                        )
                    {
                        end -= 1;
                    }
                }
                if end == m.start {
                    continue;
                }
                let mention = &text[m.start..end];
                if !self.validate(*ty, mention, text, m.start, end) {
                    continue;
                }
                candidates.push(Ioc {
                    text: mention.to_string(),
                    ty: *ty,
                    start: m.start,
                    end,
                });
            }
        }
        // Resolve overlaps.
        candidates.sort_by(|a, b| {
            a.start
                .cmp(&b.start)
                .then(b.len().cmp(&a.len()))
                .then(a.ty.cmp(&b.ty))
        });
        let mut out: Vec<Ioc> = Vec::new();
        let mut covered_end = 0usize;
        for c in candidates {
            if c.start >= covered_end {
                covered_end = c.end;
                out.push(c);
            }
        }
        out
    }

    /// Type-specific semantic validation beyond the regex shape.
    fn validate(&self, ty: IocType, mention: &str, text: &str, start: usize, end: usize) -> bool {
        // Generic boundary check: an IOC must not be glued to a word
        // character (avoids matching inside longer tokens).
        let before_ok = start == 0
            || !text[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '/');
        let after_ok = end == text.len()
            || !text[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !before_ok || !after_ok {
            return false;
        }
        match ty {
            IocType::Ip | IocType::IpSubnet => {
                let ip_part = mention
                    .split('/')
                    .next()
                    .expect("split yields at least one");
                let octets_ok = ip_part
                    .split('.')
                    .all(|o| o.parse::<u32>().map(|v| v <= 255).unwrap_or(false));
                let cidr_ok = match mention.split_once('/') {
                    Some((_, suffix)) => suffix.parse::<u32>().map(|v| v <= 32).unwrap_or(false),
                    None => true,
                };
                octets_ok && cidr_ok
            }
            IocType::FilePath => {
                // Require at least one slash-separated segment of length
                // ≥ 2 overall, and reject pure-numeric "paths" (e.g. the
                // tail of a fraction).
                mention.len() >= 3 && mention.chars().any(|c| c.is_alphabetic())
            }
            IocType::Domain => {
                // Avoid swallowing file names like `upload.tar` — the TLD
                // list already constrains this; also require ≥ 2 labels.
                mention.split('.').count() >= 2
            }
            _ => true,
        }
    }
}

/// Normalizes defanged indicators so the rules can match them:
/// `hxxp` → `http`, `[.]`/`(.)`/`[dot]` → `.`, `[at]` → `@`,
/// `[:]` → `:`.
///
/// Returns the normalized text. Offsets of all downstream artifacts
/// (IOC mentions, tokens, trees) refer to this normalized text.
pub fn normalize_defang(text: &str) -> String {
    let mut s = text.replace("hxxps", "https").replace("hxxp", "http");
    for (from, to) in [
        ("[.]", "."),
        ("(.)", "."),
        ("[dot]", "."),
        ("(dot)", "."),
        ("[at]", "@"),
        ("(at)", "@"),
        ("[:]", ":"),
    ] {
        s = s.replace(from, to);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(text: &str) -> Vec<(IocType, String)> {
        IocRecognizer::global()
            .recognize(text)
            .into_iter()
            .map(|i| (i.ty, i.text))
            .collect()
    }

    #[test]
    fn recognizes_fig2_iocs() {
        let text = "the attacker used /bin/tar to read user credentials from /etc/passwd. \
                    It wrote to /tmp/upload.tar. Then /bin/bzip2 read /tmp/upload.tar and \
                    wrote /tmp/upload.tar.bz2. /usr/bin/gpg wrote to /tmp/upload. Finally \
                    /usr/bin/curl connected to 192.168.29.128.";
        let found = rec(text);
        let texts: Vec<&str> = found.iter().map(|(_, t)| t.as_str()).collect();
        for expected in [
            "/bin/tar",
            "/etc/passwd",
            "/tmp/upload.tar",
            "/bin/bzip2",
            "/tmp/upload.tar.bz2",
            "/usr/bin/gpg",
            "/tmp/upload",
            "/usr/bin/curl",
            "192.168.29.128",
        ] {
            assert!(texts.contains(&expected), "missing {expected}: {texts:?}");
        }
        // The IP is typed IP; paths are FilePath.
        assert!(found.contains(&(IocType::Ip, "192.168.29.128".into())));
        assert!(found.contains(&(IocType::FilePath, "/bin/tar".into())));
    }

    #[test]
    fn path_trailing_dot_not_swallowed() {
        let found = rec("read from /etc/passwd.");
        assert_eq!(found, vec![(IocType::FilePath, "/etc/passwd".into())]);
        let found = rec("wrote to /tmp/upload.tar.");
        assert_eq!(found, vec![(IocType::FilePath, "/tmp/upload.tar".into())]);
    }

    #[test]
    fn subnet_beats_ip() {
        let found = rec("blocked 192.168.29.128/32 yesterday");
        assert_eq!(found, vec![(IocType::IpSubnet, "192.168.29.128/32".into())]);
    }

    #[test]
    fn invalid_ip_octets_rejected() {
        assert!(rec("version 999.999.999.999 here").is_empty());
        assert!(rec("1.2.3.4/40 nope")
            .iter()
            .all(|(t, _)| *t != IocType::IpSubnet));
    }

    #[test]
    fn hashes_by_length() {
        let md5 = "d41d8cd98f00b204e9800998ecf8427e";
        let sha1 = "da39a3ee5e6b4b0d3255bfef95601890afd80709";
        let sha256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
        assert_eq!(rec(md5), vec![(IocType::Md5, md5.into())]);
        assert_eq!(rec(sha1), vec![(IocType::Sha1, sha1.into())]);
        assert_eq!(rec(sha256), vec![(IocType::Sha256, sha256.into())]);
    }

    #[test]
    fn urls_emails_domains() {
        let found = rec("contact bad-guy@evil.com or visit http://evil.com/payload.exe");
        assert!(found.contains(&(IocType::Email, "bad-guy@evil.com".into())));
        assert!(found
            .iter()
            .any(|(t, s)| *t == IocType::Url && s.starts_with("http://evil.com")));
        let found = rec("beacons to update.evil-cdn.net daily");
        assert_eq!(found, vec![(IocType::Domain, "update.evil-cdn.net".into())]);
    }

    #[test]
    fn file_names_and_registry_and_cve() {
        let found = rec("drops payload.exe and sets HKLM\\Software\\Run\\svc");
        assert!(found.contains(&(IocType::FileName, "payload.exe".into())));
        assert!(found
            .iter()
            .any(|(t, s)| *t == IocType::RegistryKey && s.starts_with("HKLM")));
        let found = rec("exploiting CVE-2014-6271 to gain entry");
        assert_eq!(found, vec![(IocType::Cve, "CVE-2014-6271".into())]);
    }

    #[test]
    fn defang_normalization() {
        assert_eq!(
            normalize_defang("hxxp://evil[.]com and 10[.]0[.]0[.]1 bad[at]evil[.]com"),
            "http://evil.com and 10.0.0.1 bad@evil.com"
        );
        let norm = normalize_defang("beacon to hxxps://c2[.]evil[.]com/x");
        let found = rec(&norm);
        assert!(found.iter().any(|(t, _)| *t == IocType::Url));
    }

    #[test]
    fn no_false_positive_inside_words() {
        // `1.2.3.4` inside a version-like token preceded by a word char.
        assert!(rec("libfoo1.2.3.4abc").is_empty());
        // Domain TLD list keeps ordinary words safe.
        assert!(rec("the tar file was compressed").is_empty());
    }

    #[test]
    fn versions_are_not_ips() {
        // Common false positive: 4-part version strings after a word
        // boundary DO look like IPs; octet validation keeps plausible
        // ones. Document the behavior: "version 10.1.2.3" is recognized
        // (indistinguishable without context) but "v10.1.2.3" is not.
        assert!(rec("v10.1.2.3").is_empty());
    }

    #[test]
    fn overlap_resolution_prefers_longest() {
        // upload.tar would match FileName inside the FilePath.
        let found = rec("see /tmp/upload.tar here");
        assert_eq!(found, vec![(IocType::FilePath, "/tmp/upload.tar".into())]);
    }

    #[test]
    fn empty_and_clean_text() {
        assert!(rec("").is_empty());
        assert!(rec("The attacker escalated privileges quietly.").is_empty());
    }

    #[test]
    fn ioc_len_helpers() {
        let ioc = Ioc {
            text: "/bin/tar".into(),
            ty: IocType::FilePath,
            start: 4,
            end: 12,
        };
        assert_eq!(ioc.len(), 8);
        assert!(!ioc.is_empty());
        assert_eq!(IocType::FilePath.label(), "Filepath");
        assert_eq!(IocType::Ip.to_string(), "IP");
    }

    #[test]
    fn ioc_dfas_are_small() {
        let rules = &IocRecognizer::global().rules;
        for (ty, re) in rules {
            println!(
                "{:<12} {:>3} DFA states {:>6} table bytes",
                ty.label(),
                re.dfa_states(),
                re.table_bytes()
            );
        }
        let states: usize = rules.iter().map(|(_, re)| re.dfa_states()).sum();
        let bytes: usize = rules.iter().map(|(_, re)| re.table_bytes()).sum();
        println!("all 12 rules: {states} DFA states, {bytes} table bytes");
        assert!(bytes < 64 * 1024, "{bytes} table bytes");
    }

    /// The recognizer over Pike-simulating rules: the reference the DFA
    /// rules must reproduce exactly.
    fn pike_recognizer() -> &'static IocRecognizer {
        static ORACLE: OnceLock<IocRecognizer> = OnceLock::new();
        ORACLE.get_or_init(|| IocRecognizer::compiled_with(Regex::pike))
    }

    /// A splitmix64 stream: one IOC-ish word per `(kind, seed)` pair.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
            pool[self.below(pool.len())]
        }

        /// `lo..=hi` chars drawn from `alphabet`.
        fn run(&mut self, alphabet: &str, lo: usize, hi: usize) -> String {
            let chars: Vec<char> = alphabet.chars().collect();
            let len = lo + self.below(hi - lo + 1);
            (0..len).map(|_| chars[self.below(chars.len())]).collect()
        }

        fn host(&mut self) -> String {
            let labels: Vec<String> = (0..1 + self.below(3))
                .map(|_| self.run("abcxyz019-", 1, 6))
                .collect();
            let tld = self.pick(&["com", "net", "ru", "onion", "io", "xyz", "local", "tar"]);
            format!("{}.{tld}", labels.join("."))
        }
    }

    const HEX: &str = "0123456789abcdefABCDEF";
    const PATH: &str = "abcXYZ019._+-";

    fn ioc_word(kind: usize, seed: u64) -> String {
        let mut r = Mix(seed);
        match kind {
            0 => {
                let len = [31, 32, 33, 39, 40, 41, 63, 64, 65, 1 + r.below(80)][r.below(10)];
                r.run(HEX, len, len)
            }
            1 => {
                let quad: Vec<String> = (0..4).map(|_| r.below(300).to_string()).collect();
                let cidr = match r.below(3) {
                    0 => format!("/{}", r.below(40)),
                    _ => String::new(),
                };
                format!("{}{cidr}", quad.join("."))
            }
            2 => {
                let segs: String = (0..1 + r.below(4))
                    .map(|_| format!("/{}", r.run(PATH, 1, 8)))
                    .collect();
                format!("{segs}{}", r.pick(&["", "/"]))
            }
            3 => {
                let hive = r.pick(&["HKLM", "HKCU", "HKEY_LOCAL_MACHINE", "HKEY_USERS", "HKXX"]);
                let keys: String = (0..1 + r.below(3))
                    .map(|_| format!("\\{}", r.run("abcXYZ01 ._-", 1, 8)))
                    .collect();
                format!("{hive}{keys}")
            }
            4 => format!(
                "CVE-{}-{}",
                r.run("0123456789", 3, 4),
                r.run("0123456789", 3, 8)
            ),
            5 => {
                let scheme = r.pick(&["http", "https", "hxxp", "hxxps", "ftp"]);
                format!("{scheme}://{}{}", r.host(), r.run("/a1._%?=&#:+-", 0, 10))
            }
            6 => {
                let at = r.pick(&["@", "[at]", "(at)"]);
                format!("{}{at}{}", r.run("abcXYZ01._%+-", 1, 8), r.host())
            }
            7 => r.host().replace('.', r.pick(&[".", ".", "[.]", "(dot)"])),
            8 => {
                let ext = r.pick(&["exe", "dll", "tar", "gz", "ps1", "docx", "tmp", "zzz", "e"]);
                format!("{}.{ext}", r.run("abcXYZ019_-", 1, 8))
            }
            9 => r
                .pick(&[
                    "the", "attacker", "wrote", "tar", "file", "Read", "via", "and", "to",
                ])
                .to_string(),
            10 => r
                .pick(&["café", "日本", "naïve", "’s", "Ünïcödé", "—", "x€y"])
                .to_string(),
            11 => r
                .pick(&[
                    "10[.]0[.]0[.]1",
                    "evil[dot]com",
                    "hxxps://c2(.)evil[.]com/x",
                ])
                .to_string(),
            12 => r
                .pick(&[".", ",", ";", ":", "!", "?", "(", ")", "\"", "'"])
                .to_string(),
            _ => r.run("0123456789.", 1, 9),
        }
    }

    /// IOC-ish prose: words from [`ioc_word`], sometimes glued together.
    fn ioc_prose(parts: &[(usize, u64)]) -> String {
        let mut text = String::new();
        for &(kind, seed) in parts {
            text.push_str(&ioc_word(kind, seed));
            text.push_str([" ", " ", " ", "\n", "", ". ", ", "][(seed >> 60) as usize % 7]);
        }
        normalize_defang(&text)
    }

    #[test]
    fn priority_order_is_the_derived_order() {
        assert!(IocType::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prose_generator_covers_every_ioc_type() {
        let mut r = Mix(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let parts: Vec<(usize, u64)> = (0..12).map(|_| (r.below(14), r.next())).collect();
            let text = ioc_prose(&parts);
            seen.extend(rec(&text).into_iter().map(|(ty, _)| ty));
        }
        assert_eq!(seen.len(), IocType::ALL.len(), "{seen:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// DFA-backed recognition returns exactly what the Pike-backed
        /// recognizer does: texts, types and spans.
        #[test]
        fn recognize_matches_pike_oracle(
            parts in prop::collection::vec((0usize..14, any::<u64>()), 1..24),
        ) {
            let text = ioc_prose(&parts);
            prop_assert_eq!(
                IocRecognizer::global().recognize(&text),
                pike_recognizer().recognize(&text),
                "text {:?}",
                text
            );
        }
    }
}
