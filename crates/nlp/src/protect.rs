//! IOC protection (Algorithm 1, stage 2).
//!
//! "We protect the security context by replacing the IOCs with a dummy
//! word (i.e., word 'something'). This makes the NLP modules designed for
//! processing general text work well for OSCTI text." (§II-C)
//!
//! Protection happens per block; the restoration table maps each dummy's
//! byte offset (in protected coordinates) back to the original [`Ioc`], so
//! [`crate::depparse`] output can be un-protected exactly (stage 3's
//! "replace the dummy word with the original IOCs in the trees").

use crate::ioc::{Ioc, IocRecognizer};
use std::collections::HashMap;

/// The dummy word substituted for every IOC.
pub const DUMMY: &str = "something";

/// A block with IOCs replaced by [`DUMMY`].
#[derive(Debug, Clone)]
pub struct ProtectedBlock {
    /// Protected text (what segmentation/parsing consume).
    pub text: String,
    /// Restoration table: dummy start offset (protected coordinates) →
    /// original IOC (offsets in block coordinates).
    pub slots: HashMap<usize, Ioc>,
}

/// Protects a block: recognizes IOCs and substitutes the dummy word.
pub fn protect(block: &str) -> ProtectedBlock {
    let iocs = IocRecognizer::global().recognize(block);
    let mut text = String::with_capacity(block.len());
    let mut slots = HashMap::with_capacity(iocs.len());
    let mut cursor = 0usize;
    for ioc in iocs {
        text.push_str(&block[cursor..ioc.start]);
        slots.insert(text.len(), ioc.clone());
        text.push_str(DUMMY);
        cursor = ioc.end;
    }
    text.push_str(&block[cursor..]);
    ProtectedBlock { text, slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ioc::IocType;

    /// The block's IOCs in order of appearance.
    fn iocs_in_order(p: &ProtectedBlock) -> Vec<&Ioc> {
        let mut entries: Vec<(&usize, &Ioc)> = p.slots.iter().collect();
        entries.sort_by_key(|(off, _)| **off);
        entries.into_iter().map(|(_, ioc)| ioc).collect()
    }

    #[test]
    fn protects_and_records_slots() {
        let block = "the attacker used /bin/tar to read /etc/passwd quickly";
        let p = protect(block);
        assert_eq!(
            p.text,
            "the attacker used something to read something quickly"
        );
        assert_eq!(p.slots.len(), 2);
        let in_order = iocs_in_order(&p);
        assert_eq!(in_order[0].text, "/bin/tar");
        assert_eq!(in_order[1].text, "/etc/passwd");
        // Slot offsets point at the dummies.
        for (off, ioc) in &p.slots {
            assert_eq!(&p.text[*off..*off + DUMMY.len()], DUMMY);
            assert_eq!(ioc.ty, IocType::FilePath);
        }
    }

    #[test]
    fn sentence_segmentation_survives_protection() {
        let block = "It read /etc/passwd. Then it wrote /tmp/upload.tar.bz2. Done.";
        let p = protect(block);
        // No IOC dots remain, so splitting is trivial and correct.
        let sents = crate::text::segment_sentences(&p.text);
        assert_eq!(sents.len(), 3);
        assert_eq!(sents[0].slice(&p.text), "It read something.");
        assert_eq!(sents[1].slice(&p.text), "Then it wrote something.");
    }

    #[test]
    fn no_iocs_identity() {
        let block = "The attacker escalated privileges.";
        let p = protect(block);
        assert_eq!(p.text, block);
        assert!(p.slots.is_empty());
    }

    #[test]
    fn ip_subnets_and_urls_protected() {
        let block = "beaconed to 192.168.29.128/32 via http://evil.com/x";
        let p = protect(block);
        assert_eq!(p.text, "beaconed to something via something");
        let tys: Vec<IocType> = iocs_in_order(&p).iter().map(|i| i.ty).collect();
        assert_eq!(tys, vec![IocType::IpSubnet, IocType::Url]);
    }

    #[test]
    fn original_offsets_preserved() {
        let block = "run /bin/tar now";
        let p = protect(block);
        let ioc = iocs_in_order(&p)[0];
        assert_eq!(&block[ioc.start..ioc.end], "/bin/tar");
    }
}
