//! Named hosts, segments and the links between them.

use crate::link::LinkSpec;
use rave_sim::SimTime;
use std::collections::BTreeMap;

/// A network of hosts grouped into segments (LANs). Hosts on the same
/// segment talk over the segment's intra-link; hosts on different segments
/// use the link registered for that segment pair (or the default).
///
/// Segments are interned to dense indices, so host → segment → link
/// lookups compare integers and never allocate.
#[derive(Debug, Clone)]
pub struct Network {
    hosts: BTreeMap<String, usize>,            // host -> segment index
    segment_ids: BTreeMap<String, usize>,      // segment name -> index
    segments: Vec<(String, LinkSpec)>,         // index -> (name, link within it)
    inter: BTreeMap<(usize, usize), LinkSpec>, // sorted index pair -> link
    default_inter: LinkSpec,
    loopback: LinkSpec,
}

/// Where one receiver of a message from a given sender sits, resolved
/// against the topology once so repeated sends are integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Endpoint<'n> {
    /// On the sender's own host: loopback, no wire transmission.
    Local(&'n LinkSpec),
    /// On segment `segment` (a dense index below
    /// [`Network::segment_count`]), reached from the sender over `link`.
    Remote { segment: usize, link: &'n LinkSpec },
    /// A host the topology does not know.
    Unknown,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    pub fn new() -> Self {
        Self {
            hosts: BTreeMap::new(),
            segment_ids: BTreeMap::new(),
            segments: Vec::new(),
            inter: BTreeMap::new(),
            default_inter: LinkSpec::ethernet_100mb(),
            loopback: LinkSpec::loopback(),
        }
    }

    /// The paper's testbed topology: all servers on a 100 Mbit LAN, the
    /// PDA on a wireless segment bridged to it.
    pub fn paper_testbed(signal_quality: f64) -> Self {
        let mut n = Self::new();
        n.add_segment("lan", LinkSpec::ethernet_100mb());
        n.add_segment("wlan", LinkSpec::wireless_11mb(signal_quality));
        n.link_segments("lan", "wlan", LinkSpec::wireless_11mb(signal_quality));
        for host in ["onyx", "v880z", "laptop", "desktop", "tower", "adrenochrome"] {
            n.add_host(host, "lan");
        }
        n.add_host("zaurus", "wlan");
        n
    }

    /// Add a segment, or replace the intra-link of an existing one.
    pub fn add_segment(&mut self, segment: &str, intra_link: LinkSpec) {
        match self.segment_ids.get(segment) {
            Some(&i) => self.segments[i].1 = intra_link,
            None => {
                self.segment_ids.insert(segment.to_string(), self.segments.len());
                self.segments.push((segment.to_string(), intra_link));
            }
        }
    }

    fn segment_id(&self, segment: &str) -> usize {
        *self
            .segment_ids
            .get(segment)
            .unwrap_or_else(|| panic!("segment {segment} must be added before it is used"))
    }

    pub fn add_host(&mut self, host: &str, segment: &str) {
        let seg = self.segment_id(segment);
        self.hosts.insert(host.to_string(), seg);
    }

    pub fn link_segments(&mut self, a: &str, b: &str, link: LinkSpec) {
        let (sa, sb) = (self.segment_id(a), self.segment_id(b));
        self.inter.insert((sa.min(sb), sa.max(sb)), link);
    }

    pub fn set_default_inter_link(&mut self, link: LinkSpec) {
        self.default_inter = link;
    }

    pub fn segment_of(&self, host: &str) -> Option<&str> {
        self.hosts.get(host).map(|&i| self.segments[i].0.as_str())
    }

    /// Number of segments; segment indices in [`Endpoint::Remote`] are
    /// below it.
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    pub fn hosts(&self) -> impl Iterator<Item = &str> {
        self.hosts.keys().map(|s| s.as_str())
    }

    fn host_segment(&self, host: &str) -> usize {
        *self.hosts.get(host).unwrap_or_else(|| panic!("unknown host {host}"))
    }

    /// The link between two segments: the segment's own intra-link, the
    /// link registered for the pair (in either order), or the default.
    fn segment_link(&self, sa: usize, sb: usize) -> &LinkSpec {
        if sa == sb {
            return &self.segments[sa].1;
        }
        self.inter.get(&(sa.min(sb), sa.max(sb))).unwrap_or(&self.default_inter)
    }

    /// The link used between two hosts. Panics on unknown hosts — a typo'd
    /// host name is a harness bug, not a runtime condition.
    pub fn link_between(&self, a: &str, b: &str) -> &LinkSpec {
        if a == b {
            return &self.loopback;
        }
        let sa = self.host_segment(a);
        let sb = self.host_segment(b);
        self.segment_link(sa, sb)
    }

    /// Resolve where `receiver` sits relative to `sender`. An unknown
    /// receiver is [`Endpoint::Unknown`]; an unknown sender with a known,
    /// distinct receiver panics, as in [`Network::link_between`].
    pub(crate) fn endpoint(&self, sender: &str, receiver: &str) -> Endpoint<'_> {
        if sender == receiver {
            return Endpoint::Local(&self.loopback);
        }
        let Some(&segment) = self.hosts.get(receiver) else {
            return Endpoint::Unknown;
        };
        let link = self.segment_link(self.host_segment(sender), segment);
        Endpoint::Remote { segment, link }
    }

    /// One-way transfer time of a single `bytes` message from `a` to `b`.
    pub fn transfer_time(&self, a: &str, b: &str, bytes: u64) -> SimTime {
        self.link_between(a, b).transfer_time(bytes)
    }

    /// Round-trip: request of `req_bytes` then reply of `resp_bytes`.
    pub fn round_trip(&self, a: &str, b: &str, req_bytes: u64, resp_bytes: u64) -> SimTime {
        self.transfer_time(a, b, req_bytes) + self.transfer_time(b, a, resp_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_has_all_hosts() {
        let n = Network::paper_testbed(1.0);
        let hosts: Vec<&str> = n.hosts().collect();
        assert!(hosts.contains(&"zaurus"));
        assert!(hosts.contains(&"laptop"));
        assert_eq!(n.segment_of("zaurus"), Some("wlan"));
        assert_eq!(n.segment_of("laptop"), Some("lan"));
    }

    #[test]
    fn same_host_uses_loopback() {
        let n = Network::paper_testbed(1.0);
        let t = n.transfer_time("laptop", "laptop", 1_000_000);
        assert!(t.as_secs() < 0.001);
    }

    #[test]
    fn lan_hosts_use_ethernet() {
        let n = Network::paper_testbed(1.0);
        assert_eq!(n.link_between("laptop", "desktop").name, "ethernet-100");
    }

    #[test]
    fn pda_uses_wireless_from_lan() {
        let n = Network::paper_testbed(1.0);
        assert_eq!(n.link_between("laptop", "zaurus").name, "wireless-11");
        // Symmetric.
        assert_eq!(n.link_between("zaurus", "laptop").name, "wireless-11");
        let t = n.transfer_time("laptop", "zaurus", 120_000).as_secs();
        assert!((t - 0.2).abs() < 0.02, "PDA frame transfer {t}");
    }

    #[test]
    #[should_panic]
    fn unknown_host_panics() {
        Network::paper_testbed(1.0).link_between("laptop", "nonexistent");
    }

    #[test]
    fn segment_links_are_symmetric_with_a_default_fallback() {
        let mut n = Network::new();
        for seg in ["a", "b", "c"] {
            n.add_segment(seg, LinkSpec::ethernet_100mb());
        }
        n.link_segments("c", "a", LinkSpec::wireless_11mb(1.0));
        n.set_default_inter_link(LinkSpec::ethernet_1gb());
        for (host, seg) in [("ha", "a"), ("hb", "b"), ("hc", "c")] {
            n.add_host(host, seg);
        }
        // Registered as (c, a), looked up from both ends.
        assert_eq!(n.link_between("ha", "hc").name, "wireless-11");
        assert_eq!(n.link_between("hc", "ha").name, "wireless-11");
        // Unregistered pairs fall back to the default, in both orders.
        assert_eq!(n.link_between("ha", "hb").name, "ethernet-1000");
        assert_eq!(n.link_between("hb", "hc").name, "ethernet-1000");
        assert_eq!(n.link_between("hc", "hb").name, "ethernet-1000");
        // Endpoint resolution agrees with the host-pair lookup.
        let hc = n.segment_count() - 1;
        assert_eq!(
            n.endpoint("ha", "hc"),
            Endpoint::Remote { segment: hc, link: n.link_between("ha", "hc") }
        );
        assert_eq!(n.endpoint("ha", "ha"), Endpoint::Local(n.link_between("ha", "ha")));
        assert_eq!(n.endpoint("ha", "ghost"), Endpoint::Unknown);
    }

    #[test]
    fn readding_a_segment_replaces_its_link_in_place() {
        let mut n = Network::new();
        n.add_segment("a", LinkSpec::ethernet_100mb());
        n.add_host("h1", "a");
        n.add_host("h2", "a");
        n.add_segment("a", LinkSpec::ethernet_1gb());
        assert_eq!(n.segment_count(), 1);
        assert_eq!(n.link_between("h1", "h2").name, "ethernet-1000");
    }

    #[test]
    fn unlinked_segments_fall_back_to_default() {
        let mut n = Network::new();
        n.add_segment("a", LinkSpec::ethernet_100mb());
        n.add_segment("b", LinkSpec::ethernet_100mb());
        n.add_host("h1", "a");
        n.add_host("h2", "b");
        assert_eq!(n.link_between("h1", "h2").name, "ethernet-100");
        n.set_default_inter_link(LinkSpec::ethernet_1gb());
        assert_eq!(n.link_between("h1", "h2").name, "ethernet-1000");
    }

    #[test]
    fn round_trip_sums_both_directions() {
        let n = Network::paper_testbed(1.0);
        let rt = n.round_trip("zaurus", "laptop", 100, 120_000);
        let one = n.transfer_time("zaurus", "laptop", 100);
        let two = n.transfer_time("laptop", "zaurus", 120_000);
        assert_eq!(rt, one + two);
    }

    #[test]
    #[should_panic]
    fn host_requires_existing_segment() {
        let mut n = Network::new();
        n.add_host("h", "ghost-segment");
    }
}
