//! Multicast fan-out accounting.
//!
//! §3.1.2: "The data service informs the render service of any changes,
//! using network bandwidth-saving techniques such as multicasting." On a
//! shared segment one transmission reaches every subscriber; unicast
//! would cost one transmission per subscriber. This module computes both
//! so the saving is measurable.

use crate::topology::{Endpoint, Network};
use rave_sim::SimTime;

/// Result of a fan-out cost computation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FanoutCost {
    /// When each receiver gets the message (parallel per segment), as the
    /// max across receivers.
    pub completion: SimTime,
    /// Wire transmissions actually performed.
    pub transmissions: u32,
    /// Transmissions unicast would have performed (= receiver count).
    pub unicast_transmissions: u32,
    /// Receivers skipped because their host is not on the network (a
    /// subscriber raced its host's teardown); they get nothing, and a
    /// caller that must not lose them can check this is zero.
    pub skipped: u32,
}

impl FanoutCost {
    /// Fraction of unicast transmissions saved.
    pub fn saving(&self) -> f64 {
        if self.unicast_transmissions == 0 {
            return 0.0;
        }
        1.0 - self.transmissions as f64 / self.unicast_transmissions as f64
    }
}

/// One multicast fan-out with per-receiver arrival times: what a data
/// service delivering one update to its matched subscribers books.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MulticastDelivery {
    pub cost: FanoutCost,
    /// `(index into the receivers slice, arrival offset)` for every
    /// receiver whose host is known, in input order. Receivers on the
    /// sender's own host arrive at loopback transfer time (no wire
    /// transmission charged).
    pub arrivals: Vec<(usize, SimTime)>,
    /// Bytes the multicast fan-out puts on the wire (one copy per
    /// receiving segment).
    pub wire_bytes: u64,
    /// Bytes unicast would have put on the wire (one copy per receiver).
    pub unicast_wire_bytes: u64,
}

/// One sender's receivers with their endpoints (loopback, a remote
/// segment and the link to it, or unknown) resolved once, for any number
/// of multicast deliveries to subsets of them. Each delivery
/// is arithmetic over the resolved entries: a segment is charged one
/// transmission the first time a delivery reaches it (deduplicated by a
/// per-segment stamp, not a set), and every receiver on it shares that
/// copy's transfer time — one sender reaches a segment over one link.
#[derive(Debug, Clone)]
pub struct ResolvedFanout<'n> {
    endpoints: Vec<Endpoint<'n>>,
    /// Per segment: the stamp of the delivery that last charged it, and
    /// that delivery's transfer time over the segment's link.
    charged: Vec<(u32, SimTime)>,
    stamp: u32,
}

impl<'n> ResolvedFanout<'n> {
    /// Resolve each receiver host against `net` as seen from `sender`. A
    /// receiver with no host (`None`) counts as unknown, like a host the
    /// topology does not know.
    pub fn new<'h>(
        net: &'n Network,
        sender: &str,
        receivers: impl IntoIterator<Item = Option<&'h str>>,
    ) -> Self {
        let endpoints = receivers
            .into_iter()
            .map(|r| r.map_or(Endpoint::Unknown, |r| net.endpoint(sender, r)))
            .collect();
        Self { endpoints, charged: vec![(0, SimTime::ZERO); net.segment_count()], stamp: 0 }
    }

    /// Deliver `bytes` to the receivers at `receivers` (indices into the
    /// resolved endpoints), overwriting `out`: one transmission per
    /// distinct receiving segment, every remote receiver arriving at its
    /// segment's transfer time, local receivers at loopback time, unknown
    /// ones skipped and counted. `out.arrivals` index into `receivers`.
    pub fn deliver(&mut self, receivers: &[u32], bytes: u64, out: &mut MulticastDelivery) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.charged.fill((0, SimTime::ZERO));
            self.stamp = 1;
        }
        let mut cost = FanoutCost::default();
        out.arrivals.clear();
        for (i, &r) in receivers.iter().enumerate() {
            match self.endpoints[r as usize] {
                Endpoint::Local(link) => out.arrivals.push((i, link.transfer_time(bytes))),
                Endpoint::Unknown => cost.skipped += 1,
                Endpoint::Remote { segment, link } => {
                    cost.unicast_transmissions += 1;
                    let slot = &mut self.charged[segment];
                    if slot.0 != self.stamp {
                        *slot = (self.stamp, link.transfer_time(bytes));
                        cost.transmissions += 1;
                        cost.completion = cost.completion.max(slot.1);
                    }
                    out.arrivals.push((i, slot.1));
                }
            }
        }
        out.wire_bytes = cost.transmissions as u64 * bytes;
        out.unicast_wire_bytes = cost.unicast_transmissions as u64 * bytes;
        out.cost = cost;
    }
}

/// Cost of the same fan-out done with unicast sends serialized on the
/// sender's uplink (the comparison baseline).
pub fn unicast_cost(net: &Network, sender: &str, receivers: &[&str], bytes: u64) -> SimTime {
    let mut wire_free = SimTime::ZERO;
    let mut last_arrival = SimTime::ZERO;
    for r in receivers {
        if *r == sender {
            continue;
        }
        let link = net.link_between(sender, r);
        let start = wire_free;
        let done_tx = start + link.tx_time(bytes);
        wire_free = done_tx;
        last_arrival = last_arrival.max(done_tx + link.latency);
    }
    last_arrival
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One delivery from `sender` to every host in `receivers`.
    fn multicast_deliver(
        net: &Network,
        sender: &str,
        receivers: &[&str],
        bytes: u64,
    ) -> MulticastDelivery {
        let all: Vec<u32> = (0..receivers.len() as u32).collect();
        let mut out = MulticastDelivery::default();
        ResolvedFanout::new(net, sender, receivers.iter().map(|r| Some(*r)))
            .deliver(&all, bytes, &mut out);
        out
    }

    #[test]
    fn multicast_charges_once_per_segment() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "tower", "onyx", "v880z"]; // all on "lan"
        let cost = multicast_deliver(&net, "laptop", &receivers, 10_000).cost;
        assert_eq!(cost.transmissions, 1);
        assert_eq!(cost.unicast_transmissions, 4);
        assert_eq!(cost.saving(), 0.75);
    }

    #[test]
    fn cross_segment_adds_transmissions() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "zaurus"]; // lan + wlan
        let cost = multicast_deliver(&net, "laptop", &receivers, 10_000).cost;
        assert_eq!(cost.transmissions, 2);
        // Completion bounded by the slow wireless hop.
        let wireless = net.transfer_time("laptop", "zaurus", 10_000);
        assert_eq!(cost.completion, wireless);
    }

    #[test]
    fn sender_excluded_from_receivers() {
        let net = Network::paper_testbed(1.0);
        let cost = multicast_deliver(&net, "laptop", &["laptop", "desktop"], 1000).cost;
        assert_eq!(cost.unicast_transmissions, 1);
        assert_eq!(cost.transmissions, 1);
    }

    #[test]
    fn multicast_faster_than_unicast_for_many_receivers() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "tower", "onyx", "v880z", "adrenochrome"];
        let m = multicast_deliver(&net, "laptop", &receivers, 1_000_000).cost.completion;
        let u = unicast_cost(&net, "laptop", &receivers, 1_000_000);
        assert!(u.as_secs() > m.as_secs() * 3.0, "unicast {u} vs multicast {m}");
    }

    #[test]
    fn unknown_receiver_is_skipped_and_counted() {
        let net = Network::paper_testbed(1.0);
        let d = multicast_deliver(&net, "laptop", &["desktop", "ghost", "tower"], 1000);
        assert_eq!(d.cost.skipped, 1);
        assert_eq!(d.cost.unicast_transmissions, 2);
        assert_eq!(d.cost.transmissions, 1); // desktop + tower share the lan
                                             // Arrivals only for known hosts, input order preserved.
        assert_eq!(d.arrivals.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(d.wire_bytes, 1000);
        assert_eq!(d.unicast_wire_bytes, 2000);
    }

    #[test]
    fn local_receivers_ride_loopback_off_the_wire() {
        let net = Network::paper_testbed(1.0);
        let d = multicast_deliver(&net, "laptop", &["laptop", "desktop"], 1000);
        assert_eq!(d.cost.transmissions, 1, "loopback is not a wire transmission");
        assert_eq!(d.arrivals[0].1, net.transfer_time("laptop", "laptop", 1000));
        assert!(d.arrivals[1].1 > d.arrivals[0].1, "lan hop slower than loopback");
    }

    #[test]
    fn resolved_fanout_charges_each_delivery_afresh() {
        let net = Network::paper_testbed(1.0);
        let hosts = [Some("desktop"), Some("zaurus"), Some("laptop"), None, Some("tower")];
        let mut fanout = ResolvedFanout::new(&net, "laptop", hosts);
        let mut d = MulticastDelivery::default();
        fanout.deliver(&[0, 1, 2, 3, 4], 1000, &mut d);
        assert_eq!(
            d,
            multicast_deliver(
                &net,
                "laptop",
                &["desktop", "zaurus", "laptop", "ghost", "tower"],
                1000
            )
        );
        assert_eq!((d.cost.transmissions, d.cost.unicast_transmissions, d.cost.skipped), (2, 3, 1));
        // A later delivery to a subset re-charges the segments it reaches,
        // with arrivals indexed into its own receiver list.
        fanout.deliver(&[4, 0], 50, &mut d);
        assert_eq!((d.cost.transmissions, d.cost.unicast_transmissions, d.cost.skipped), (1, 2, 0));
        let lan = net.transfer_time("laptop", "tower", 50);
        assert_eq!(d.arrivals, vec![(0, lan), (1, lan)]);
        assert_eq!(d.cost.completion, lan);
        assert_eq!((d.wire_bytes, d.unicast_wire_bytes), (50, 100));
    }

    #[test]
    fn empty_receiver_list_is_free() {
        let net = Network::paper_testbed(1.0);
        let cost = multicast_deliver(&net, "laptop", &[], 1000).cost;
        assert_eq!(cost.transmissions, 0);
        assert_eq!(cost.completion, SimTime::ZERO);
        assert_eq!(cost.saving(), 0.0);
    }
}
