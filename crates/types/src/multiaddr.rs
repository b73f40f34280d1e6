//! Simplified multiaddrs: the network addresses attached to monitored peers.
//!
//! The paper's trace tuples contain the remote peer's transport address in
//! addition to its peer ID; addresses are what gets resolved to countries for
//! the geography analysis (Table II). This module models IPv4/IPv6 addresses
//! with TCP or QUIC transports plus the country the address geolocates to
//! (standing in for the MaxMind GeoIP database used in the paper).

use crate::error::TypesError;
use rand::Rng;

/// Transport protocol of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// TCP with a yamux/mplex-style stream muxer.
    Tcp,
    /// QUIC over UDP.
    Quic,
    /// WebSocket (gateway-adjacent deployments).
    WebSocket,
}

impl Transport {
    /// The multiaddr protocol suffix.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Quic => "quic-v1",
            Transport::WebSocket => "ws",
        }
    }
}

/// Two-letter country codes used by the geography analysis. The set mirrors
/// the countries broken out in Table II plus an aggregate for the rest of the
/// world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Country {
    /// United States.
    Us,
    /// Netherlands.
    Nl,
    /// Germany.
    De,
    /// Canada.
    Ca,
    /// France.
    Fr,
    /// United Kingdom.
    Gb,
    /// China.
    Cn,
    /// Singapore.
    Sg,
    /// Poland.
    Pl,
    /// Japan.
    Jp,
    /// Any other country (the paper aggregates these as "Others").
    Other,
}

impl Country {
    /// ISO-3166-alpha-2-style code (upper case), `??` for [`Country::Other`].
    pub fn code(self) -> &'static str {
        match self {
            Country::Us => "US",
            Country::Nl => "NL",
            Country::De => "DE",
            Country::Ca => "CA",
            Country::Fr => "FR",
            Country::Gb => "GB",
            Country::Cn => "CN",
            Country::Sg => "SG",
            Country::Pl => "PL",
            Country::Jp => "JP",
            Country::Other => "??",
        }
    }

    /// All countries the analysis distinguishes.
    pub fn all() -> &'static [Country] {
        &[
            Country::Us,
            Country::Nl,
            Country::De,
            Country::Ca,
            Country::Fr,
            Country::Gb,
            Country::Cn,
            Country::Sg,
            Country::Pl,
            Country::Jp,
            Country::Other,
        ]
    }
}

impl std::fmt::Display for Country {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A simplified multiaddr: IP literal, port, transport, and the country the IP
/// geolocates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Multiaddr {
    /// IPv4 address packed as a `u32` (the simulation only uses IPv4).
    pub ip: u32,
    /// Transport port.
    pub port: u16,
    /// Transport protocol.
    pub transport: Transport,
    /// Country the address geolocates to (GeoIP substitute).
    pub country: Country,
}

impl Multiaddr {
    /// Creates a new address.
    pub fn new(ip: u32, port: u16, transport: Transport, country: Country) -> Self {
        Self {
            ip,
            port,
            transport,
            country,
        }
    }

    /// Samples a random public-looking address in the given country.
    pub fn random_in_country<R: Rng + ?Sized>(rng: &mut R, country: Country) -> Self {
        // Avoid 0.x, 10.x, 127.x and 192.168.x style prefixes so addresses
        // look like routable ones in logs.
        let a = rng.gen_range(11u32..=203);
        let b = rng.gen_range(0u32..=255);
        let c = rng.gen_range(0u32..=255);
        let d = rng.gen_range(1u32..=254);
        let ip = (a << 24) | (b << 16) | (c << 8) | d;
        let transport = if rng.gen_bool(0.6) {
            Transport::Tcp
        } else {
            Transport::Quic
        };
        Self::new(ip, rng.gen_range(1024..u16::MAX), transport, country)
    }

    /// Dotted-quad IP string.
    pub fn ip_string(&self) -> String {
        format!(
            "{}.{}.{}.{}",
            (self.ip >> 24) & 0xff,
            (self.ip >> 16) & 0xff,
            (self.ip >> 8) & 0xff,
            self.ip & 0xff
        )
    }

    /// Full multiaddr string, e.g. `/ip4/1.2.3.4/tcp/4001`.
    pub fn to_multiaddr_string(&self) -> String {
        match self.transport {
            Transport::Tcp => format!("/ip4/{}/tcp/{}", self.ip_string(), self.port),
            Transport::Quic => format!("/ip4/{}/udp/{}/quic-v1", self.ip_string(), self.port),
            Transport::WebSocket => format!("/ip4/{}/tcp/{}/ws", self.ip_string(), self.port),
        }
    }

    /// Parses the string forms produced by [`Multiaddr::to_multiaddr_string`].
    /// The country is not encoded in the string and defaults to
    /// [`Country::Other`].
    pub fn parse(s: &str) -> Result<Self, TypesError> {
        let parts: Vec<&str> = s.split('/').filter(|p| !p.is_empty()).collect();
        if parts.len() < 4 || parts[0] != "ip4" {
            return Err(TypesError::InvalidMultiaddr(s.to_string()));
        }
        let octets: Vec<u32> = parts[1]
            .split('.')
            .map(|o| o.parse::<u32>())
            .collect::<Result<_, _>>()
            .map_err(|_| TypesError::InvalidMultiaddr(s.to_string()))?;
        if octets.len() != 4 || octets.iter().any(|&o| o > 255) {
            return Err(TypesError::InvalidMultiaddr(s.to_string()));
        }
        let ip = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3];
        let port: u16 = parts[3]
            .parse()
            .map_err(|_| TypesError::InvalidMultiaddr(s.to_string()))?;
        let transport = match (parts[2], parts.last().copied()) {
            ("tcp", Some("ws")) => Transport::WebSocket,
            ("tcp", _) => Transport::Tcp,
            ("udp", Some("quic-v1")) => Transport::Quic,
            _ => return Err(TypesError::InvalidMultiaddr(s.to_string())),
        };
        Ok(Self::new(ip, port, transport, Country::Other))
    }
}

impl std::fmt::Display for Multiaddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_multiaddr_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn formats_tcp_and_quic() {
        let a = Multiaddr::new(0x01020304, 4001, Transport::Tcp, Country::De);
        assert_eq!(a.to_multiaddr_string(), "/ip4/1.2.3.4/tcp/4001");
        let b = Multiaddr::new(0xc0a80101, 4001, Transport::Quic, Country::Us);
        assert_eq!(b.to_multiaddr_string(), "/ip4/192.168.1.1/udp/4001/quic-v1");
        let c = Multiaddr::new(0x7f000001, 8081, Transport::WebSocket, Country::Us);
        assert_eq!(c.to_multiaddr_string(), "/ip4/127.0.0.1/tcp/8081/ws");
    }

    #[test]
    fn parse_roundtrip_ignoring_country() {
        for transport in [Transport::Tcp, Transport::Quic, Transport::WebSocket] {
            let a = Multiaddr::new(0x0a141e28, 4001, transport, Country::Fr);
            let parsed = Multiaddr::parse(&a.to_multiaddr_string()).unwrap();
            assert_eq!(parsed.ip, a.ip);
            assert_eq!(parsed.port, a.port);
            assert_eq!(parsed.transport, a.transport);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "/ip6/::1/tcp/1",
            "/ip4/1.2.3/tcp/1",
            "/ip4/1.2.3.4/sctp/1",
            "/ip4/1.2.3.400/tcp/1",
        ] {
            assert!(Multiaddr::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn random_addresses_carry_country() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Multiaddr::random_in_country(&mut rng, Country::Nl);
        assert_eq!(a.country, Country::Nl);
        assert!(a.port >= 1024);
    }

    #[test]
    fn country_codes_are_unique() {
        let mut codes: Vec<&str> = Country::all().iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Country::all().len());
    }

    proptest! {
        #[test]
        fn parse_roundtrip_any(ip: u32, port: u16, t_idx in 0usize..3) {
            let transports = [Transport::Tcp, Transport::Quic, Transport::WebSocket];
            let a = Multiaddr::new(ip, port, transports[t_idx], Country::Other);
            let parsed = Multiaddr::parse(&a.to_multiaddr_string()).unwrap();
            prop_assert_eq!(parsed.ip, ip);
            prop_assert_eq!(parsed.port, port);
            prop_assert_eq!(parsed.transport, transports[t_idx]);
        }
    }
}
