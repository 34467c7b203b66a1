//! Typed identifiers for network elements.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a raw index.
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// The raw index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A host (endpoint) attached to the network. Hosts both inject and
    /// receive: host `h` injects at the network's input side and is the
    /// delivery target of address `h` on the output side.
    HostId,
    "h"
);

id_type!(
    /// A switch, numbered flat across all stages
    /// (`stage * switches_per_stage + index_in_stage`).
    SwitchId,
    "sw"
);

id_type!(
    /// A port index within a switch side (0..radix).
    PortId,
    "p"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let h = HostId::new(5);
        assert_eq!(h.index(), 5);
        assert_eq!(h.to_string(), "h5");
        assert_eq!(SwitchId::from(3u32).to_string(), "sw3");
        assert_eq!(PortId::new(1).to_string(), "p1");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(HostId::new(1) < HostId::new(2));
        assert_eq!(SwitchId::default(), SwitchId::new(0));
    }
}
